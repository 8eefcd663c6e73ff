// Phase-boundary checkpointing for the distributed carving protocol.
//
// The paper's Las Vegas structure is phase-local: a failed attempt only
// invalidates the phase that sampled it, never the prefix of phases that
// already carved and validated their blocks. PR 7's verify-and-recover
// loop ignored that — any failed validation threw the whole run away and
// replayed every phase on a fresh salt. This subsystem makes recovery
// phase-granular:
//
//   PhaseCheckpoint   a copy of the protocol's CarveProgress record
//                     (carving.hpp) at a phase boundary, assigned into
//                     RETAINED buffers, so a warm context checkpoints
//                     with zero steady-state allocation.
//   PhaseValidator    the incremental twin of validate_decomposition_fast:
//                     validates ONLY the clusters finalized this phase
//                     (proper coloring + connectivity). Sound because the
//                     full check decomposes exactly by phase — colors are
//                     phases, so cross-phase adjacency can never violate
//                     the coloring, and connectivity is per cluster. Runs
//                     on the ENGINE graph: both properties are invariant
//                     under the name bijection a cache layout applies, so
//                     no translation to original ids is needed (the final
//                     whole-run validation against the original graph
//                     still gates every kOk — this is an early-exit, not
//                     a replacement).
//   RecoveryArena     everything above plus the phase's joiner list,
//                     owned by CarveContext so the buffers live exactly
//                     as long as the engine/protocol pair they serve.
//
// The recovery policy built on top (carving_protocol.cpp): on a failed
// phase validation or any named fault-induced failure, roll back to the
// last validated checkpoint and replay only the suffix phases on the
// a = 2 salt channel (stream_seed(seed, 2, rollback) — disjoint from the
// a = 0 per-phase and a = 1 whole-run channels), falling back to the
// whole-run retry when the rollback budget is exhausted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "decomposition/carving.hpp"
#include "graph/graph.hpp"
#include "graph/traversal.hpp"

namespace dsnd {

/// The carving protocol's record at the last validated phase boundary.
/// Capture and restore are copy-assignments (capacity is retained), so
/// steady-state checkpointing allocates nothing once warm.
struct PhaseCheckpoint {
  CarveProgress progress;
  /// False until a boundary is captured: a rollback to phase 0 would
  /// just be a whole-run retry.
  bool captured = false;
};

/// Incremental per-phase validation: proper phase coloring and cluster
/// connectivity restricted to the vertices that joined one phase. Its
/// scratch is sized once per graph and reset by walking what a call
/// touched, so repeated calls cost O(phase work) and allocate nothing.
class PhaseValidator {
 public:
  /// Validates the clusters finalized in `phase`. `joiners` are the
  /// ENGINE ids that joined this phase, in ascending order; `center_of`
  /// holds each vertex's chosen center (original ids — any consistent
  /// labeling works, the checks only compare for equality) and
  /// `phase_of` its chosen phase. Returns false iff some joiner has a
  /// same-phase neighbor in a different cluster (improper coloring) or
  /// some cluster of this phase is disconnected.
  bool validate_phase(const Graph& g, std::span<const VertexId> joiners,
                      std::span<const VertexId> center_of,
                      std::span<const std::int32_t> phase_of,
                      std::int32_t phase);

 private:
  BfsArena arena_;                // per engine vertex
  std::vector<char> center_seen_;  // per original center id
};

/// Checkpoint/rollback state retained by a CarveContext: the last
/// validated checkpoint, the incremental validator's scratch, and the
/// list of the phase's joiners the boundary validation reads.
struct RecoveryArena {
  PhaseCheckpoint checkpoint;
  PhaseValidator validator;
  /// The just-decided phase's joiners in ascending engine id, refilled
  /// from the record at each boundary.
  std::vector<VertexId> joined;
};

}  // namespace dsnd
