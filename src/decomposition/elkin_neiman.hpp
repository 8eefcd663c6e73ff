// Theorem 1 of the paper: for 1 <= k <= ln n and c > 3, a randomized
// strong (2k-2, (cn)^{1/k} ln(cn)) network decomposition computed in
// k (cn)^{1/k} ln(cn) rounds with probability >= 1 - 3/c, with O(1)-word
// messages. With k = ceil(ln n) this is the paper's headline strong
// (O(log n), O(log n)) decomposition in O(log^2 n) rounds.
//
// theorem1_schedule() derives the constant-beta carve schedule and the
// promised bounds once; run_schedule() carves it and
// run_schedule_distributed() (carving_protocol.hpp) runs the same carve
// with the simulator's accounting — both on the one CONGEST protocol, so
// the clusterings are bit-identical on the same seed.
#pragma once

#include <cstdint>

#include "decomposition/carve_schedule.hpp"
#include "decomposition/carving.hpp"
#include "decomposition/partition.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// The number of phases lambda = ceil((cn)^{1/k} ln(cn)) of Theorem 1.
std::int32_t elkin_neiman_target_phases(VertexId n, std::int32_t k, double c);

/// beta = ln(cn) / k.
double elkin_neiman_beta(VertexId n, std::int32_t k, double c);

/// Resolves k == 0 to ceil(ln n) (at least 1).
std::int32_t resolve_k(VertexId n, std::int32_t k);

/// Theorem 1's schedule: lambda phases at constant beta = ln(cn)/k, k
/// broadcast rounds per phase, with the theorem's bounds attached.
/// k == 0 selects ceil(ln n) (the headline regime). c is the failure
/// parameter: success probability 1 - 3/c, nontrivial for c > 3, though
/// any c with cn > 1 runs.
CarveSchedule theorem1_schedule(VertexId n, std::int32_t k = 0,
                                double c = 4.0);

}  // namespace dsnd
