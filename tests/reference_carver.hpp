// The dense reference carver: the tests' oracle for the engine's carve.
//
// The library has one carve implementation, CarvingProtocol on the
// SyncEngine (decomposition/carving_protocol.hpp); run_schedule and
// run_schedule_distributed both run it. This file keeps a second,
// independent realization of the same process (Section 2 of the paper):
// every phase relaxes ceil(k) synchronous rounds of top-2 merges over
// EVERY live vertex in memory, with no messages, wakes or active lists.
// It shares only the carve core with the protocol (merge_entry,
// phase_join_decision, CarveProgress, carve_radius_sample_batch and
// carve_result), so the parity tests hold the engine against it
// bit for bit: CarveResult equality, field for field.
//
// It also carries what the library does not serve: the E9 ablations
// (a join margin other than 1, top-1 forwarding) that bench_ablation
// measures, and the scalar radius sampler the batched one is pinned
// against.
//
// The same holds for the Linial–Saks baseline: the library runs only its
// protocol (decomposition/linial_saks.hpp), and reference_linial_saks
// realizes LS93 a second way, by radius-capped BFS claims, sharing only
// carve_radius_sample_batch, CarveProgress and carve_result with it.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "decomposition/carve_schedule.hpp"
#include "decomposition/carving.hpp"
#include "decomposition/linial_saks.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// What each vertex forwards during the broadcast. The paper's CONGEST
/// observation is that the top-2 suffices for exact decisions; kTop1 is
/// an ablation showing that forwarding only the best value yields stale
/// second-place estimates and wrong clusterings.
enum class ForwardPolicy { kTop2, kTop1 };

/// Samples r_v for vertex v in phase t: EXP(beta) via the per-(seed,
/// phase, vertex) stream, one vertex at a time. `retry` is the per-phase
/// resample index of the Las Vegas recarve loop: retry 0 is the unsalted
/// stream; retry r > 0 mixes a fresh salt into the seed so aborted
/// attempts never correlate with their replacements. The library's
/// carve_radius_sample_batch must draw the same bits (pinned by test).
double carve_radius_sample(std::uint64_t seed, std::int32_t phase,
                           VertexId v, double beta, std::int32_t retry = 0);

/// One phase's top-2 entries per vertex (entries of dead vertices are
/// invalid).
struct PhaseState {
  std::vector<CarveEntry> best;    // per vertex
  std::vector<CarveEntry> second;  // per vertex
};

/// Runs one phase over the vertices with alive[v] != 0: `phase_rounds`
/// rounds of truncated top-2 broadcast, relaxing every live vertex every
/// round.
PhaseState run_phase_broadcast(
    const Graph& g, const std::vector<char>& alive,
    const std::vector<double>& radii, std::int32_t phase_rounds,
    ForwardPolicy policy = ForwardPolicy::kTop2);

/// Runs the schedule phase by phase until every vertex is clustered,
/// drawing r_v from the per-(seed, phase, vertex, retry) streams. With
/// the defaults it must equal run_schedule(g, schedule, seed).carve.
/// margin and forward_policy are the E9 ablations: the paper joins on
/// m1 - m2 > 1 with top-2 forwarding, and a smaller margin or top-1
/// forwarding voids its guarantees.
CarveResult carve_decomposition(
    const Graph& g, const CarveSchedule& schedule, std::uint64_t seed,
    double margin = 1.0, ForwardPolicy forward_policy = ForwardPolicy::kTop2);

/// Linial–Saks by claims: each phase draws every live vertex's radius
/// (the floor of its EXP(-ln p) draw, capped at k - 1), then the centers,
/// in increasing id, claim the unclaimed vertices within their radius by
/// BFS through the phase's graph; a claimed vertex joins iff its distance
/// is strictly below the radius. k, lambda and beta come from resolve_k
/// and linial_saks_p. Must equal linial_saks_distributed(g,
/// options).run.carve for every engine option.
CarveResult reference_linial_saks(const Graph& g,
                                  const LinialSaksOptions& options);

/// GoogleTest's printer for a CarveResult, so a failed equality shows the
/// counters instead of raw bytes.
void PrintTo(const CarveResult& result, std::ostream* os);

}  // namespace dsnd
