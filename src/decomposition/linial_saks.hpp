// The Linial–Saks (1993) randomized decomposition — the baseline the
// paper improves on. Produces a weak (2k-2, O(n^{1/k} log n)) network
// decomposition: per phase, every live vertex samples a truncated
// geometric radius r_v (Pr[r >= j] = p^j with p = n^{-1/k}, capped at
// k-1) and broadcasts (id, r_v) through the surviving graph; a vertex y
// joins the cluster of the minimum-id vertex v whose broadcast reached it
// (d_{G_t}(y, v) <= r_v), and is retained in the phase's block only if
// the inequality is strict (d < r_v).
//
// Clusters of one phase are pairwise non-adjacent (same argument as the
// paper's: an edge between two same-phase clusters would force both
// centers to reach both endpoints, contradicting min-id choice), so phase
// = color is a proper supergraph coloring. Crucially the guarantee is
// only on the WEAK diameter: a cluster need not be connected in its
// induced subgraph, and its strong diameter can be unbounded — the gap
// that motivates the paper, measured head-to-head in bench E5.
//
// One implementation: a CONGEST protocol on the simulator, for the
// message-complexity comparison against the Elkin–Neiman protocol
// (bench E8); linial_saks_decomposition runs it on a default engine. It
// rides on the carve core (carving.hpp): r_v is the floor of the carve's
// EXP(beta) draw at beta = -ln p, which has LS93's tail
// Pr[r >= j] = p^j, on the same per-(seed, phase, vertex) streams; joins
// advance a CarveProgress record and carve_result assembles the result.
// Only LS93's own rules are separate: the min-id broadcast and the
// strict-retention join. The tests hold it bit for bit against an
// oracle (tests/reference_carver.hpp) in which centers claim the
// unclaimed vertices by radius-capped BFS in id order.
//
// The protocol's messages carry one (id, radius, distance) entry — O(1)
// words — but unlike Elkin–Neiman's top-2 rule, min-id flooding cannot
// simply keep the best entry: a small id with little remaining broadcast
// range does not subsume a larger id with more range. Each vertex
// therefore maintains the Pareto frontier {(id, remaining range)} — ids
// ascending, remaining strictly ascending — and forwards newly inserted
// frontier entries. The frontier never exceeds k entries (ranges lie in
// [0, k-1]), so per-round traffic is O(k) messages per edge instead of
// O(1): one quantitative reason the shifted-exponential rule is
// CONGEST-friendlier. Pruning loses nothing: the min-id winner and its
// exact distance survive along every shortest path, because an entry is
// dropped only for one with a smaller id and at least as much remaining
// range, which reaches every vertex the dropped entry could reach and
// beats it there.
#pragma once

#include <cstdint>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/partition.hpp"
#include "graph/graph.hpp"
#include "simulator/engine.hpp"

namespace dsnd {

struct LinialSaksOptions {
  std::int32_t k = 0;  // 0 = ceil(ln n); radius cap is k-1
  std::uint64_t seed = 1;
};

/// The LS93 radius distribution parameter p = n^{-1/k}.
double linial_saks_p(VertexId n, std::int32_t k);

/// Runs phases until the graph is exhausted, as a CONGEST protocol on
/// the simulator. bounds.strong_diameter is set to the WEAK diameter
/// bound 2k-2 (that is all LS93 promises). No output depends on
/// engine_options.threads. Nothing validates or recovers, so a lossy
/// transport (Transport::lossy()) is refused with std::invalid_argument;
/// any other transport changes no output.
DistributedRun linial_saks_distributed(
    const Graph& g, const LinialSaksOptions& options,
    const EngineOptions& engine_options = {});

/// linial_saks_distributed(g, options).run on a default engine (one
/// thread, reliable transport), for callers that want the decomposition
/// and not the simulator's accounting.
DecompositionRun linial_saks_decomposition(const Graph& g,
                                           const LinialSaksOptions& options);

/// [tag, id, radius, dist].
inline constexpr std::size_t kLsProtocolMaxWords = 4;

}  // namespace dsnd
