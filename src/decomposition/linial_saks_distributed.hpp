// Linial–Saks as a message-passing protocol on the simulator, for the
// message-complexity comparison against the Elkin–Neiman protocol
// (bench E8) and as a fidelity check on the centralized baseline.
//
// Messages carry one (id, radius, distance) entry — O(1) words — but
// unlike Elkin–Neiman's top-2 rule, min-id flooding cannot simply keep
// the best entry: a small id with little remaining broadcast range does
// not subsume a larger id with more range. Each vertex therefore
// maintains the Pareto frontier {(id, remaining range)} — ids ascending,
// remaining strictly ascending — and forwards newly inserted frontier
// entries. The frontier never exceeds k entries (ranges lie in [0, k-1]),
// so per-round traffic is O(k) messages per edge instead of O(1): one
// quantitative reason the shifted-exponential rule is CONGEST-friendlier.
//
// Bit-identical to linial_saks_decomposition on the same seed: the
// min-id winner and its exact distance survive pruning along every
// shortest path, because an entry is dropped only for one with a smaller
// id and at least as much remaining range, which reaches every vertex
// the dropped entry could reach and beats it there.
#pragma once

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/linial_saks.hpp"
#include "graph/graph.hpp"
#include "simulator/engine.hpp"
#include "simulator/metrics.hpp"

namespace dsnd {

struct DistributedLsRun {
  DecompositionRun run;
  SimMetrics sim;
};

DistributedLsRun linial_saks_distributed(
    const Graph& g, const LinialSaksOptions& options,
    const EngineOptions& engine_options = {});

/// [tag, id, radius, dist].
inline constexpr std::size_t kLsProtocolMaxWords = 4;

}  // namespace dsnd
