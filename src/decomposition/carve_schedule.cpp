#include "decomposition/carve_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace dsnd {

void CarveSchedule::require_runnable() const {
  DSND_REQUIRE(!betas.empty(), "carve schedule must be nonempty");
  for (double beta : betas) {
    DSND_REQUIRE(beta > 0.0, "every beta must be positive");
  }
  DSND_REQUIRE(phase_rounds >= 1, "need at least one broadcast round");
  DSND_REQUIRE(max_retries_per_phase >= 0 && max_run_retries >= 0 &&
                   max_rollbacks >= 0,
               "retry budgets must be nonnegative");
}

std::size_t CarveSchedule::round_budget(VertexId num_vertices) const {
  const auto phase_len =
      static_cast<std::size_t>(std::max(phase_rounds, 0)) + 1;
  const auto attempts =
      1 + static_cast<std::size_t>(std::max(max_retries_per_phase, 0));
  const double bound_rounds = bounds.rounds_with_retries(
      static_cast<std::int64_t>(attempts * phase_len));
  const std::size_t overtime =
      (static_cast<std::size_t>(num_vertices) + betas.size() + 16) *
      attempts * phase_len;
  return static_cast<std::size_t>(8.0 * std::max(bound_rounds, 0.0)) +
         overtime + 64;
}

CarveResult carve_decomposition(const Graph& g, const CarveSchedule& schedule,
                                std::uint64_t seed, double margin,
                                ForwardPolicy forward_policy) {
  schedule.require_runnable();

  const auto n = static_cast<std::size_t>(g.num_vertices());
  CarveResult result;
  result.clustering = Clustering(g.num_vertices());
  result.target_phases = schedule.target_phases();

  std::vector<char> alive(n, 1);
  std::vector<double> radii(n, 0.0);
  std::vector<double> unit_scratch(n);
  std::vector<VertexId> live(n);
  VertexId remaining = g.num_vertices();

  // Cap runaway loops: even beta close to 0 empties the graph in one
  // phase, so this bound is never hit in practice.
  const std::int32_t hard_cap =
      result.target_phases * 16 + g.num_vertices() + 16;

  std::int32_t phase = 0;
  while (remaining > 0) {
    DSND_CHECK(phase < hard_cap, "carving failed to converge");
    const double beta =
        phase < result.target_phases
            ? schedule.betas[static_cast<std::size_t>(phase)]
            : schedule.betas.back();

    // Las Vegas recarve loop: resample the whole phase (fresh per-retry
    // salt) while Lemma 1's event holds and the budget allows. Both the
    // overflow flag and the reported max come straight from the sampling
    // pass — not from the (truncated) broadcast state — so logs always
    // show the event that actually fired. The batched sampler draws from
    // the same per-(seed, phase, v, retry) streams the scalar one does.
    live.clear();
    for (std::size_t v = 0; v < n; ++v) {
      if (alive[v]) live.push_back(static_cast<VertexId>(v));
    }
    for (std::int32_t retry = 0;; ++retry) {
      const RadiusBatchStats stats = carve_radius_sample_batch(
          seed, phase, beta, retry, live, /*names=*/{}, unit_scratch, radii,
          schedule.radius_overflow_at);
      result.max_sampled_radius =
          std::max(result.max_sampled_radius, stats.max_radius);
      const bool attempt_overflow = stats.overflow;
      if (attempt_overflow &&
          schedule.overflow_policy == OverflowPolicy::kRetry &&
          retry < schedule.max_retries_per_phase) {
        // The aborted attempt still costs one phase of simulated rounds
        // (the distributed realization spends the phase broadcast
        // aggregating the overflow bit before it can replay).
        ++result.retries;
        continue;
      }
      if (attempt_overflow) result.radius_overflow = true;
      break;
    }

    PhaseState state = run_phase_broadcast(g, alive, radii,
                                           schedule.phase_rounds,
                                           forward_policy);

    // Collect joiners grouped by chosen center; each (phase, center)
    // group is one cluster (Claim 3 makes it connected).
    std::vector<VertexId> joiners;
    for (std::size_t v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      if (phase_join_decision(state.best[v], state.second[v], margin)) {
        joiners.push_back(static_cast<VertexId>(v));
      }
    }

    std::vector<ClusterId> cluster_of_center(n, kNoCluster);
    for (VertexId y : joiners) {
      const VertexId center = state.best[static_cast<std::size_t>(y)].center;
      ClusterId& c = cluster_of_center[static_cast<std::size_t>(center)];
      if (c == kNoCluster) {
        c = result.clustering.add_cluster(center, phase);
      }
      result.clustering.assign(y, c);
      alive[static_cast<std::size_t>(y)] = 0;
    }
    remaining -= static_cast<VertexId>(joiners.size());
    result.carved_per_phase.push_back(
        static_cast<VertexId>(joiners.size()));
    ++phase;
  }

  result.phases_used = phase;
  result.exhausted_within_target = phase <= result.target_phases;
  const auto phase_len = static_cast<std::int64_t>(schedule.phase_rounds) + 1;
  result.extra_rounds = static_cast<std::int64_t>(result.retries) * phase_len;
  result.rounds =
      static_cast<std::int64_t>(phase) * phase_len + result.extra_rounds;
  return result;
}

DecompositionRun run_schedule(const Graph& g, const CarveSchedule& schedule,
                              std::uint64_t seed) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  DecompositionRun run;
  run.carve = carve_decomposition(g, schedule, seed);
  run.bounds = schedule.bounds;
  run.k = schedule.k;
  run.c = schedule.c;
  return run;
}

}  // namespace dsnd
