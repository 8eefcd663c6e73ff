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

CarveResult carve_result(std::int32_t target_phases,
                         std::int32_t phase_rounds,
                         const CarveProgress& progress,
                         std::span<const VertexId> names,
                         bool radius_overflow) {
  const std::size_t n = progress.chosen_phase.size();
  const std::int32_t phases = progress.phases_used;
  CarveResult result;
  result.clustering = Clustering(static_cast<VertexId>(n));
  result.target_phases = target_phases;
  result.phases_used = phases;
  result.radius_overflow = radius_overflow;
  result.max_sampled_radius = progress.max_sampled_radius;
  result.retries = progress.retries;
  // Every attempt, replays included, is phase_rounds broadcast rounds
  // plus one membership (or overflow-bit) round.
  const auto phase_len = static_cast<std::int64_t>(phase_rounds) + 1;
  result.extra_rounds = static_cast<std::int64_t>(progress.retries) * phase_len;
  result.rounds = static_cast<std::int64_t>(phases) * phase_len +
                  result.extra_rounds;

  // Walk the vertices in name order (through the inverse name map on a
  // relabeled run), so a relabeled run builds the exact same clustering
  // object. O(n + phases).
  std::vector<VertexId> by_name;
  if (!names.empty()) {
    by_name.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      by_name[static_cast<std::size_t>(names[v])] = static_cast<VertexId>(v);
    }
  }
  const auto vertex_named = [&](std::size_t o) {
    return names.empty() ? o : static_cast<std::size_t>(by_name[o]);
  };
  std::vector<std::vector<VertexId>> members_per_phase(
      static_cast<std::size_t>(phases));
  for (std::size_t o = 0; o < n; ++o) {
    const std::int32_t phase = progress.chosen_phase[vertex_named(o)];
    if (phase >= 0) {
      members_per_phase[static_cast<std::size_t>(phase)].push_back(
          static_cast<VertexId>(o));
    }
  }
  std::vector<ClusterId> cluster_of_center(n, kNoCluster);
  std::size_t carved = 0;
  for (std::int32_t phase = 0; phase < phases; ++phase) {
    const std::vector<VertexId>& members =
        members_per_phase[static_cast<std::size_t>(phase)];
    result.carved_per_phase.push_back(static_cast<VertexId>(members.size()));
    carved += members.size();
    for (const VertexId o : members) {
      const VertexId center = progress.chosen_center[vertex_named(
          static_cast<std::size_t>(o))];
      ClusterId& c = cluster_of_center[static_cast<std::size_t>(center)];
      if (c == kNoCluster || result.clustering.color_of(c) != phase) {
        c = result.clustering.add_cluster(center, phase);
      }
      result.clustering.assign(o, c);
    }
  }
  result.exhausted_within_target =
      carved == n && phases <= result.target_phases;
  return result;
}

CarveResult carve_decomposition(const Graph& g, const CarveSchedule& schedule,
                                std::uint64_t seed, double margin,
                                ForwardPolicy forward_policy) {
  schedule.require_runnable();

  const auto n = static_cast<std::size_t>(g.num_vertices());
  CarveProgress progress;
  progress.reset(g.num_vertices());
  std::vector<double> radii(n, 0.0);
  std::vector<double> unit_scratch(n);
  bool radius_overflow = false;

  // Cap runaway loops: even beta close to 0 empties the graph in one
  // phase, so this bound is never hit in practice.
  const std::int32_t hard_cap =
      schedule.target_phases() * 16 + g.num_vertices() + 16;

  while (!progress.live.empty()) {
    DSND_CHECK(progress.phase < hard_cap, "carving failed to converge");
    // Las Vegas recarve loop: resample the whole phase (fresh per-retry
    // salt) while Lemma 1's event holds and the schedule replays it. The
    // batched sampler draws from the same per-(seed, phase, v, retry)
    // streams the scalar one does.
    progress.phases_used = progress.phase + 1;
    for (std::int32_t retry = 0;; ++retry) {
      const RadiusBatchStats stats = carve_radius_sample_batch(
          seed, progress.phase, schedule.beta_at(progress.phase), retry,
          progress.live, /*names=*/{}, unit_scratch, radii,
          schedule.radius_overflow_at);
      progress.max_sampled_radius =
          std::max(progress.max_sampled_radius, stats.max_radius);
      if (!stats.overflow) break;
      if (!schedule.replays(retry)) {
        radius_overflow = true;
        break;
      }
      ++progress.retries;
    }

    const PhaseState state = run_phase_broadcast(
        g, progress.alive, radii, schedule.phase_rounds, forward_policy);
    for (const VertexId v : progress.live) {
      const auto vi = static_cast<std::size_t>(v);
      if (phase_join_decision(state.best[vi], state.second[vi], margin)) {
        progress.join(v, state.best[vi].center);
      }
    }
    progress.advance_phase();
  }
  return carve_result(schedule.target_phases(), schedule.phase_rounds,
                      progress, /*names=*/{}, radius_overflow);
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
