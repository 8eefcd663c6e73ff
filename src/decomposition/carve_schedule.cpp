#include "decomposition/carve_schedule.hpp"

#include <algorithm>

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

}  // namespace dsnd
