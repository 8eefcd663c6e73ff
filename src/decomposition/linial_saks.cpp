#include "decomposition/linial_saks.hpp"

#include <cmath>
#include <vector>

#include "graph/traversal.hpp"
#include "support/assert.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace dsnd {

double linial_saks_p(VertexId n, std::int32_t k) {
  DSND_REQUIRE(n >= 1, "graph must be nonempty");
  DSND_REQUIRE(k >= 1, "k must be positive");
  // p = n^{-1/k}; clamp away from the degenerate endpoints for n = 1.
  const double p =
      std::pow(static_cast<double>(std::max<VertexId>(n, 2)), -1.0 / k);
  return p;
}

namespace {

/// Per-phase winner bookkeeping for one vertex: the minimum-id center
/// whose broadcast reached it, and that center's radius and distance.
struct LsWinner {
  VertexId center = -1;
  std::int32_t radius = 0;
  std::int32_t dist = 0;

  bool valid() const { return center >= 0; }
};

}  // namespace

DecompositionRun linial_saks_decomposition(const Graph& g,
                                           const LinialSaksOptions& options) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  const VertexId n = g.num_vertices();
  // k = 1 truncates every radius to 0 and no vertex is ever retained, so
  // the implementation needs k >= 2 (LS93's k = 1 regime degenerates to
  // singleton clusters with ~n colors and is of no practical interest).
  const std::int32_t k = std::max(resolve_k(n, options.k), 2);
  const double p = linial_saks_p(n, k);
  // Expected phase count O(n^{1/k} ln n); the hard cap only guards bugs.
  const auto lambda = static_cast<std::int32_t>(std::ceil(
      std::pow(static_cast<double>(n), 1.0 / k) *
          std::log(static_cast<double>(std::max<VertexId>(n, 2))) +
      1.0));
  const std::int32_t hard_cap = lambda * 16 + n + 16;

  const auto nn = static_cast<std::size_t>(n);
  std::vector<char> alive(nn, 1);
  std::vector<std::int32_t> radii(nn, 0);
  VertexId remaining = n;
  BfsArena arena(n);
  const auto is_alive = [&alive](VertexId v) {
    return alive[static_cast<std::size_t>(v)] != 0;
  };

  DecompositionRun run;
  run.carve.clustering = Clustering(n);
  run.carve.target_phases = lambda;

  std::int32_t phase = 0;
  while (remaining > 0) {
    DSND_CHECK(phase < hard_cap, "Linial–Saks failed to converge");
    for (std::size_t v = 0; v < nn; ++v) {
      if (!alive[v]) continue;
      Xoshiro256ss rng(stream_seed(options.seed,
                                   static_cast<std::uint64_t>(phase) + 1,
                                   static_cast<std::uint64_t>(v) + 1));
      radii[v] = sample_truncated_geometric(rng, p, k - 1);
      run.carve.max_sampled_radius =
          std::max(run.carve.max_sampled_radius,
                   static_cast<double>(radii[v]));
    }

    // Determine, for every live vertex y, the minimum-id center whose
    // r_v-hop broadcast reaches it in G_t. Processing candidate centers
    // in increasing id order and claiming unclaimed vertices via a
    // radius-limited BFS gives each y exactly that center.
    std::vector<LsWinner> winner(nn);
    for (VertexId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!alive[vi]) continue;
      // BFS from v through live vertices, up to radii[vi] hops, claiming
      // vertices that have no winner yet (all earlier candidates have
      // smaller ids, so an existing winner always wins the id tie-break).
      for (const VertexId u : bfs(g, {&v, 1}, arena, is_alive, radii[vi])) {
        const auto ui = static_cast<std::size_t>(u);
        if (!winner[ui].valid()) {
          winner[ui] = LsWinner{v, radii[vi], arena.distance(u)};
        }
      }
      arena.reset();
    }

    // Retention rule: join this phase's block iff d(y, center) < r_center.
    std::vector<ClusterId> cluster_of_center(nn, kNoCluster);
    VertexId carved = 0;
    for (std::size_t y = 0; y < nn; ++y) {
      if (!alive[y] || !winner[y].valid()) continue;
      if (winner[y].dist >= winner[y].radius) continue;
      const auto center = static_cast<std::size_t>(winner[y].center);
      ClusterId& c = cluster_of_center[center];
      if (c == kNoCluster) {
        c = run.carve.clustering.add_cluster(winner[y].center, phase);
      }
      run.carve.clustering.assign(static_cast<VertexId>(y), c);
      alive[y] = 0;
      ++carved;
    }
    remaining -= carved;
    run.carve.carved_per_phase.push_back(carved);
    ++phase;
  }

  run.carve.phases_used = phase;
  run.carve.exhausted_within_target = phase <= lambda;
  // Distributed cost: k broadcast rounds plus one announcement per phase,
  // as in [LS93].
  run.carve.rounds = static_cast<std::int64_t>(phase) * (k + 1);
  run.k = static_cast<double>(k);
  run.c = 1.0;
  run.bounds.strong_diameter = 2.0 * k - 2.0;  // WEAK diameter bound
  run.bounds.colors = static_cast<double>(lambda);
  run.bounds.rounds = static_cast<double>(lambda) * k;
  run.bounds.success_probability = 0.5;  // expected-time statement in LS93
  return run;
}

}  // namespace dsnd
