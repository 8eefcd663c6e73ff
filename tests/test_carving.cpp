#include "decomposition/carving.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "decomposition/carve_schedule.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "reference_carver.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

TEST(CarveEntry, ValueIsShiftedRadius) {
  const CarveEntry e{5.5, 2, 7};
  EXPECT_DOUBLE_EQ(e.value(), 3.5);
}

TEST(CarveEntry, BeatsByValueThenCenter) {
  const CarveEntry high{5.0, 0, 3};
  const CarveEntry low{4.0, 0, 1};
  EXPECT_TRUE(high.beats(low));
  EXPECT_FALSE(low.beats(high));
  // Tie: smaller center id wins.
  const CarveEntry tie_small{4.0, 0, 1};
  const CarveEntry tie_large{5.0, 1, 2};  // same value 4.0
  EXPECT_TRUE(tie_small.beats(tie_large));
  EXPECT_FALSE(tie_large.beats(tie_small));
}

TEST(CarveEntry, InvalidNeverBeats) {
  const CarveEntry invalid{};
  const CarveEntry valid{1.0, 0, 0};
  EXPECT_FALSE(invalid.beats(valid));
  EXPECT_TRUE(valid.beats(invalid));
  EXPECT_FALSE(invalid.valid());
}

TEST(CarveEntry, MergeKeepsTheTopTwoCenters) {
  // The one top-2 merge the protocol and the reference carver run. An
  // improved entry for the stored second center can overtake the best; a
  // reliable synchronous broadcast never delivers one (a center's first
  // entry is its shortest), but a delayed message under faults can.
  CarveEntry best;
  CarveEntry second;
  EXPECT_TRUE(merge_entry(best, second, CarveEntry{5.0, 1, 1}));   // 4
  EXPECT_TRUE(merge_entry(best, second, CarveEntry{4.0, 1, 2}));   // 3
  EXPECT_TRUE(merge_entry(best, second, CarveEntry{4.5, 1, 3}));   // 3.5
  EXPECT_EQ(second.center, 3);  // center 2 fell out of the top two
  EXPECT_FALSE(merge_entry(best, second, CarveEntry{5.0, 2, 1}));  // worse
  EXPECT_FALSE(merge_entry(best, second, CarveEntry{}));
  EXPECT_TRUE(merge_entry(best, second, CarveEntry{6.0, 0, 3}));   // 6
  EXPECT_EQ(best.center, 3);
  EXPECT_DOUBLE_EQ(best.value(), 6.0);
  EXPECT_EQ(second.center, 1);
  EXPECT_DOUBLE_EQ(second.value(), 4.0);
}

TEST(RadiusSample, DeterministicPerPhaseAndVertex) {
  const double a = carve_radius_sample(7, 0, 3, 1.0);
  const double b = carve_radius_sample(7, 0, 3, 1.0);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NE(carve_radius_sample(7, 1, 3, 1.0), a);
  EXPECT_NE(carve_radius_sample(7, 0, 4, 1.0), a);
  EXPECT_NE(carve_radius_sample(8, 0, 3, 1.0), a);
}

TEST(JoinDecision, PaperRule) {
  // m1 - m2 > 1 joins; m2 defaults to 0 without a second broadcast.
  const CarveEntry best{2.5, 0, 0};   // m1 = 2.5
  const CarveEntry second{1.2, 0, 1}; // m2 = 1.2
  EXPECT_TRUE(phase_join_decision(best, second, 1.0));     // 1.3 > 1
  const CarveEntry close{1.6, 0, 1};
  EXPECT_FALSE(phase_join_decision(best, close, 1.0));     // 0.9 < 1
  EXPECT_TRUE(phase_join_decision(best, CarveEntry{}, 1.0));   // 2.5 > 1
  const CarveEntry small{0.9, 0, 0};
  EXPECT_FALSE(phase_join_decision(small, CarveEntry{}, 1.0)); // 0.9 < 1
  EXPECT_FALSE(phase_join_decision(CarveEntry{}, CarveEntry{}, 1.0));
}

// --- Ground truth cross-check of the top-2 relaxation -------------------

/// Brute-force per-vertex top-2: for every center v with d(y,v) <= ⌊r_v⌋
/// (distances in the alive-induced subgraph, paths within `max_hops`),
/// collect r_v - d and keep the best two under the same tie-break.
struct Truth {
  CarveEntry best;
  CarveEntry second;
};

std::vector<Truth> brute_force_top2(const Graph& g,
                                    const std::vector<char>& alive,
                                    const std::vector<double>& radii,
                                    std::int32_t max_hops) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<Truth> truth(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    const auto dist =
        bfs_distances_filtered(g, static_cast<VertexId>(v), alive);
    for (std::size_t y = 0; y < n; ++y) {
      if (!alive[y] || dist[y] == kUnreachable) continue;
      if (dist[y] > static_cast<std::int32_t>(std::floor(radii[v]))) {
        continue;
      }
      if (dist[y] > max_hops) continue;
      const CarveEntry entry{radii[v], dist[y], static_cast<VertexId>(v)};
      Truth& t = truth[y];
      if (entry.beats(t.best)) {
        t.second = t.best;
        t.best = entry;
      } else if (entry.beats(t.second)) {
        t.second = entry;
      }
    }
  }
  return truth;
}

void expect_matches_truth(const Graph& g, const std::vector<char>& alive,
                          const std::vector<double>& radii,
                          std::int32_t rounds) {
  const PhaseState state = run_phase_broadcast(g, alive, radii, rounds);
  const auto truth = brute_force_top2(g, alive, radii, rounds);
  for (std::size_t y = 0; y < alive.size(); ++y) {
    if (!alive[y]) continue;
    ASSERT_EQ(state.best[y].center, truth[y].best.center) << "y=" << y;
    ASSERT_EQ(state.best[y].dist, truth[y].best.dist) << "y=" << y;
    ASSERT_EQ(state.second[y].center, truth[y].second.center) << "y=" << y;
    if (truth[y].second.valid()) {
      ASSERT_EQ(state.second[y].dist, truth[y].second.dist) << "y=" << y;
    }
  }
}

TEST(PhaseBroadcast, MatchesBruteForceOnFamilies) {
  // The top-2 forwarding optimization (the CONGEST trick from the paper)
  // must compute exactly the same top-2 shifted values as full knowledge.
  for (const auto& [name, n] :
       std::vector<std::pair<std::string, VertexId>>{
           {"cycle", 24}, {"grid", 25}, {"random-tree", 30},
           {"gnp-sparse", 40}, {"ring-of-cliques", 32}}) {
    const Graph g = family_by_name(name).make(n, 11);
    const auto nn = static_cast<std::size_t>(g.num_vertices());
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      std::vector<char> alive(nn, 1);
      std::vector<double> radii(nn);
      for (std::size_t v = 0; v < nn; ++v) {
        radii[v] = carve_radius_sample(seed, 0, static_cast<VertexId>(v),
                                       0.8);
      }
      expect_matches_truth(g, alive, radii, 8);
    }
  }
}

TEST(PhaseBroadcast, MatchesBruteForceWithDeadVertices) {
  const Graph g = make_grid2d(5, 5);
  const auto nn = static_cast<std::size_t>(g.num_vertices());
  std::vector<char> alive(nn, 1);
  // Kill a column, splitting the alive graph.
  for (int r = 0; r < 5; ++r) alive[static_cast<std::size_t>(r * 5 + 2)] = 0;
  std::vector<double> radii(nn, 0.0);
  for (std::size_t v = 0; v < nn; ++v) {
    radii[v] = carve_radius_sample(3, 0, static_cast<VertexId>(v), 0.7);
  }
  expect_matches_truth(g, alive, radii, 6);
}

TEST(PhaseBroadcast, TruncationLimitsReach) {
  // A huge radius at vertex 0 of a path, one broadcast round only: vertex
  // 2 must not have heard vertex 0.
  const Graph g = make_path(5);
  std::vector<char> alive(5, 1);
  std::vector<double> radii = {10.0, 0.1, 0.1, 0.1, 0.1};
  const PhaseState state = run_phase_broadcast(g, alive, radii, 1);
  EXPECT_EQ(state.best[1].center, 0);  // one hop: reached
  EXPECT_EQ(state.best[2].center, 2);  // two hops: not reached in 1 round
}

TEST(PhaseBroadcast, SelfEntryAlwaysPresent) {
  const Graph g = make_path(3);
  std::vector<char> alive(3, 1);
  std::vector<double> radii = {0.0, 0.0, 0.0};
  const PhaseState state = run_phase_broadcast(g, alive, radii, 3);
  for (std::size_t v = 0; v < 3; ++v) {
    EXPECT_EQ(state.best[v].center, static_cast<VertexId>(v));
    EXPECT_EQ(state.best[v].dist, 0);
    EXPECT_FALSE(state.second[v].valid());  // radius 0 travels nowhere
  }
}

TEST(PhaseBroadcast, RangeBoundaryIsFloor) {
  // r = 2.9 -> reaches exactly 2 hops.
  const Graph g = make_path(5);
  std::vector<char> alive(5, 1);
  std::vector<double> radii = {2.9, 0.0, 0.0, 0.0, 0.0};
  const PhaseState state = run_phase_broadcast(g, alive, radii, 5);
  EXPECT_EQ(state.best[2].center, 0);  // value 0.9 beats own 0.0
  EXPECT_EQ(state.best[3].center, 3);  // 3 hops: out of range
}

// --- Full carving --------------------------------------------------------

/// A constant-beta schedule outside the theorem factories.
CarveSchedule constant_schedule(std::size_t phases, double beta,
                                std::int32_t phase_rounds,
                                double radius_overflow_at) {
  CarveSchedule schedule;
  schedule.betas.assign(phases, beta);
  schedule.phase_rounds = phase_rounds;
  schedule.radius_overflow_at = radius_overflow_at;
  return schedule;
}

TEST(Carve, ProducesCompletePartition) {
  const Graph g = make_grid2d(6, 6);
  const CarveResult result =
      carve_decomposition(g, constant_schedule(16, 0.9, 4, 5.0), 5);
  EXPECT_TRUE(result.clustering.is_complete());
  EXPECT_EQ(result.carved_per_phase.size(),
            static_cast<std::size_t>(result.phases_used));
  // Rounds = one phase length per executed phase plus one per Las Vegas
  // recarve retry (phase_rounds + 1 = 5 here).
  EXPECT_EQ(result.extra_rounds,
            static_cast<std::int64_t>(result.retries) * 5);
  EXPECT_EQ(result.rounds,
            static_cast<std::int64_t>(result.phases_used) * 5 +
                result.extra_rounds);
  EXPECT_FALSE(result.radius_overflow);  // kRetry recovers every event
}

TEST(Carve, DeterministicInSeed) {
  const Graph g = make_gnp(60, 0.08, 2);
  const CarveSchedule schedule = constant_schedule(32, 1.0, 4, 5.0);
  const CarveResult a = carve_decomposition(g, schedule, 42);
  const CarveResult b = carve_decomposition(g, schedule, 42);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.clustering.cluster_of(v), b.clustering.cluster_of(v));
  }
  EXPECT_EQ(a.phases_used, b.phases_used);

  const CarveResult c = carve_decomposition(g, schedule, 43);
  bool any_diff = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (a.clustering.cluster_of(v) != c.clustering.cluster_of(v)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Carve, SingleVertexGraph) {
  const Graph g = make_path(1);
  const CarveResult result =
      carve_decomposition(g, constant_schedule(4, 1.0, 1, 2.0), 1);
  EXPECT_TRUE(result.clustering.is_complete());
  EXPECT_EQ(result.clustering.num_clusters(), 1);
  EXPECT_EQ(result.clustering.center_of(0), 0);
}

TEST(Carve, RejectsBadParams) {
  // The oracle and the library's carve reject the same bad schedules.
  const Graph g = make_path(4);
  CarveSchedule schedule;
  EXPECT_THROW(carve_decomposition(g, schedule, 1), std::invalid_argument);
  EXPECT_THROW(run_schedule(g, schedule, 1), std::invalid_argument);
  schedule.betas = {0.0};
  EXPECT_THROW(carve_decomposition(g, schedule, 1), std::invalid_argument);
  EXPECT_THROW(run_schedule(g, schedule, 1), std::invalid_argument);
  schedule.betas = {1.0};
  schedule.phase_rounds = 0;
  EXPECT_THROW(carve_decomposition(g, schedule, 1), std::invalid_argument);
  EXPECT_THROW(run_schedule(g, schedule, 1), std::invalid_argument);
}

TEST(PhaseBroadcast, Top1ForwardingIsInexact) {
  // The paper's CONGEST rule forwards the top-2 values because the
  // second-largest participates in every join decision. Forwarding only
  // the best must eventually produce a different (stale-m2) phase state
  // somewhere — demonstrating the top-2 rule is necessary, not a luxury.
  bool divergence_found = false;
  for (std::uint64_t seed = 1; seed <= 20 && !divergence_found; ++seed) {
    const Graph g = make_gnp(60, 0.08, seed);
    const auto n = static_cast<std::size_t>(g.num_vertices());
    std::vector<char> alive(n, 1);
    std::vector<double> radii(n);
    for (std::size_t v = 0; v < n; ++v) {
      radii[v] = carve_radius_sample(seed, 0, static_cast<VertexId>(v),
                                     0.7);
    }
    const PhaseState exact =
        run_phase_broadcast(g, alive, radii, 8, ForwardPolicy::kTop2);
    const PhaseState pruned =
        run_phase_broadcast(g, alive, radii, 8, ForwardPolicy::kTop1);
    for (std::size_t v = 0; v < n; ++v) {
      const bool exact_join =
          phase_join_decision(exact.best[v], exact.second[v], 1.0);
      const bool pruned_join =
          phase_join_decision(pruned.best[v], pruned.second[v], 1.0);
      if (exact_join != pruned_join ||
          exact.best[v].center != pruned.best[v].center) {
        divergence_found = true;
      }
    }
  }
  EXPECT_TRUE(divergence_found)
      << "top-1 forwarding never diverged from top-2 in 20 runs "
         "(statistically implausible)";
}

TEST(PhaseBroadcast, Top1BestValueNeverBetterThanExact) {
  // Pruning can only lose information: the best value seen under top-1
  // forwarding is at most the exact best value.
  const Graph g = make_grid2d(7, 7);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<char> alive(n, 1);
  std::vector<double> radii(n);
  for (std::size_t v = 0; v < n; ++v) {
    radii[v] = carve_radius_sample(5, 0, static_cast<VertexId>(v), 0.6);
  }
  const PhaseState exact =
      run_phase_broadcast(g, alive, radii, 10, ForwardPolicy::kTop2);
  const PhaseState pruned =
      run_phase_broadcast(g, alive, radii, 10, ForwardPolicy::kTop1);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_LE(pruned.best[v].value(), exact.best[v].value() + 1e-12);
  }
}

TEST(Carve, OverflowFlagTracksLargeRadii) {
  const Graph g = make_path(8);
  CarveSchedule schedule = constant_schedule(64, 2.0, 2, 1e9);  // never
  const CarveResult result = carve_decomposition(g, schedule, 9);
  EXPECT_FALSE(result.radius_overflow);

  schedule.radius_overflow_at = 0.0;  // always "reached"
  const CarveResult result2 = carve_decomposition(g, schedule, 9);
  EXPECT_TRUE(result2.radius_overflow);
  EXPECT_GE(result2.max_sampled_radius, 0.0);
}

}  // namespace
}  // namespace dsnd
