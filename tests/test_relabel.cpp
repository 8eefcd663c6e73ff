// Cache-aware relabeling: the Permutation must be a checked bijection
// with exact round-trips, apply_layout must preserve the topology, and —
// the contract the perf work rests on — a carving run on a relabeled
// graph must be BIT-IDENTICAL to the run on the original labeling, for
// every theorem schedule, graph family, and engine thread count.
#include "graph/relabel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(Permutation, IdentityAndInverse) {
  const Permutation id = Permutation::identity(5);
  ASSERT_EQ(id.size(), 5);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(id.to_new[static_cast<std::size_t>(v)], v);
    EXPECT_EQ(id.to_old[static_cast<std::size_t>(v)], v);
  }
  const Permutation p = Permutation::from_to_new({2, 0, 3, 1});
  const Permutation q = p.inverse();
  for (VertexId v = 0; v < 4; ++v) {
    // Exact round-trips in both directions.
    EXPECT_EQ(p.to_old[static_cast<std::size_t>(
                  p.to_new[static_cast<std::size_t>(v)])],
              v);
    EXPECT_EQ(q.to_new[static_cast<std::size_t>(v)],
              p.to_old[static_cast<std::size_t>(v)]);
  }
}

TEST(Permutation, RejectsNonBijections) {
  EXPECT_THROW(Permutation::from_to_new({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Permutation::from_to_new({0, 3, 1}), std::invalid_argument);
  EXPECT_THROW(Permutation::from_to_new({-1, 0, 1}), std::invalid_argument);
}

TEST(Permutation, UnpermuteMapsBackToOriginalIds) {
  const Permutation p = Permutation::from_to_new({2, 0, 1});
  // by_new[new id] -> by_old[old id]: old 0 lives at new 2, etc.
  const std::vector<int> by_new = {10, 20, 30};
  const std::vector<int> by_old = unpermute(by_new, p);
  EXPECT_EQ(by_old, (std::vector<int>{30, 10, 20}));
}

TEST(Relabel, ApplyLayoutPreservesTopology) {
  const Graph g = make_gnp(60, 0.1, 5);
  const Permutation layout = bfs_layout(g);
  const Graph relabeled = apply_layout(g, layout);
  ASSERT_EQ(relabeled.num_vertices(), g.num_vertices());
  ASSERT_EQ(relabeled.num_edges(), g.num_edges());
  g.for_each_edge([&](VertexId u, VertexId v) {
    EXPECT_TRUE(relabeled.has_edge(
        layout.to_new[static_cast<std::size_t>(u)],
        layout.to_new[static_cast<std::size_t>(v)]));
  });
}

TEST(Relabel, BfsLayoutPacksRingNeighbors) {
  const Graph g = make_cycle(64);
  const Permutation layout = bfs_layout(g);
  // BFS from 0 explores the ring in both directions: every vertex's new
  // id is within 2 of its neighbors' new ids.
  for (VertexId v = 0; v < 64; ++v) {
    for (const VertexId w : g.neighbors(v)) {
      EXPECT_LE(std::abs(layout.to_new[static_cast<std::size_t>(v)] -
                         layout.to_new[static_cast<std::size_t>(w)]),
                2);
    }
  }
}

TEST(Relabel, GridBucketLayoutOrdersByCell) {
  const std::vector<double> x = {0.9, 0.1, 0.6, 0.1};
  const std::vector<double> y = {0.9, 0.1, 0.1, 0.6};
  const Permutation p = grid_bucket_layout(x, y, 2);
  // Row-major cells: (0,0) holds points 1 and 2 (point order), then
  // (0,1) nothing... cells: point 1 -> cell(0,0), point 2 -> cell(1,0),
  // point 3 -> cell(0,1), point 0 -> cell(1,1).
  EXPECT_EQ(p.to_old, (std::vector<VertexId>{1, 2, 3, 0}));
}

Graph make_family(const std::string& family, VertexId n,
                  std::uint64_t seed) {
  if (family == "gnp") return make_gnp(n, 6.0 / std::max(n - 1, 1), seed);
  if (family == "ring") return make_cycle(n);
  return family_by_name("rgg").make(n, seed);
}

CarveSchedule schedule_for(int theorem, VertexId n) {
  if (theorem == 1) return theorem1_schedule(n, 4, 4.0);
  if (theorem == 2) return theorem2_schedule(n, 3, 6.0);
  return theorem3_schedule(n, 3, 4.0);
}

void expect_identical(const DistributedRun& a, const DistributedRun& b,
                      const std::string& label) {
  const Clustering& ca = a.run.clustering();
  const Clustering& cb = b.run.clustering();
  ASSERT_EQ(ca.num_clusters(), cb.num_clusters()) << label;
  for (VertexId v = 0; v < ca.num_vertices(); ++v) {
    ASSERT_EQ(ca.cluster_of(v), cb.cluster_of(v)) << label << " v=" << v;
  }
  for (ClusterId c = 0; c < ca.num_clusters(); ++c) {
    ASSERT_EQ(ca.center_of(c), cb.center_of(c)) << label << " c=" << c;
    ASSERT_EQ(ca.color_of(c), cb.color_of(c)) << label << " c=" << c;
  }
  EXPECT_EQ(a.run.carve.carved_per_phase, b.run.carve.carved_per_phase)
      << label;
  // The relabeled run is the same distributed computation on renamed
  // processors: its traffic must match exactly, round by round.
  EXPECT_EQ(a.sim.rounds, b.sim.rounds) << label;
  EXPECT_EQ(a.sim.messages, b.sim.messages) << label;
  EXPECT_EQ(a.sim.words, b.sim.words) << label;
  EXPECT_EQ(a.sim.messages_per_round, b.sim.messages_per_round) << label;
}

TEST(Relabel, ClusteringBitIdenticalWithAndWithoutRelabeling) {
  for (const int theorem : {1, 2, 3}) {
    for (const char* family : {"gnp", "ring", "rgg"}) {
      const Graph g = make_family(family, 96, 7);
      const CarveSchedule schedule = schedule_for(theorem, 96);
      const std::uint64_t seed = 1234 + static_cast<std::uint64_t>(theorem);
      const DistributedRun plain =
          run_schedule_distributed(g, schedule, seed);
      const LayoutGraph relabeled = make_layout_graph(g, bfs_layout(g));
      const DistributedRun laid =
          run_schedule_distributed(relabeled, schedule, seed);
      expect_identical(plain, laid,
                       std::string("T") + std::to_string(theorem) + " " +
                           family);
    }
  }
}

TEST(Relabel, RelabelingComposesWithShardedThreads) {
  const Graph g = make_family("rgg", 120, 3);
  const CarveSchedule schedule = schedule_for(1, 120);
  const DistributedRun baseline = run_schedule_distributed(g, schedule, 99);
  const LayoutGraph relabeled = make_layout_graph(g, bfs_layout(g));
  for (const unsigned threads : {2u, 7u}) {
    EngineOptions engine;
    engine.threads = threads;
    const DistributedRun run =
        run_schedule_distributed(relabeled, schedule, 99, engine);
    expect_identical(baseline, run,
                     "threads=" + std::to_string(threads));
  }
}

TEST(Relabel, GridBucketLayoutMatchesPlainRunOnRgg) {
  const GeometricGraph gg = make_rgg_geometric(400, 0.08, 11);
  const CarveSchedule schedule = schedule_for(1, 400);
  const DistributedRun plain =
      run_schedule_distributed(gg.graph, schedule, 21);
  const LayoutGraph relabeled = make_layout_graph(
      gg.graph, grid_bucket_layout(gg.x, gg.y, 12));
  const DistributedRun laid =
      run_schedule_distributed(relabeled, schedule, 21);
  expect_identical(plain, laid, "rgg grid-bucket");
}

}  // namespace
}  // namespace dsnd
