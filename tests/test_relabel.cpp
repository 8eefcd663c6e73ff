// Cache-aware relabeling: the Permutation must be a checked bijection
// with exact round-trips, apply_layout must preserve the topology, and —
// the contract the perf work rests on — a carving run on a relabeled
// graph must be BIT-IDENTICAL to the run on the original labeling, for
// every theorem schedule, graph family, and engine thread count.
// apply_layout must also build exactly the graph the reference relabeling
// (tests/reference_kernels.hpp) builds.
#include "graph/relabel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "reference_kernels.hpp"
#include "simulator/transport.hpp"

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

Permutation random_layout(VertexId n, std::uint64_t seed) {
  std::vector<VertexId> to_new(static_cast<std::size_t>(n));
  std::iota(to_new.begin(), to_new.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(to_new.begin(), to_new.end(), rng);
  return Permutation::from_to_new(std::move(to_new));
}

TEST(Relabel, ApplyLayoutEqualsReference) {
  const GeometricGraph rgg = make_rgg_geometric(3000, 0.03, 8);
  const Graph gnp = make_gnp(2000, 0.004, 9);
  const Graph hyperbolic = family_by_name("hyperbolic").make(2000, 10);
  for (const auto& [label, g] :
       {std::pair<const char*, const Graph*>{"rgg", &rgg.graph},
        {"gnp", &gnp},
        {"hyperbolic", &hyperbolic}}) {
    std::vector<std::pair<std::string, Permutation>> layouts;
    layouts.emplace_back("identity", Permutation::identity(g->num_vertices()));
    layouts.emplace_back("bfs", bfs_layout(*g));
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      layouts.emplace_back("random " + std::to_string(seed),
                           random_layout(g->num_vertices(), seed));
    }
    for (const auto& [name, layout] : layouts) {
      const Graph relabeled = apply_layout(*g, layout);
      EXPECT_EQ(relabeled, reference_apply_layout(*g, layout))
          << label << " " << name;
      // Undoing the layout gives back g.
      EXPECT_EQ(apply_layout(relabeled, layout.inverse()), *g)
          << label << " " << name;
    }
  }
  for (const std::int32_t cells : {1, 7, 33}) {
    const Permutation layout = grid_bucket_layout(rgg.x, rgg.y, cells);
    EXPECT_EQ(apply_layout(rgg.graph, layout),
              reference_apply_layout(rgg.graph, layout))
        << "grid-bucket cells=" << cells;
  }
  const Graph edgeless = Graph::from_edges(5, {});
  const Permutation shuffled = random_layout(5, 4);
  EXPECT_EQ(apply_layout(edgeless, shuffled), edgeless);
  EXPECT_EQ(apply_layout(edgeless, shuffled),
            reference_apply_layout(edgeless, shuffled));
  const Graph empty = apply_layout(Graph(), Permutation::identity(0));
  EXPECT_EQ(empty.num_vertices(), 0);
  EXPECT_EQ(empty, reference_apply_layout(Graph(), Permutation::identity(0)));
  EXPECT_THROW(apply_layout(edgeless, Permutation::identity(4)),
               std::invalid_argument);
}

TEST(Relabel, ApplyLayoutRefusesAnAsymmetricGraph) {
  // from_csr does not check symmetry. Rows 0, 1 and 2 list 1, 2 and 1:
  // the fill appends 0 and 2 to row 1, which has room for its degree, one
  // entry. It must stop at the row's end instead of writing past it.
  const Graph asymmetric = Graph::from_csr({0, 1, 2, 3}, {1, 2, 1});
  EXPECT_THROW(apply_layout(asymmetric, Permutation::identity(3)),
               std::logic_error);
}

TEST(Relabel, ApplyLayoutRejectsOutOfRangeEntries) {
  // A Permutation built field by field is not checked; apply_layout must
  // refuse its out-of-range entries rather than index with them.
  const Graph path = make_path(3);
  EXPECT_THROW(apply_layout(path, Permutation{{0, 7, 2}, {0, 1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(apply_layout(path, Permutation{{0, 1, 2}, {0, -1, 2}}),
               std::invalid_argument);
}

TEST(Relabel, LossyLayoutContextValidatesOnTheRebuiltOriginal) {
  // On a lossy transport a layout CarveContext validates every attempt
  // against the original graph, rebuilt as apply_layout of the inverse
  // layout. That graph must be the original, and a run it accepts must
  // pass the reference validator on the original graph.
  const GeometricGraph rgg = make_rgg_geometric(600, 0.07, 12);
  const LayoutGraph lg =
      make_layout_graph(rgg.graph, grid_bucket_layout(rgg.x, rgg.y, 14));
  const Graph rebuilt = apply_layout(lg.graph, lg.layout.inverse());
  EXPECT_EQ(rebuilt, rgg.graph);
  EXPECT_EQ(rebuilt, reference_apply_layout(lg.graph, lg.layout.inverse()));

  const CarveSchedule schedule = theorem1_schedule(600, 4, 4.0);
  int accepted = 0;
  for (const std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
    FaultPlan plan;
    plan.seed = 41 * seed;
    plan.drop_rate = 0.02;
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.transport = &transport;
    const DistributedRun run =
        run_schedule_distributed(lg, schedule, seed, engine);
    if (run.run.carve.status != CarveStatus::kOk) continue;
    ++accepted;
    EXPECT_TRUE(reference_validate_decomposition_fast(rgg.graph,
                                                      run.run.clustering())
                    .is_strong_decomposition(schedule.bounds.strong_diameter))
        << "seed=" << seed;
  }
  EXPECT_GT(accepted, 0);
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
