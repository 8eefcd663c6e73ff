// The property/determinism layer for the scale-free generators: the
// stream-split RNG contract (bit-identical output for every chunk
// count, including "hardware concurrency"), agreement with a brute
// force O(n^2) reference for the hyperbolic bucketing, heavy-tail
// shape checks via the degree-stats summary, and — matrix style, like
// test_distributed_parity — engine-thread invariance and parity of
// carves with the dense reference carver on the new families.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "graph/validator.hpp"
#include "reference_carver.hpp"

namespace dsnd {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7, 42};
// 7 does not divide typical sizes — uneven chunks; 0 = hardware
// concurrency, whatever it is on the test machine.
constexpr unsigned kChunkCounts[] = {2, 4, 7, 0};

TEST(ScaleFree, HyperbolicBitIdenticalAcrossChunkCounts) {
  for (const std::uint64_t seed : kSeeds) {
    const HyperbolicGraph base =
        make_hyperbolic_geometric(3000, 8.0, 2.8, seed, 1);
    for (const unsigned threads : kChunkCounts) {
      const HyperbolicGraph other =
          make_hyperbolic_geometric(3000, 8.0, 2.8, seed, threads);
      const std::string label =
          "seed=" + std::to_string(seed) + " threads=" +
          std::to_string(threads);
      EXPECT_TRUE(other.graph == base.graph) << label;
      EXPECT_EQ(other.radius, base.radius) << label;
      EXPECT_EQ(other.angle, base.angle) << label;
      EXPECT_EQ(other.disk_radius, base.disk_radius) << label;
    }
  }
}

TEST(ScaleFree, KroneckerBitIdenticalAcrossChunkCounts) {
  for (const std::uint64_t seed : kSeeds) {
    const Graph base = make_kronecker(11, 8, seed, 1);
    for (const unsigned threads : kChunkCounts) {
      EXPECT_TRUE(make_kronecker(11, 8, seed, threads) == base)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ScaleFree, BarabasiAlbertBitIdenticalAcrossChunkCounts) {
  for (const std::uint64_t seed : kSeeds) {
    const Graph base = make_barabasi_albert(4000, 4, seed, 1);
    for (const unsigned threads : kChunkCounts) {
      EXPECT_TRUE(make_barabasi_albert(4000, 4, seed, threads) == base)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ScaleFree, BarabasiAlbertShapeAndTail) {
  const Graph g = make_barabasi_albert(20000, 4, 1, 4);
  EXPECT_EQ(g.num_vertices(), 20000);
  // nm slots minus self-attachments and duplicate picks: just under nm
  // undirected edges.
  EXPECT_GT(g.num_edges(), 20000 * 3);
  EXPECT_LE(g.num_edges(), 20000 * 4);
  const DegreeStats stats = degree_stats(g);
  // Preferential attachment's signature: hubs far above the ~2m mean
  // and the textbook alpha ~= 3 tail exponent.
  EXPECT_GT(stats.max_degree, static_cast<VertexId>(20 * stats.mean_degree));
  EXPECT_GT(stats.powerlaw_alpha, 2.2);
  EXPECT_LT(stats.powerlaw_alpha, 3.8);
}

TEST(ScaleFree, BarabasiAlbertIsAlwaysConnected) {
  // The first-slot self-draw fallback guarantees every vertex an edge
  // to an earlier one — the connectivity property of the classic
  // sequential construction, which downstream callers rely on.
  for (const std::uint64_t seed : kSeeds) {
    EXPECT_TRUE(is_connected(make_barabasi_albert(3000, 4, seed, 4)))
        << "seed=" << seed;
    EXPECT_TRUE(is_connected(make_barabasi_albert(500, 1, seed, 2)))
        << "m=1 seed=" << seed;
  }
}

TEST(ScaleFree, GeneratorsAreSeedSensitive) {
  EXPECT_FALSE(make_hyperbolic(2000, 8.0, 2.8, 1) ==
               make_hyperbolic(2000, 8.0, 2.8, 2));
  EXPECT_FALSE(make_kronecker(10, 8, 1) == make_kronecker(10, 8, 2));
  EXPECT_FALSE(make_barabasi_albert(2000, 4, 1) ==
               make_barabasi_albert(2000, 4, 2));
}

TEST(ScaleFree, HyperbolicMatchesBruteForceNeighborhoods) {
  // The annulus-bucketed edge scan must reproduce the O(n^2) threshold
  // rule exactly: {i, j} is an edge iff the hyperbolic distance is at
  // most the disk radius.
  for (const std::uint64_t seed : {3ULL, 9ULL}) {
    const HyperbolicGraph h =
        make_hyperbolic_geometric(600, 8.0, 2.8, seed, 4);
    const double cosh_disk = std::cosh(h.disk_radius);
    std::set<std::pair<VertexId, VertexId>> expected;
    for (VertexId i = 0; i < 600; ++i) {
      for (VertexId j = i + 1; j < 600; ++j) {
        const auto iu = static_cast<std::size_t>(i);
        const auto ju = static_cast<std::size_t>(j);
        const double cosh_d =
            std::cosh(h.radius[iu]) * std::cosh(h.radius[ju]) -
            std::sinh(h.radius[iu]) * std::sinh(h.radius[ju]) *
                std::cos(h.angle[iu] - h.angle[ju]);
        if (cosh_d <= cosh_disk) expected.insert({i, j});
      }
    }
    std::set<std::pair<VertexId, VertexId>> actual;
    h.graph.for_each_edge(
        [&actual](VertexId u, VertexId v) { actual.insert({u, v}); });
    EXPECT_EQ(actual, expected) << "seed=" << seed;
  }
}

TEST(ScaleFree, HyperbolicDegreeDistributionIsHeavyTailed) {
  const Graph g = make_hyperbolic(20000, 8.0, 2.8, 1, 4);
  const DegreeStats stats = degree_stats(g);
  // Mean degree lands near the target (the GPP asymptotics are only
  // asymptotic, so the window is generous).
  EXPECT_GT(stats.mean_degree, 4.0);
  EXPECT_LT(stats.mean_degree, 16.0);
  // Power-law tail: hub degrees far above the mean, and the MLE
  // exponent in the plausible window around the configured gamma = 2.8.
  EXPECT_GT(stats.max_degree, static_cast<VertexId>(20 * stats.mean_degree));
  EXPECT_GT(stats.powerlaw_alpha, 2.0);
  EXPECT_LT(stats.powerlaw_alpha, 3.6);
}

TEST(ScaleFree, KroneckerShapeAndTail) {
  const Graph g = make_kronecker(13, 8, 1, 4);
  EXPECT_EQ(g.num_vertices(), 8192);
  // Sampling 8n directed edges, minus self-loops and duplicates, keeps
  // the undirected count well below 8n but of that order.
  EXPECT_GT(g.num_edges(), 8192 * 3);
  EXPECT_LE(g.num_edges(), 8192 * 8);
  const DegreeStats stats = degree_stats(g);
  EXPECT_GT(stats.max_degree, static_cast<VertexId>(10 * stats.mean_degree));
  // The R-MAT initiator leaves a large cold corner of the id space.
  EXPECT_GT(stats.isolated_vertices, 0);
}

TEST(ScaleFree, GeneratorsRejectInvalidParameters) {
  EXPECT_THROW(make_hyperbolic(1, 8.0, 2.8, 1), std::invalid_argument);
  EXPECT_THROW(make_hyperbolic(100, 0.0, 2.8, 1), std::invalid_argument);
  EXPECT_THROW(make_hyperbolic(100, 8.0, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(make_kronecker(0, 8, 1), std::invalid_argument);
  EXPECT_THROW(make_kronecker(31, 8, 1), std::invalid_argument);
  EXPECT_THROW(make_kronecker(10, 0, 1), std::invalid_argument);
}

TEST(ScaleFree, RegisteredFamiliesProduceValidGraphs) {
  for (const char* family : {"hyperbolic", "kronecker", "ba"}) {
    const Graph g = family_by_name(family).make(2048, 9);
    const GraphCheckReport report = check_graph(g);
    EXPECT_TRUE(report.ok())
        << family << ":\n" << format_report(report);
  }
}

TEST(ScaleFree, CarvesAreEngineThreadInvariant) {
  // Matrix in the style of test_distributed_parity's shard-invariance
  // acceptance: theorem x scale-free family x engine thread count must
  // reproduce the serial run bit-for-bit — hub-heavy inboxes are
  // exactly where a sharded delivery bug would show first.
  for (const int theorem : {1, 2, 3}) {
    for (const char* family : {"hyperbolic", "kronecker"}) {
      const Graph g = family_by_name(family).make(1024, 5);
      const std::uint64_t seed = 17 * static_cast<std::uint64_t>(theorem);
      const VertexId n = g.num_vertices();
      const CarveSchedule schedule = theorem == 1   ? theorem1_schedule(n, 4)
                                     : theorem == 2 ? theorem2_schedule(n, 3)
                                                    : theorem3_schedule(n, 3);
      DistributedRun runs[4];
      const unsigned thread_counts[] = {1, 2, 4, 7};
      for (std::size_t i = 0; i < 4; ++i) {
        EngineOptions engine;
        engine.threads = thread_counts[i];
        runs[i] = run_schedule_distributed(g, schedule, seed, engine);
      }
      for (std::size_t i = 1; i < 4; ++i) {
        const std::string label = std::string("T") +
                                  std::to_string(theorem) + " " + family +
                                  " threads=" +
                                  std::to_string(thread_counts[i]);
        ASSERT_EQ(runs[i].run.carve.phases_used,
                  runs[0].run.carve.phases_used)
            << label;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(runs[i].run.clustering().cluster_of(v),
                    runs[0].run.clustering().cluster_of(v))
              << label << " v=" << v;
        }
        EXPECT_EQ(runs[i].sim.messages, runs[0].sim.messages) << label;
        EXPECT_EQ(runs[i].sim.words, runs[0].sim.words) << label;
      }
    }
  }
}

TEST(ScaleFree, DistributedMatchesCentralizedOnScaleFreeFamilies) {
  for (const char* family : {"hyperbolic", "kronecker"}) {
    for (const std::uint64_t seed : kSeeds) {
      const Graph g = family_by_name(family).make(1024, seed);
      const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4);
      const DistributedRun dist =
          run_schedule_distributed(g, schedule, seed * 613 + 11);
      const std::string label =
          std::string(family) + " seed=" + std::to_string(seed);
      EXPECT_EQ(carve_decomposition(g, schedule, seed * 613 + 11),
                dist.run.carve)
          << label;
      EXPECT_LE(dist.sim.max_message_words, kCarveProtocolMaxWords)
          << label;
    }
  }
}

}  // namespace
}  // namespace dsnd
