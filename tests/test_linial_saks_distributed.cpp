#include <gtest/gtest.h>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/linial_saks.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(LsDistributed, BitIdenticalToCentralized) {
  for (const char* family :
       {"grid", "cycle", "gnp-sparse", "random-tree", "ring-of-cliques"}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      const Graph g = family_by_name(family).make(96, seed);
      LinialSaksOptions options;
      options.k = 4;
      options.seed = seed;
      const DecompositionRun central =
          linial_saks_decomposition(g, options);
      const DistributedRun dist = linial_saks_distributed(g, options);
      ASSERT_EQ(dist.run.carve.phases_used, central.carve.phases_used)
          << family << " seed=" << seed;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(dist.run.clustering().cluster_of(v),
                  central.clustering().cluster_of(v))
            << family << " seed=" << seed << " v=" << v;
      }
      for (ClusterId c = 0; c < central.clustering().num_clusters(); ++c) {
        ASSERT_EQ(dist.run.clustering().center_of(c),
                  central.clustering().center_of(c));
        ASSERT_EQ(dist.run.clustering().color_of(c),
                  central.clustering().color_of(c));
      }
    }
  }
}

TEST(LsDistributed, IdenticalAcrossThreadCounts) {
  // At 5k vertices the first phases' live lists exceed RoundPool's
  // parallel cutoff, so the radii are drawn chunk-parallel on the pool
  // and every worker joins its vertices into the shared record.
  for (const char* family : {"rgg", "gnp-sparse", "hyperbolic"}) {
    const Graph g = family_by_name(family).make(5000, 1);
    LinialSaksOptions options;
    options.seed = 7;
    const DecompositionRun central = linial_saks_decomposition(g, options);
    DistributedRun serial;
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      EngineOptions engine;
      engine.threads = threads;
      const DistributedRun dist = linial_saks_distributed(g, options, engine);
      // Every cluster_of, center and color.
      EXPECT_TRUE(dist.run.clustering() == central.clustering())
          << family << " threads=" << threads;
      EXPECT_EQ(dist.run.carve.carved_per_phase,
                central.carve.carved_per_phase)
          << family << " threads=" << threads;
      EXPECT_EQ(dist.run.carve.max_sampled_radius,
                central.carve.max_sampled_radius)
          << family << " threads=" << threads;
      if (threads == 1) {
        serial = dist;
        continue;
      }
      EXPECT_EQ(dist.sim.messages_per_round, serial.sim.messages_per_round)
          << family << " threads=" << threads;
      EXPECT_EQ(dist.sim.words, serial.sim.words)
          << family << " threads=" << threads;
    }
  }
}

TEST(LsDistributed, MessagesAreCongestWidth) {
  const Graph g = make_gnp(100, 0.06, 5);
  LinialSaksOptions options;
  options.k = 4;
  options.seed = 5;
  const DistributedRun dist = linial_saks_distributed(g, options);
  EXPECT_LE(dist.sim.max_message_words, kLsProtocolMaxWords);
  EXPECT_GT(dist.sim.messages, 0u);
}

TEST(LsDistributed, RoundsMatchAccounting) {
  const Graph g = make_grid2d(8, 8);
  LinialSaksOptions options;
  options.k = 3;
  options.seed = 9;
  const DistributedRun dist = linial_saks_distributed(g, options);
  EXPECT_EQ(static_cast<std::int64_t>(dist.sim.rounds),
            dist.run.carve.rounds);
}

TEST(LsDistributed, HigherTrafficThanElkinNeiman) {
  // The frontier rule sends up to k entries per edge per round while the
  // shifted-exponential rule sends at most 2 — the CONGEST advantage the
  // paper's technique brings. Compare total words on the same graph over
  // several seeds (individual runs have different phase counts, so
  // normalize per round).
  const Graph g = make_gnp(128, 0.08, 3);
  double ls_words_per_round = 0.0;
  double en_words_per_round = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    LinialSaksOptions ls;
    ls.k = 5;
    ls.seed = seed;
    const DistributedRun ls_run = linial_saks_distributed(g, ls);
    ls_words_per_round += static_cast<double>(ls_run.sim.words) /
                          static_cast<double>(ls_run.sim.rounds);
    const DistributedRun en_run = run_schedule_distributed(
        g, theorem1_schedule(g.num_vertices(), 5), seed);
    en_words_per_round += static_cast<double>(en_run.sim.words) /
                          static_cast<double>(en_run.sim.rounds);
  }
  EXPECT_GT(ls_words_per_round, en_words_per_round);
}

TEST(LsDistributed, SingleVertex) {
  const Graph g = make_path(1);
  const DistributedRun dist =
      linial_saks_distributed(g, LinialSaksOptions{});
  EXPECT_TRUE(dist.run.clustering().is_complete());
  EXPECT_EQ(dist.sim.messages, 0u);
}

}  // namespace
}  // namespace dsnd
