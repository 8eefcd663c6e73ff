#include <gtest/gtest.h>

#include <stdexcept>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/linial_saks.hpp"
#include "graph/generators.hpp"
#include "reference_carver.hpp"
#include "simulator/transport.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

TEST(LsDistributed, BitIdenticalToOracle) {
  // The protocol's whole CarveResult (clustering, phases, per-phase
  // counts, rounds, the radius maximum) equals the BFS-claim oracle's,
  // and linial_saks_decomposition is the protocol's run.
  for (const char* family :
       {"grid", "cycle", "gnp-sparse", "random-tree", "ring-of-cliques"}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      SCOPED_TRACE(::testing::Message() << family << " seed=" << seed);
      const Graph g = family_by_name(family).make(96, seed);
      LinialSaksOptions options;
      options.k = 4;
      options.seed = seed;
      const DistributedRun dist = linial_saks_distributed(g, options);
      EXPECT_EQ(dist.run.carve, reference_linial_saks(g, options));
      const DecompositionRun run = linial_saks_decomposition(g, options);
      EXPECT_EQ(run.carve, dist.run.carve);
      EXPECT_EQ(run.bounds.strong_diameter, dist.run.bounds.strong_diameter);
      EXPECT_EQ(run.bounds.colors, dist.run.bounds.colors);
      EXPECT_EQ(run.k, dist.run.k);
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
    const CarveResult oracle = reference_linial_saks(g, options);
    DistributedRun serial;
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      SCOPED_TRACE(::testing::Message() << family << " threads=" << threads);
      EngineOptions engine;
      engine.threads = threads;
      const DistributedRun dist = linial_saks_distributed(g, options, engine);
      EXPECT_EQ(dist.run.carve, oracle);
      if (threads == 1) {
        serial = dist;
        continue;
      }
      EXPECT_EQ(dist.sim.messages_per_round, serial.sim.messages_per_round);
      EXPECT_EQ(dist.sim.words, serial.sim.words);
    }
  }
}

TEST(LsDistributed, MatchesOracleOnEveryFamily) {
  // Every standard family at tiny and mid sizes, every k regime (auto,
  // k = 1 lifted to 2, small and larger caps), two seeds, one and three
  // threads: whole CarveResult equality.
  for (const GraphFamily& family : standard_families()) {
    for (const VertexId n : {1, 2, 7, 300}) {
      for (const std::int32_t k : {0, 1, 2, 3, 5}) {
        for (const std::uint64_t seed : {1ULL, 2ULL}) {
          const Graph g = family.make(n, seed);
          LinialSaksOptions options;
          options.k = k;
          options.seed = seed;
          const CarveResult oracle = reference_linial_saks(g, options);
          for (const unsigned threads : {1u, 3u}) {
            EngineOptions engine;
            engine.threads = threads;
            ASSERT_EQ(linial_saks_distributed(g, options, engine).run.carve,
                      oracle)
                << family.name << " n=" << n << " k=" << k
                << " seed=" << seed << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(LsDistributed, TrafficPinned) {
  // The clustering does not see how much the frontier floods: a frontier
  // that kept entries dominated by a smaller id with equal range carves
  // the same clusters with far more messages. Recorded values, the
  // per-round series as a mix_word digest.
  struct Pin {
    const char* family;
    std::size_t rounds;
    std::uint64_t messages;
    std::uint64_t words;
    std::uint64_t per_round_digest;
  };
  for (const Pin& pin :
       {Pin{"grid", 305, 17744, 48272, 0xd448149076a94fa7ULL},
        Pin{"gnp-sparse", 305, 35200, 104374, 0x14a298ac50799510ULL},
        Pin{"rgg", 305, 44063, 128756, 0xf92db580a19300dbULL},
        Pin{"hyperbolic", 400, 117701, 413576, 0x8f616537f5af2f43ULL},
        Pin{"ba", 305, 81517, 278788, 0x9fae5b8c40553fe1ULL}}) {
    SCOPED_TRACE(pin.family);
    const Graph g = family_by_name(pin.family).make(2000, 3);
    LinialSaksOptions options;
    options.k = 4;
    options.seed = 11;
    const DistributedRun dist = linial_saks_distributed(g, options);
    EXPECT_EQ(dist.sim.rounds, pin.rounds);
    EXPECT_EQ(dist.sim.messages, pin.messages);
    EXPECT_EQ(dist.sim.words, pin.words);
    std::uint64_t digest = 0;
    for (const std::uint64_t m : dist.sim.messages_per_round) {
      digest = mix_word(digest, m);
    }
    EXPECT_EQ(digest, pin.per_round_digest);
  }
}

TEST(LsDistributed, RefusesLossyTransport) {
  // Nothing validates or recovers a Linial–Saks run, so a transport that
  // can lose traffic is refused; a zero-fault plan is a plain relay.
  const Graph g = family_by_name("gnp-sparse").make(200, 4);
  LinialSaksOptions options;
  options.k = 4;
  options.seed = 3;
  const DistributedRun reliable = linial_saks_distributed(g, options);

  FaultPlan drops;
  drops.seed = 5;
  drops.drop_rate = 0.05;
  FaultyTransport lossy(drops);
  EngineOptions lossy_engine;
  lossy_engine.transport = &lossy;
  EXPECT_THROW(linial_saks_distributed(g, options, lossy_engine),
               std::invalid_argument);

  FaultyTransport zero((FaultPlan()));
  EngineOptions zero_engine;
  zero_engine.transport = &zero;
  const DistributedRun relayed = linial_saks_distributed(g, options,
                                                         zero_engine);
  EXPECT_EQ(relayed.run.carve, reliable.run.carve);
  EXPECT_EQ(relayed.sim.messages_per_round, reliable.sim.messages_per_round);
  EXPECT_EQ(relayed.sim.words, reliable.sim.words);
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
