#include "apps/mis_distributed.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/checkers.hpp"
#include "apps/mis.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "simulator/transport.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

/// An Elkin–Neiman run guaranteed usable by the pipeline (no radius
/// overflow, so clusters are connected with radius <= k-1 and the phase
/// coloring is proper); scans seeds until one qualifies.
DecompositionRun usable_run(const Graph& g, std::int32_t k,
                            std::uint64_t base_seed) {
  for (std::uint64_t seed = base_seed; seed < base_seed + 50; ++seed) {
    DecompositionRun run =
        run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);
    if (!run.carve.radius_overflow) return run;
  }
  throw std::runtime_error("no overflow-free run found");
}

TEST(MisPipeline, MatchesCentralizedPipelineExactly) {
  for (const char* family :
       {"grid", "cycle", "gnp-sparse", "random-tree", "ring-of-cliques"}) {
    const Graph g = family_by_name(family).make(96, 3);
    const std::int32_t k = 4;
    const DecompositionRun run = usable_run(g, k, 1);
    const MisResult central = mis_by_decomposition(g, run.clustering());
    const DistributedMisResult dist =
        mis_distributed_pipeline(g, run.clustering(), k);
    EXPECT_EQ(dist.in_mis, central.in_mis) << family;
    EXPECT_TRUE(is_maximal_independent_set(g, dist.in_mis)) << family;
  }
}

TEST(MisPipeline, CountsPinned) {
  // Recorded values, the per-round series as a mix_word digest. Messages,
  // words and widths date from when the engine ran every vertex every
  // round, activations from the first self-waking pipeline; rounds and
  // the digest were re-recorded when the pipeline gave windows only to
  // the colors in use.
  struct Pin {
    const char* family;
    std::size_t rounds;
    std::uint64_t messages;
    std::uint64_t words;
    std::size_t max_message_words;
    std::uint64_t vertex_activations;
    std::uint64_t per_round_digest;
  };
  for (const Pin& pin :
       {Pin{"grid", 541, 4307, 11080, 24, 7329, 0xf3b14407a7bbaffcULL},
        Pin{"gnp-sparse", 541, 6967, 21858, 63, 9301, 0xb9c471cc9dba1afcULL},
        Pin{"rgg", 583, 11536, 73185, 44, 10512, 0x2642c28dc04e7ef4ULL}}) {
    SCOPED_TRACE(pin.family);
    const Graph g = family_by_name(pin.family).make(1000, 3);
    const std::int32_t k = 4;
    const DecompositionRun run = usable_run(g, k, 1);
    const DistributedMisResult dist =
        mis_distributed_pipeline(g, run.clustering(), k);
    EXPECT_EQ(dist.in_mis, mis_by_decomposition(g, run.clustering()).in_mis);
    EXPECT_EQ(dist.sim.status, RunStatus::kFinished);
    EXPECT_EQ(dist.sim.rounds, pin.rounds);
    EXPECT_EQ(dist.sim.messages, pin.messages);
    EXPECT_EQ(dist.sim.words, pin.words);
    EXPECT_EQ(dist.sim.max_message_words, pin.max_message_words);
    ASSERT_EQ(dist.sim.messages_per_round.size(), pin.rounds);
    std::uint64_t digest = 0;
    for (const std::uint64_t m : dist.sim.messages_per_round) {
      digest = mix_word(digest, m);
    }
    EXPECT_EQ(digest, pin.per_round_digest);
    EXPECT_EQ(dist.sim.vertex_activations, pin.vertex_activations);
  }
}

TEST(MisPipeline, ThreadCountInvariant) {
  // Far-future self-wakes (a vertex of the last color class wakes
  // hundreds of rounds ahead) land in every shard's calendar, and the
  // unicasts to parents and children go out of row order (runs of one
  // found by binary search). The answer and every engine count must not
  // depend on the shard count, including shard widths that do not
  // divide n (3 and 7).
  for (const VertexId n : {96, 500}) {
    for (const char* family :
         {"grid", "cycle", "gnp-sparse", "random-tree", "ring-of-cliques"}) {
      const Graph g = family_by_name(family).make(n, 3);
      const std::int32_t k = 4;
      const DecompositionRun run = usable_run(g, k, 1);
      const DistributedMisResult serial =
          mis_distributed_pipeline(g, run.clustering(), k);
      ASSERT_TRUE(is_maximal_independent_set(g, serial.in_mis)) << family;
      for (const unsigned threads : {2u, 3u, 4u, 7u}) {
        SCOPED_TRACE(::testing::Message() << family << " n=" << n
                                          << " threads=" << threads);
        EngineOptions engine;
        engine.threads = threads;
        const DistributedMisResult dist =
            mis_distributed_pipeline(g, run.clustering(), k, engine);
        EXPECT_EQ(dist.in_mis, serial.in_mis);
        EXPECT_EQ(dist.sim.rounds, serial.sim.rounds);
        EXPECT_EQ(dist.sim.messages, serial.sim.messages);
        EXPECT_EQ(dist.sim.words, serial.sim.words);
        EXPECT_EQ(dist.sim.max_message_words, serial.sim.max_message_words);
        EXPECT_EQ(dist.sim.messages_per_round, serial.sim.messages_per_round);
        EXPECT_EQ(dist.sim.vertex_activations, serial.sim.vertex_activations);
        EXPECT_EQ(dist.sim.status, serial.sim.status);
        EXPECT_EQ(dist.sim.faults, serial.sim.faults);
      }
    }
  }
}

TEST(MisPipeline, RoundsAreClassesTimesBudget) {
  const Graph g = make_grid2d(10, 10);
  const std::int32_t k = 4;
  const DecompositionRun run = usable_run(g, k, 2);
  const DistributedMisResult dist =
      mis_distributed_pipeline(g, run.clustering(), k);
  EXPECT_EQ(dist.rounds_per_class, 3 * k + 2);
  // One window per color in use, not per color index up to the largest.
  EXPECT_EQ(dist.classes,
            mis_by_decomposition(g, run.clustering()).cost.color_classes);
  EXPECT_LT(dist.classes, run.clustering().num_colors());
  // The engine stops as soon as the last class decides, which happens
  // within the final class's budget.
  EXPECT_LE(dist.sim.rounds,
            static_cast<std::size_t>(dist.classes) *
                static_cast<std::size_t>(dist.rounds_per_class));
  EXPECT_GT(dist.sim.rounds,
            static_cast<std::size_t>(dist.classes - 1) *
                static_cast<std::size_t>(dist.rounds_per_class));
}

TEST(MisPipeline, RefusesLossyTransport) {
  // Nothing in the pipeline recovers a lost message, so a transport that
  // can lose traffic is refused; a zero-fault plan is a plain relay.
  const Graph g = make_gnp(120, 0.05, 2);
  const std::int32_t k = 4;
  const DecompositionRun run = usable_run(g, k, 2);
  const DistributedMisResult reliable =
      mis_distributed_pipeline(g, run.clustering(), k);

  FaultPlan drops;
  drops.seed = 5;
  drops.drop_rate = 0.05;
  FaultyTransport lossy(drops);
  EngineOptions lossy_engine;
  lossy_engine.transport = &lossy;
  EXPECT_THROW(mis_distributed_pipeline(g, run.clustering(), k, lossy_engine),
               std::invalid_argument);

  FaultyTransport zero((FaultPlan()));
  EngineOptions zero_engine;
  zero_engine.transport = &zero;
  const DistributedMisResult relayed =
      mis_distributed_pipeline(g, run.clustering(), k, zero_engine);
  EXPECT_EQ(relayed.in_mis, reliable.in_mis);
  EXPECT_EQ(relayed.sim.messages_per_round, reliable.sim.messages_per_round);
  EXPECT_EQ(relayed.sim.words, reliable.sim.words);
}

TEST(MisPipeline, LocalModelMessagesAreWide) {
  // Convergecast payloads carry whole subtree topologies: this is the
  // LOCAL model, and message widths reflect it (contrast: the carving
  // protocol's 4-word CONGEST messages).
  const Graph g = make_gnp(128, 0.08, 7);
  const std::int32_t k = 4;
  const DecompositionRun run = usable_run(g, k, 7);
  const DistributedMisResult dist =
      mis_distributed_pipeline(g, run.clustering(), k);
  EXPECT_GT(dist.sim.max_message_words, 4u);
  EXPECT_TRUE(is_maximal_independent_set(g, dist.in_mis));
}

TEST(MisPipeline, ValidAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = make_gnp(120, 0.05, seed);
    const std::int32_t k = 4;
    const DecompositionRun run = usable_run(g, k, seed);
    const DistributedMisResult dist =
        mis_distributed_pipeline(g, run.clustering(), k);
    EXPECT_TRUE(is_maximal_independent_set(g, dist.in_mis))
        << "seed=" << seed;
  }
}

TEST(MisPipeline, SingletonClustersWork) {
  // k = 1 gives all-singleton clusters; the pipeline degenerates to
  // sequential-by-color greedy.
  const Graph g = make_cycle(24);
  const DecompositionRun run = usable_run(g, 1, 4);
  const DistributedMisResult dist =
      mis_distributed_pipeline(g, run.clustering(), 1);
  EXPECT_TRUE(is_maximal_independent_set(g, dist.in_mis));
}

TEST(MisPipeline, RejectsBadInputs) {
  const Graph g = make_path(6);
  Clustering incomplete(6);
  incomplete.add_cluster(0, 0);
  EXPECT_THROW(mis_distributed_pipeline(g, incomplete, 2),
               std::invalid_argument);

  // Improper coloring: two adjacent clusters sharing a color.
  Clustering improper(6);
  const ClusterId a = improper.add_cluster(0, 0);
  const ClusterId b = improper.add_cluster(3, 0);
  for (VertexId v = 0; v < 3; ++v) improper.assign(v, a);
  for (VertexId v = 3; v < 6; ++v) improper.assign(v, b);
  EXPECT_THROW(mis_distributed_pipeline(g, improper, 3),
               std::invalid_argument);
}

TEST(MisPipeline, ClusterBeyondRadiusBoundThrows) {
  // A member the tree cannot reach within k - 1 steps never ships its
  // record, so it is never decided; the pipeline must throw rather than
  // return an answer. Cases: a 6-path cluster with k = 2 (radius 5), a
  // 3-path cluster with k = 2 (radius exactly k), and a disconnected
  // cluster {0, 2} around {1}.
  Clustering wide(6);
  const ClusterId whole = wide.add_cluster(0, 0);
  for (VertexId v = 0; v < 6; ++v) wide.assign(v, whole);
  EXPECT_THROW(mis_distributed_pipeline(make_path(6), wide, 2),
               std::logic_error);

  Clustering radius_k(3);
  const ClusterId path = radius_k.add_cluster(0, 0);
  for (VertexId v = 0; v < 3; ++v) radius_k.assign(v, path);
  EXPECT_THROW(mis_distributed_pipeline(make_path(3), radius_k, 2),
               std::logic_error);

  Clustering split(3);
  const ClusterId ends = split.add_cluster(0, 0);
  const ClusterId middle = split.add_cluster(1, 1);
  split.assign(0, ends);
  split.assign(2, ends);
  split.assign(1, middle);
  EXPECT_THROW(mis_distributed_pipeline(make_path(3), split, 2),
               std::logic_error);
}

}  // namespace
}  // namespace dsnd
