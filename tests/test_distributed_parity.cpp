// The acceptance matrix for the schedule-driven carving core: for every
// theorem x graph family x seed, the CONGEST run must be bit-identical
// to the dense reference carver (tests/reference_carver.hpp) on the same
// seed — the whole CarveResult: cluster assignment, centers, colors,
// phase count and every counter — with O(1)-word messages, for all three
// theorems and for the service's cover input.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "reference_carver.hpp"

namespace dsnd {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7, 42};

Graph make_family(const std::string& family, VertexId n,
                  std::uint64_t seed) {
  if (family == "gnp") return make_gnp(n, 6.0 / std::max(n - 1, 1), seed);
  if (family == "ring") return make_cycle(n);
  return family_by_name("rgg").make(n, seed);
}

/// Runs `schedule` on the engine and checks it against the reference
/// carver: the whole CarveResult, the Las Vegas recovery accounting
/// included.
void expect_parity(const Graph& g, const CarveSchedule& schedule,
                   std::uint64_t seed, const std::string& label) {
  const DistributedRun dist = run_schedule_distributed(g, schedule, seed);
  EXPECT_EQ(carve_decomposition(g, schedule, seed), dist.run.carve) << label;
  // The engine's message metrics certify the CONGEST claim.
  EXPECT_LE(dist.sim.max_message_words, kCarveProtocolMaxWords) << label;
  // Bounds travel with the schedule.
  EXPECT_DOUBLE_EQ(dist.run.bounds.strong_diameter,
                   schedule.bounds.strong_diameter)
      << label;
  EXPECT_DOUBLE_EQ(dist.run.bounds.colors, schedule.bounds.colors) << label;
}

TEST(DistributedParity, Theorem2AcrossFamiliesAndSeeds) {
  for (const char* family : {"gnp", "ring", "rgg"}) {
    for (const std::uint64_t seed : kSeeds) {
      const Graph g = make_family(family, 96, seed);
      expect_parity(g, theorem2_schedule(g.num_vertices(), 3), seed * 131 + 7,
                    std::string("T2 ") + family + " seed=" +
                        std::to_string(seed));
    }
  }
}

TEST(DistributedParity, Theorem3AcrossFamiliesAndSeeds) {
  for (const char* family : {"gnp", "ring", "rgg"}) {
    for (const std::uint64_t seed : kSeeds) {
      const Graph g = make_family(family, 96, seed);
      expect_parity(g, theorem3_schedule(g.num_vertices(), 3), seed * 977 + 3,
                    std::string("T3 ") + family + " seed=" +
                        std::to_string(seed));
    }
  }
}

TEST(DistributedParity, Theorem1OnRgg) {
  // Theorem 1's parity matrix (test_elkin_neiman_distributed) predates
  // the rgg family; cover it here so all three theorems share the grid.
  for (const std::uint64_t seed : kSeeds) {
    const Graph g = make_family("rgg", 96, seed);
    expect_parity(g, theorem1_schedule(g.num_vertices(), 4), seed * 613 + 11,
                  "T1 rgg seed=" + std::to_string(seed));
  }
}

TEST(DistributedParity, ServiceCoverInput) {
  // The service's cover input: a W = 1 cover of a 2000-vertex ring
  // carves G^3 with Theorem 1's schedule for n = 2000.
  const Graph g = graph_power(make_cycle(2000), 3);
  for (const std::uint64_t seed : kSeeds) {
    expect_parity(g, theorem1_schedule(2000, 0, 4.0), seed,
                  "cover G^3 seed=" + std::to_string(seed));
  }
}

TEST(DistributedParity, ParityHoldsUnderEngineConfigurations) {
  // The schedule core must be execution-invariant: the thread count
  // changes nothing observable.
  const Graph g = make_family("gnp", 80, 3);
  const CarveSchedule schedule = theorem2_schedule(g.num_vertices(), 3);
  const DistributedRun baseline = run_schedule_distributed(g, schedule, 19);
  for (const unsigned threads : {4u, 2u}) {
    EngineOptions engine;
    engine.threads = threads;
    const DistributedRun run =
        run_schedule_distributed(g, schedule, 19, engine);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(run.run.clustering().cluster_of(v),
                baseline.run.clustering().cluster_of(v));
    }
    EXPECT_EQ(run.sim.messages, baseline.sim.messages);
  }
}

TEST(DistributedParity, ShardCountInvarianceAcrossTheoremsAndFamilies) {
  // The sharded engine's acceptance matrix: for every theorem x family,
  // thread/shard counts 1, 2, 4, and 7 (7 does not divide the vertex
  // count — shards of unequal width) must reproduce the serial run
  // bit-for-bit: clustering, message totals, and per-round traffic.
  for (const int theorem : {1, 2, 3}) {
    for (const char* family : {"gnp", "ring", "rgg"}) {
      const Graph g = make_family(family, 96, 5);
      const std::uint64_t seed = 31 * static_cast<std::uint64_t>(theorem);
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
        EXPECT_EQ(runs[i].sim.messages_per_round,
                  runs[0].sim.messages_per_round)
            << label;
        EXPECT_EQ(runs[i].sim.vertex_activations,
                  runs[0].sim.vertex_activations)
            << label;
      }
    }
  }
}

}  // namespace
}  // namespace dsnd
