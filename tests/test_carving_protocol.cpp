// Equivalence of the generic distributed carving protocol with the
// dense reference carver (tests/reference_carver.hpp) for all three
// theorem schedules (Theorem 1 is covered again, more extensively, in
// test_elkin_neiman_distributed).
#include "decomposition/carving_protocol.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "reference_carver.hpp"

namespace dsnd {
namespace {

/// A schedule outside the three theorem factories: `phase_rounds`
/// broadcast rounds per phase with Lemma 1's threshold one above.
CarveSchedule hand_rolled(std::vector<double> betas,
                          std::int32_t phase_rounds) {
  CarveSchedule schedule;
  schedule.betas = std::move(betas);
  schedule.phase_rounds = phase_rounds;
  schedule.radius_overflow_at = phase_rounds + 1.0;
  return schedule;
}

TEST(CarvingProtocol, GenericScheduleMatchesCentralized) {
  const Graph g = make_gnp(80, 0.08, 4);
  // A hand-rolled decaying schedule distinct from all three theorems.
  std::vector<double> betas;
  for (int i = 0; i < 40; ++i) {
    betas.push_back(1.5 / (1.0 + 0.1 * i));
  }
  const CarveSchedule schedule = hand_rolled(std::move(betas), 4);
  const DistributedRun dist = run_schedule_distributed(g, schedule, 23);
  EXPECT_EQ(carve_decomposition(g, schedule, 23), dist.run.carve);
}

TEST(CarvingProtocol, Theorem3OnRggMatchesCentralized) {
  // Theorem 3's long phases carry entries many hops, so second entries
  // decide joins far from their centers: a protocol forwarding only its
  // best entry diverges from the oracle on this input.
  const Graph g = family_by_name("rgg").make(2000, 6);
  const CarveSchedule schedule = theorem3_schedule(g.num_vertices(), 3);
  const DistributedRun dist = run_schedule_distributed(g, schedule, 29);
  EXPECT_EQ(carve_decomposition(g, schedule, 29), dist.run.carve);
}

TEST(CarvingProtocol, MultistageDistributedMatchesCentralized) {
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const Graph g = make_grid2d(9, 9);
    const CarveSchedule schedule = theorem2_schedule(g.num_vertices(), 3);
    const DistributedRun dist = run_schedule_distributed(g, schedule, seed);
    EXPECT_EQ(carve_decomposition(g, schedule, seed), dist.run.carve)
        << "seed=" << seed;
    EXPECT_LE(dist.sim.max_message_words, kCarveProtocolMaxWords);
  }
}

TEST(CarvingProtocol, HighRadiusDistributedMatchesCentralized) {
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const Graph g = make_gnp(64, 0.1, seed);
    const CarveSchedule schedule = theorem3_schedule(g.num_vertices(), 3);
    const DistributedRun dist = run_schedule_distributed(g, schedule, seed);
    EXPECT_EQ(carve_decomposition(g, schedule, seed), dist.run.carve)
        << "seed=" << seed;
    EXPECT_LE(dist.sim.max_message_words, kCarveProtocolMaxWords);
  }
}

TEST(CarvingProtocol, ChangeBasedSendingBoundsTraffic) {
  // Each vertex transmits each distinct (center, dist) top-2 entry at
  // most a handful of times; total entry messages stay far below the
  // always-send bound of 2 per edge-direction per broadcast round.
  const Graph g = make_cycle(64);
  const DistributedRun dist = run_schedule_distributed(
      g, hand_rolled(std::vector<double>(32, 1.0), 6), 3);
  const std::uint64_t always_send_bound =
      static_cast<std::uint64_t>(dist.run.carve.phases_used) * 6 * 2 * 2 *
      static_cast<std::uint64_t>(g.num_edges());
  EXPECT_LT(dist.sim.messages, always_send_bound / 2);
}

TEST(CarvingProtocol, ValidDecompositionUnderLongPhases) {
  // High-radius style: phases far longer than the graph diameter; the
  // change-based sender must go quiet after the fixed point.
  const Graph g = make_grid2d(7, 7);
  const DistributedRun dist = run_schedule_distributed(
      g, hand_rolled(std::vector<double>(3, 0.15), 60), 11);
  EXPECT_TRUE(dist.run.clustering().is_complete());
  const DecompositionReport report = validate_decomposition(
      g, dist.run.clustering(), /*compute_weak=*/false);
  EXPECT_TRUE(report.complete);
}

}  // namespace
}  // namespace dsnd
