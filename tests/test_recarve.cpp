// Lemma 1 recovery (the Las Vegas recarve loop): when a live vertex
// samples r_v >= radius_overflow_at, both backends must abort the phase
// before joining, resample with a fresh per-retry salt, and replay —
// so the output is valid unconditionally, the whp guarantee upgraded to
// Las Vegas. These tests pin the deterministic seeds found for PR 5:
// a small-graph reproduction of the 10M-vertex seed-42 bench event
// where a zero retry budget (the pre-PR-5 behavior) returns a flagged,
// disconnected cluster and the default budget returns a valid
// decomposition, bit-identical across backends and thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

/// The reproduction instance: sparse gnp with long-tailed radii and a
/// two-round broadcast budget. Seed 1 overflows (some r >= 3) in several
/// phases; truncated it disconnects a cluster, recarved it stays valid.
Graph repro_graph() { return make_gnp(64, 3.0 / 63.0, 1); }

/// Carved with seed 1. A `max_retries_per_phase` of 0 truncates.
CarveSchedule repro_schedule(std::int32_t max_retries_per_phase) {
  CarveSchedule schedule;
  schedule.betas.assign(32, 1.4);
  schedule.phase_rounds = 2;
  schedule.radius_overflow_at = 3.0;
  schedule.max_retries_per_phase = max_retries_per_phase;
  return schedule;
}

bool fast_valid(const Graph& g, const Clustering& clustering) {
  const FastDecompositionReport report =
      validate_decomposition_fast(g, clustering);
  return report.complete && report.proper_phase_coloring &&
         report.all_clusters_connected;
}

void expect_same_run(const CarveResult& a, const CarveResult& b) {
  ASSERT_EQ(a.phases_used, b.phases_used);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.extra_rounds, b.extra_rounds);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.radius_overflow, b.radius_overflow);
  EXPECT_DOUBLE_EQ(a.max_sampled_radius, b.max_sampled_radius);
  EXPECT_EQ(a.carved_per_phase, b.carved_per_phase);
  ASSERT_EQ(a.clustering.num_clusters(), b.clustering.num_clusters());
  for (VertexId v = 0; v < a.clustering.num_vertices(); ++v) {
    ASSERT_EQ(a.clustering.cluster_of(v), b.clustering.cluster_of(v))
        << "v=" << v;
  }
  for (ClusterId c = 0; c < a.clustering.num_clusters(); ++c) {
    ASSERT_EQ(a.clustering.center_of(c), b.clustering.center_of(c));
    ASSERT_EQ(a.clustering.color_of(c), b.clustering.color_of(c));
  }
}

TEST(Recarve, TruncatePinsLegacyFlaggedInvalidBehavior) {
  // The ablation escape hatch: the pre-PR-5 flag-and-proceed discipline,
  // including its failure mode — the run is flagged and the validator
  // catches a disconnected cluster, exactly like the 10M seed-42 bench
  // record this PR fixes.
  const Graph g = repro_graph();
  const CarveResult result =
      carve_decomposition(g, repro_schedule(0), 1);
  EXPECT_TRUE(result.radius_overflow);
  EXPECT_EQ(result.retries, 0);
  EXPECT_EQ(result.extra_rounds, 0);
  EXPECT_EQ(result.rounds,
            static_cast<std::int64_t>(result.phases_used) * 3);
  EXPECT_GE(result.max_sampled_radius, 3.0);
  const FastDecompositionReport report =
      validate_decomposition_fast(g, result.clustering);
  EXPECT_GE(report.disconnected_clusters, 1);
  EXPECT_FALSE(fast_valid(g, result.clustering));
}

TEST(Recarve, RetryRecoversThePreviouslyDisconnectedRun) {
  // Same graph, same seed, default policy: Lemma 1's event fires (the
  // reported max shows it), the recarve loop replays the overflowed
  // phases, and the output is valid unconditionally with the cost
  // accounted.
  const Graph g = repro_graph();
  const CarveResult result =
      carve_decomposition(g, repro_schedule(kDefaultMaxRetriesPerPhase), 1);
  EXPECT_FALSE(result.radius_overflow);
  EXPECT_GE(result.retries, 1);
  EXPECT_EQ(result.extra_rounds,
            static_cast<std::int64_t>(result.retries) * 3);
  EXPECT_EQ(result.rounds,
            static_cast<std::int64_t>(result.phases_used) * 3 +
                result.extra_rounds);
  // The discarded attempts' samples stay visible in the log field.
  EXPECT_GE(result.max_sampled_radius, 3.0);
  EXPECT_TRUE(result.clustering.is_complete());
  EXPECT_TRUE(fast_valid(g, result.clustering));
}

TEST(Recarve, BackendsAgreeBitForBitAcrossThreadCounts) {
  // The acceptance matrix of the recarve loop: centralized vs CONGEST
  // under forced retries, for shard counts 1, 2, 4, and 7 (7 does not
  // divide 64 — unequal shards), including the retry/round accounting.
  const Graph g = repro_graph();
  for (const std::int32_t max_retries : {kDefaultMaxRetriesPerPhase, 0}) {
    const CarveSchedule schedule = repro_schedule(max_retries);
    const CarveResult central = carve_decomposition(g, schedule, 1);
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      EngineOptions engine;
      engine.threads = threads;
      const DistributedRun dist =
          run_schedule_distributed(g, schedule, 1, engine);
      SCOPED_TRACE(std::string("threads=") + std::to_string(threads));
      expect_same_run(central, dist.run.carve);
      // The simulator really ran the replayed attempts: its round count
      // is the carve accounting (quiescence may trim the trailing
      // announce round, never more).
      EXPECT_GE(static_cast<std::int64_t>(dist.sim.rounds),
                central.rounds - 1);
    }
  }
}

TEST(Recarve, TheoremEntryPointsThreadThePolicy) {
  // The schedule-level knobs reach both backends: a lowered threshold
  // forces retries through the Theorem 1 schedule.
  const Graph g = make_gnp(96, 6.0 / 95.0, 5);
  CarveSchedule schedule = theorem1_schedule(96, 4, 4.0);
  schedule.radius_overflow_at = 3.0;
  const DecompositionRun central = run_schedule(g, schedule, 1);
  const DistributedRun dist = run_schedule_distributed(g, schedule, 1);
  EXPECT_GE(central.carve.retries, 1);
  EXPECT_FALSE(central.carve.radius_overflow);
  expect_same_run(central.carve, dist.run.carve);
  EXPECT_TRUE(fast_valid(g, central.clustering()));
  // The honest round claim: measured rounds decompose exactly into the
  // executed phases plus the billed recovery cost, and on the success
  // event they must stay within the whp bound plus that cost (modulo
  // the per-phase announcement round k * lambda does not count) — the
  // comparison benches and docs prescribe via rounds_with_retries.
  const std::int64_t phase_len = schedule.phase_rounds + 1;
  EXPECT_EQ(central.carve.rounds,
            static_cast<std::int64_t>(central.carve.phases_used) * phase_len +
                central.carve.extra_rounds);
  if (central.carve.exhausted_within_target) {
    EXPECT_LE(
        static_cast<double>(central.carve.rounds),
        central.bounds.rounds_with_retries(central.carve.extra_rounds) +
            static_cast<double>(central.carve.phases_used));
  }
}

TEST(Recarve, ExhaustedBudgetFallsBackToTruncation) {
  // radius_overflow_at = 0 makes every attempt overflow: the loop burns
  // exactly max_retries_per_phase retries per phase, then accepts the
  // truncated samples and reports the flag — in both backends alike.
  const Graph g = make_path(12);
  CarveSchedule schedule;
  schedule.betas.assign(16, 1.0);
  schedule.phase_rounds = 2;
  schedule.radius_overflow_at = 0.0;
  schedule.max_retries_per_phase = 2;
  const CarveResult central = carve_decomposition(g, schedule, 7);
  EXPECT_TRUE(central.radius_overflow);
  EXPECT_EQ(central.retries, central.phases_used * 2);
  const DistributedRun dist = run_schedule_distributed(g, schedule, 7);
  expect_same_run(central, dist.run.carve);
}

TEST(Recarve, BothBackendsRejectNegativeRetryBudgets) {
  const Graph g = make_path(4);
  CarveSchedule schedule;
  schedule.betas = {1.0};
  schedule.phase_rounds = 1;
  schedule.max_retries_per_phase = -1;
  EXPECT_THROW(carve_decomposition(g, schedule, 1), std::invalid_argument);
  EXPECT_THROW(run_schedule_distributed(g, schedule, 1),
               std::invalid_argument);
  // The same single check rejects a beta <= 0 on both backends, before
  // any round: c * n < 1 makes every Theorem 1 beta = ln(cn)/k negative.
  // n = 5000 puts the distributed sampling pass above the parallel
  // threshold, so at two threads a missing check would surface on a
  // worker thread instead of the caller's.
  const Graph big = make_cycle(5000);
  const CarveSchedule negative = theorem1_schedule(5000, 0, 0.0001);
  ASSERT_LT(negative.betas.front(), 0.0);
  EXPECT_THROW(carve_decomposition(big, negative, 1), std::invalid_argument);
  EngineOptions engine;
  engine.threads = 2;
  EXPECT_THROW(run_schedule_distributed(big, negative, 1, engine),
               std::invalid_argument);
  CarveSchedule zero = schedule;
  zero.max_retries_per_phase = 0;
  zero.betas = {0.0};
  EXPECT_THROW(carve_decomposition(g, zero, 1), std::invalid_argument);
  EXPECT_THROW(run_schedule_distributed(g, zero, 1), std::invalid_argument);
}

TEST(Recarve, RetrySaltYieldsIndependentDeterministicStreams) {
  const double beta = 1.2;
  // Retry 0 is the historical stream (the default argument).
  EXPECT_DOUBLE_EQ(carve_radius_sample(9, 3, 17, beta),
                   carve_radius_sample(9, 3, 17, beta, 0));
  // Salted retries differ from the aborted attempt and from each other,
  // and are themselves deterministic.
  const double r0 = carve_radius_sample(9, 3, 17, beta, 0);
  const double r1 = carve_radius_sample(9, 3, 17, beta, 1);
  const double r2 = carve_radius_sample(9, 3, 17, beta, 2);
  EXPECT_NE(r0, r1);
  EXPECT_NE(r1, r2);
  EXPECT_DOUBLE_EQ(r1, carve_radius_sample(9, 3, 17, beta, 1));
  // The salt must not collide with other phases' unsalted streams.
  EXPECT_NE(r1, carve_radius_sample(9, 4, 17, beta, 0));
}

}  // namespace
}  // namespace dsnd
