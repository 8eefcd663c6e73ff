// Lemma 1 recovery (the Las Vegas recarve loop): when a live vertex
// samples r_v >= radius_overflow_at, the protocol and the dense
// reference carver (tests/reference_carver.hpp) must abort the phase
// before joining, resample with a fresh per-retry salt, and replay —
// so the output is valid unconditionally, the whp guarantee upgraded to
// Las Vegas. These tests pin the deterministic seeds found for PR 5:
// a small-graph reproduction of the 10M-vertex seed-42 bench event
// where a zero retry budget (the pre-PR-5 behavior) returns a flagged,
// disconnected cluster and the default budget returns a valid
// decomposition, bit-identical to the reference at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "reference_carver.hpp"

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
  // The acceptance matrix of the recarve loop: the reference vs CONGEST
  // under forced retries, for shard counts 1, 2, 4, and 7 (7 does not
  // divide 64 — unequal shards), including the retry/round accounting.
  const Graph g = repro_graph();
  for (const std::int32_t max_retries : {kDefaultMaxRetriesPerPhase, 0}) {
    const CarveSchedule schedule = repro_schedule(max_retries);
    const CarveResult reference = carve_decomposition(g, schedule, 1);
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      EngineOptions engine;
      engine.threads = threads;
      const DistributedRun dist =
          run_schedule_distributed(g, schedule, 1, engine);
      SCOPED_TRACE(std::string("threads=") + std::to_string(threads));
      EXPECT_EQ(reference, dist.run.carve);
      // The simulator really ran the replayed attempts: its round count
      // is the carve accounting (quiescence may trim the trailing
      // announce round, never more).
      EXPECT_GE(static_cast<std::int64_t>(dist.sim.rounds),
                reference.rounds - 1);
    }
  }
}

TEST(Recarve, TheoremEntryPointsThreadThePolicy) {
  // The schedule-level knobs reach run_schedule: a lowered threshold
  // forces retries through the Theorem 1 schedule, exactly as in the
  // reference carver.
  const Graph g = make_gnp(96, 6.0 / 95.0, 5);
  CarveSchedule schedule = theorem1_schedule(96, 4, 4.0);
  schedule.radius_overflow_at = 3.0;
  const DecompositionRun run = run_schedule(g, schedule, 1);
  EXPECT_GE(run.carve.retries, 1);
  EXPECT_FALSE(run.carve.radius_overflow);
  EXPECT_EQ(carve_decomposition(g, schedule, 1), run.carve);
  EXPECT_TRUE(fast_valid(g, run.clustering()));
  // The honest round claim: measured rounds decompose exactly into the
  // executed phases plus the billed recovery cost, and on the success
  // event they must stay within the whp bound plus that cost (modulo
  // the per-phase announcement round k * lambda does not count) — the
  // comparison benches and docs prescribe via rounds_with_retries.
  const std::int64_t phase_len = schedule.phase_rounds + 1;
  EXPECT_EQ(run.carve.rounds,
            static_cast<std::int64_t>(run.carve.phases_used) * phase_len +
                run.carve.extra_rounds);
  if (run.carve.exhausted_within_target) {
    EXPECT_LE(
        static_cast<double>(run.carve.rounds),
        run.bounds.rounds_with_retries(run.carve.extra_rounds) +
            static_cast<double>(run.carve.phases_used));
  }
}

TEST(Recarve, ExhaustedBudgetFallsBackToTruncation) {
  // radius_overflow_at = 0 makes every attempt overflow: the loop burns
  // exactly max_retries_per_phase retries per phase, then accepts the
  // truncated samples and reports the flag — in the protocol and the
  // reference alike.
  const Graph g = make_path(12);
  CarveSchedule schedule;
  schedule.betas.assign(16, 1.0);
  schedule.phase_rounds = 2;
  schedule.radius_overflow_at = 0.0;
  schedule.max_retries_per_phase = 2;
  const CarveResult reference = carve_decomposition(g, schedule, 7);
  EXPECT_TRUE(reference.radius_overflow);
  EXPECT_EQ(reference.retries, reference.phases_used * 2);
  const DistributedRun dist = run_schedule_distributed(g, schedule, 7);
  EXPECT_EQ(reference, dist.run.carve);
}

TEST(Recarve, BothBackendsRejectNegativeRetryBudgets) {
  // The protocol and the reference carver reject bad budgets alike.
  const Graph g = make_path(4);
  CarveSchedule schedule;
  schedule.betas = {1.0};
  schedule.phase_rounds = 1;
  schedule.max_retries_per_phase = -1;
  EXPECT_THROW(carve_decomposition(g, schedule, 1), std::invalid_argument);
  EXPECT_THROW(run_schedule_distributed(g, schedule, 1),
               std::invalid_argument);
  // The same single check rejects a beta <= 0 in both, before any
  // round: c * n < 1 makes every Theorem 1 beta = ln(cn)/k negative.
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
