// Phase-boundary checkpointing and rollback-and-replay recovery.
//
// The recovery policy under test (decomposition/checkpoint.hpp): every
// validated phase boundary captures a checkpoint into the context's
// retained arena; a failed attempt — invalid phase caught incrementally,
// rejected whole-run validation, or a named engine failure — restores
// the last checkpoint and replays only the suffix phases on the a = 2
// salt channel, falling back to whole-run retries (a = 1) when the
// rollback budget is exhausted. The anchors:
//   1. Never silently invalid — unchanged from PR 7: every run ends
//      validated-ok or named-failed, now with rollbacks preferred.
//   2. Bit-identity — rollback-recovering runs (including crash-recovery
//      fault plans) are identical for every thread/shard count.
//   3. Strictly cheaper — on the same fault plan, rollback recovery
//      replays fewer phases than the whole-run-retry baseline.
#include "decomposition/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "simulator/transport.hpp"

namespace dsnd {
namespace {

bool fast_valid(const Graph& g, const Clustering& clustering) {
  const FastDecompositionReport report =
      validate_decomposition_fast(g, clustering);
  return report.complete && report.proper_phase_coloring &&
         report.all_clusters_connected;
}

/// Full bit-identity: metrics, carve accounting (including the recovery
/// counters this PR adds), and the clustering itself.
void expect_identical(const DistributedRun& a, const DistributedRun& b,
                      const std::string& label) {
  ASSERT_EQ(a.sim.rounds, b.sim.rounds) << label;
  EXPECT_EQ(a.sim.messages, b.sim.messages) << label;
  EXPECT_EQ(a.sim.words, b.sim.words) << label;
  EXPECT_EQ(a.sim.vertex_activations, b.sim.vertex_activations) << label;
  EXPECT_EQ(a.sim.messages_per_round, b.sim.messages_per_round) << label;
  EXPECT_EQ(a.run.carve.status, b.run.carve.status) << label;
  EXPECT_EQ(a.run.carve.phases_used, b.run.carve.phases_used) << label;
  EXPECT_EQ(a.run.carve.retries, b.run.carve.retries) << label;
  EXPECT_EQ(a.run.carve.run_retries, b.run.carve.run_retries) << label;
  EXPECT_EQ(a.run.carve.rollbacks, b.run.carve.rollbacks) << label;
  EXPECT_EQ(a.run.carve.replayed_phases, b.run.carve.replayed_phases)
      << label;
  EXPECT_EQ(a.run.carve.faults.rejoined, b.run.carve.faults.rejoined)
      << label;
  EXPECT_EQ(a.run.carve.faults.total(), b.run.carve.faults.total()) << label;
  EXPECT_EQ(a.run.carve.carved_per_phase, b.run.carve.carved_per_phase)
      << label;
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
}

// ---------------------------------------------------------------------------
// PhaseValidator units
// ---------------------------------------------------------------------------

TEST(PhaseValidator, AcceptsConnectedProperlyColoredPhase) {
  // Path 0-1-2-3-4: phase 0 carves {0, 1} around center 0 and {3, 4}
  // around center 3; vertex 2 is still live. Proper (the two clusters
  // are not adjacent) and connected.
  const Graph g = make_path(5);
  const std::vector<VertexId> joiners{0, 1, 3, 4};
  const std::vector<VertexId> center_of{0, 0, -1, 3, 3};
  const std::vector<std::int32_t> phase_of{0, 0, -1, 0, 0};
  PhaseValidator validator;
  EXPECT_TRUE(validator.validate_phase(g, joiners, center_of, phase_of, 0));
}

TEST(PhaseValidator, RejectsAdjacentSamePhaseDifferentClusters) {
  // Vertices 1 and 2 are adjacent, both phase 0, different centers: the
  // coloring violation the full validator would flag, caught at the
  // boundary.
  const Graph g = make_path(4);
  const std::vector<VertexId> joiners{0, 1, 2, 3};
  const std::vector<VertexId> center_of{0, 0, 3, 3};
  const std::vector<std::int32_t> phase_of{0, 0, 0, 0};
  PhaseValidator validator;
  EXPECT_FALSE(validator.validate_phase(g, joiners, center_of, phase_of, 0));
}

TEST(PhaseValidator, RejectsDisconnectedCluster) {
  // Cluster (phase 0, center 0) = {0, 4} with live vertices between:
  // two components of one cluster.
  const Graph g = make_path(5);
  const std::vector<VertexId> joiners{0, 4};
  const std::vector<VertexId> center_of{0, -1, -1, -1, 0};
  const std::vector<std::int32_t> phase_of{0, -1, -1, -1, 0};
  PhaseValidator validator;
  EXPECT_FALSE(validator.validate_phase(g, joiners, center_of, phase_of, 0));
}

TEST(PhaseValidator, IgnoresOtherPhases) {
  // The incremental check is phase-local: a phase-1 vertex adjacent to a
  // phase-0 cluster in a different cluster is legal (colors are phases),
  // and must not leak into phase 0's validation.
  const Graph g = make_path(4);
  const std::vector<VertexId> joiners{0, 1};
  const std::vector<VertexId> center_of{0, 0, 2, 2};
  const std::vector<std::int32_t> phase_of{0, 0, 1, 1};
  const std::vector<VertexId> later_joiners{2, 3};
  PhaseValidator validator;
  EXPECT_TRUE(validator.validate_phase(g, joiners, center_of, phase_of, 0));
  EXPECT_TRUE(
      validator.validate_phase(g, later_joiners, center_of, phase_of, 1));
}

// ---------------------------------------------------------------------------
// Rollback recovery, end to end
// ---------------------------------------------------------------------------

TEST(Checkpoint, RollbackRescuesRunsTheRetryBudgetCannot) {
  // Deterministic configs where the whole-run-retry baseline exhausts
  // its budget and ends rejected, while rollback recovery restores the
  // validated prefix and wins — replaying strictly fewer phases.
  std::int64_t retry_replayed = 0, rollback_replayed = 0;
  int rollback_recoveries = 0;
  for (const auto& [drop, seed] : std::vector<std::pair<double, std::uint64_t>>{
           {0.05, 1}, {0.1, 1}, {0.1, 3}}) {
    const Graph g = make_gnp(128, 0.05, seed);
    FaultPlan plan;
    plan.seed = seed * 7 + 1;
    plan.drop_rate = drop;
    const std::string label =
        "drop=" + std::to_string(drop) + " seed=" + std::to_string(seed);

    CarveSchedule retry_only = theorem1_schedule(128, 4, 4);
    retry_only.max_rollbacks = 0;
    FaultyTransport retry_transport(plan);
    EngineOptions retry_engine;
    retry_engine.transport = &retry_transport;
    const DistributedRun retry =
        run_schedule_distributed(g, retry_only, seed, retry_engine);
    EXPECT_EQ(retry.run.carve.rollbacks, 0) << label;
    retry_replayed += retry.run.carve.replayed_phases;

    const CarveSchedule schedule = theorem1_schedule(128, 4, 4);
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.transport = &transport;
    const DistributedRun run =
        run_schedule_distributed(g, schedule, seed, engine);
    rollback_replayed += run.run.carve.replayed_phases;
    if (run.run.carve.status == CarveStatus::kOk) {
      EXPECT_TRUE(fast_valid(g, run.run.clustering())) << label;
      if (run.run.carve.rollbacks > 0) ++rollback_recoveries;
    } else {
      EXPECT_GT(run.run.carve.faults.total(), 0u) << label;
    }
  }
  // The recovery path must actually fire, and must be strictly cheaper
  // in replayed phases than the baseline on the same fault plans.
  EXPECT_GT(rollback_recoveries, 0);
  EXPECT_GT(retry_replayed, 0);
  EXPECT_LT(rollback_replayed, retry_replayed);
}

TEST(Checkpoint, SoakMatrixValidOrNamedWithRollbacks) {
  // The PR 7 soak contract, re-soaked with rollback recovery enabled
  // (the default): families x drops x seeds, every run validated-ok or
  // named-failed, and the rollback machinery exercised somewhere in the
  // matrix.
  std::int64_t total_rollbacks = 0;
  for (const char* family : {"gnp", "ring", "hyperbolic"}) {
    const Graph g = family == std::string("gnp")
                        ? make_gnp(128, 0.05, 7)
                        : family == std::string("ring")
                              ? make_cycle(128)
                              : make_hyperbolic(128, 6.0, 2.7, 7);
    const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4);
    for (const double drop : {0.01, 0.05, 0.1}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        FaultPlan plan;
        plan.seed = seed * 7 + 1;
        plan.drop_rate = drop;
        FaultyTransport transport(plan);
        EngineOptions engine;
        engine.transport = &transport;
        const DistributedRun run =
            run_schedule_distributed(g, schedule, seed, engine);
        const std::string label = std::string(family) +
                                  " drop=" + std::to_string(drop) +
                                  " seed=" + std::to_string(seed);
        total_rollbacks += run.run.carve.rollbacks;
        if (run.run.carve.status == CarveStatus::kOk) {
          EXPECT_TRUE(fast_valid(g, run.run.clustering())) << label;
          EXPECT_FALSE(run.run.carve.radius_overflow) << label;
        } else {
          EXPECT_GT(run.run.carve.faults.total(), 0u) << label;
        }
      }
    }
  }
  EXPECT_GT(total_rollbacks, 0);
}

TEST(Checkpoint, RollbackRecoveryBitIdenticalAcrossThreadCounts) {
  // The acceptance matrix: a config that recovers through rollbacks AND
  // a crash-recovery span must produce identical runs — clustering,
  // metrics, and every recovery counter — for every thread/shard count,
  // including a width that does not divide n (threads = 7).
  for (const auto& [drop, seed] : std::vector<std::pair<double, std::uint64_t>>{
           {0.05, 1}, {0.1, 2}}) {
    const Graph g = make_gnp(128, 0.05, seed);
    const CarveSchedule schedule = theorem1_schedule(128, 4, 4);
    FaultPlan plan;
    plan.seed = seed * 7 + 1;
    plan.drop_rate = drop;
    plan.crashes.push_back(
        CrashSpan{100, 110, std::uint64_t{8}, std::uint64_t{20}});
    std::vector<DistributedRun> runs;
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      FaultyTransport transport(plan);
      EngineOptions engine;
      engine.threads = threads;
      engine.transport = &transport;
      runs.push_back(run_schedule_distributed(g, schedule, seed, engine));
    }
    const std::string label =
        "drop=" + std::to_string(drop) + " seed=" + std::to_string(seed);
    // The config must exercise both new fault paths, not vacuously pass.
    EXPECT_GT(runs[0].run.carve.rollbacks, 0) << label;
    EXPECT_GT(runs[0].run.carve.faults.rejoined, 0u) << label;
    for (std::size_t i = 1; i < runs.size(); ++i) {
      expect_identical(runs[i], runs[0],
                       label + " threads-index=" + std::to_string(i));
    }
  }
}

TEST(Checkpoint, ZeroRollbackBudgetDisablesRollbacks) {
  // max_rollbacks = 0 is the PR 7 loop: recovery happens only through
  // whole-run retries, and the rollback counters stay zero.
  const Graph g = make_gnp(128, 0.05, 2);
  CarveSchedule schedule = theorem1_schedule(128, 4, 4);
  schedule.max_rollbacks = 0;
  for (const double drop : {0.01, 0.1}) {
    FaultPlan plan;
    plan.seed = 15;
    plan.drop_rate = drop;
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.transport = &transport;
    const DistributedRun run =
        run_schedule_distributed(g, schedule, 2, engine);
    EXPECT_EQ(run.run.carve.rollbacks, 0);
    if (run.run.carve.status == CarveStatus::kOk) {
      EXPECT_TRUE(fast_valid(g, run.run.clustering()));
    } else {
      EXPECT_GT(run.run.carve.faults.total(), 0u);
    }
  }
}

TEST(Checkpoint, ExhaustedBudgetsFallBackAndStayNamed) {
  // A drop rate hostile enough that both budgets blow: the loop must
  // spend the full rollback budget, fall back to the full whole-run
  // retry budget, and end in a NAMED failure — never a silent pass.
  const Graph g = make_gnp(128, 0.05, 2);
  const CarveSchedule schedule = theorem1_schedule(128, 4, 4);
  FaultPlan plan;
  plan.seed = 15;
  plan.drop_rate = 0.1;
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  const DistributedRun run = run_schedule_distributed(g, schedule, 2, engine);
  EXPECT_NE(run.run.carve.status, CarveStatus::kOk);
  EXPECT_EQ(run.run.carve.rollbacks, schedule.max_rollbacks);
  EXPECT_EQ(run.run.carve.run_retries, schedule.max_run_retries);
  EXPECT_GT(run.run.carve.faults.total(), 0u);
}

TEST(Checkpoint, ReliableRunsNeverRollBack) {
  // On a reliable transport the recovery loop is never consulted: no
  // rollbacks, no replayed phases, no rejoins — and the result matches
  // the dense reference carver through the usual parity (spot-checked via
  // status and validity here; the full parity matrix lives in
  // test_distributed_parity).
  const Graph g = make_gnp(128, 0.05, 5);
  const CarveSchedule schedule = theorem1_schedule(128, 4, 4);
  const DistributedRun run =
      run_schedule_distributed(g, schedule, 5, EngineOptions{});
  EXPECT_EQ(run.run.carve.status, CarveStatus::kOk);
  EXPECT_EQ(run.run.carve.rollbacks, 0);
  EXPECT_EQ(run.run.carve.replayed_phases, 0);
  EXPECT_EQ(run.run.carve.faults.rejoined, 0u);
  EXPECT_TRUE(fast_valid(g, run.run.clustering()));
}

// ---------------------------------------------------------------------------
// Warm contexts under faults
// ---------------------------------------------------------------------------

TEST(Checkpoint, WarmFaultedContextRunsBitIdenticalToCold) {
  // One reused CarveContext through a FaultyTransport with drops AND a
  // crash-recovery span: every warm re-run must reproduce the cold run
  // bit for bit, including the rollback/rejoin accounting — the arena's
  // retained buffers must never leak one run's recovery state into the
  // next.
  const Graph g = make_gnp(128, 0.05, 1);
  const CarveSchedule schedule = theorem1_schedule(128, 4, 4);
  FaultPlan plan;
  plan.seed = 8;
  plan.drop_rate = 0.05;
  plan.crashes.push_back(
      CrashSpan{100, 110, std::uint64_t{8}, std::uint64_t{20}});
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  CarveContext context(g, engine);
  const DistributedRun cold = run_schedule_distributed(context, schedule, 1);
  EXPECT_GT(cold.run.carve.rollbacks, 0);
  EXPECT_GT(cold.run.carve.faults.rejoined, 0u);
  for (int rep = 0; rep < 3; ++rep) {
    const DistributedRun warm =
        run_schedule_distributed(context, schedule, 1);
    expect_identical(warm, cold, "warm rep=" + std::to_string(rep));
  }
}

TEST(Checkpoint, WarmContextAlternatingSeedsStayIndependent) {
  // Alternating seeds on one faulted context: each seed's result must
  // equal its fresh-context twin — a checkpoint captured under seed A
  // must never be restored into a seed-B run.
  const Graph g = make_gnp(128, 0.05, 1);
  const CarveSchedule schedule = theorem1_schedule(128, 4, 4);
  FaultPlan plan;
  plan.seed = 8;
  plan.drop_rate = 0.05;
  const auto fresh = [&](std::uint64_t seed) {
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.transport = &transport;
    CarveContext context(g, engine);
    return run_schedule_distributed(context, schedule, seed);
  };
  const DistributedRun fresh_a = fresh(1);
  const DistributedRun fresh_b = fresh(9);

  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  CarveContext context(g, engine);
  for (int rep = 0; rep < 2; ++rep) {
    expect_identical(run_schedule_distributed(context, schedule, 1), fresh_a,
                     "seed 1 rep=" + std::to_string(rep));
    expect_identical(run_schedule_distributed(context, schedule, 9), fresh_b,
                     "seed 9 rep=" + std::to_string(rep));
  }
}

}  // namespace
}  // namespace dsnd
