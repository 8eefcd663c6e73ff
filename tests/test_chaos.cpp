// The never-silently-invalid contract, soaked.
//
// Under ANY injected fault schedule a distributed run must end in one of
// exactly two ways: a clustering that passes validate_decomposition_fast
// (status kOk), or a named failure status with nonzero fault counters.
// A run that claims kOk with an invalid clustering — the silent-invalid
// outcome — is the one thing that must never happen, at any drop rate,
// on any family, for any seed. These tests soak that contract across
// the drop-rate matrix, pin the verify-and-recover loop's retry
// machinery (run-salted reseeds, aggregated fault accounting), and cover
// the layout-graph path, whose faulted attempts must be validated
// against the ORIGINAL graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/relabel.hpp"
#include "simulator/transport.hpp"

namespace dsnd {
namespace {

Graph make_family(const std::string& family, VertexId n,
                  std::uint64_t seed) {
  if (family == "gnp") return make_gnp(n, 6.0 / std::max(n - 1, 1), seed);
  if (family == "ring") return make_cycle(n);
  return make_hyperbolic(n, 6.0, 2.7, seed);
}

bool fast_valid(const Graph& g, const Clustering& clustering) {
  const FastDecompositionReport report =
      validate_decomposition_fast(g, clustering);
  return report.complete && report.proper_phase_coloring &&
         report.all_clusters_connected;
}

TEST(Chaos, SoakMatrixValidOrNamedNeverSilentInvalid) {
  int recovered_runs = 0;  // runs that needed >= 1 whole-run retry and won
  for (const char* family : {"gnp", "ring", "hyperbolic"}) {
    const Graph g = make_family(family, 128, 7);
    const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4);
    for (const double drop_rate : {0.001, 0.01, 0.1}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        FaultPlan plan;
        plan.seed = seed * 1000003;
        plan.drop_rate = drop_rate;
        FaultyTransport transport(plan);
        EngineOptions engine;
        engine.transport = &transport;
        const DistributedRun run =
            run_schedule_distributed(g, schedule, seed, engine);
        const std::string label = std::string(family) +
                                  " drop=" + std::to_string(drop_rate) +
                                  " seed=" + std::to_string(seed);
        if (run.run.carve.status == CarveStatus::kOk) {
          // kOk is a CLAIM of validity — re-check it independently here.
          EXPECT_TRUE(fast_valid(g, run.run.clustering())) << label;
          EXPECT_FALSE(run.run.carve.radius_overflow) << label;
          if (run.run.carve.run_retries > 0) ++recovered_runs;
        } else {
          // A named failure must carry the evidence: the transport
          // actually injected faults.
          EXPECT_GT(run.run.carve.faults.total(), 0u) << label;
        }
      }
    }
  }
  // The soak must exercise the recovery path, not just clean first
  // attempts: at drop rate 0.1 first attempts routinely produce
  // improper colorings, so some run must have recovered via a salted
  // whole-run retry.
  EXPECT_GT(recovered_runs, 0);
}

TEST(Chaos, RunRetryUsesSaltedSeedAndAggregatesFaults) {
  // Find a run that retried at least once, then pin the accounting: the
  // aggregated fault counters must cover every attempt (>= the final
  // attempt's own counters, which `sim` reports).
  const Graph g = make_family("gnp", 128, 7);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4);
  bool found_retry = false;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    FaultPlan plan;
    plan.seed = 77;
    plan.drop_rate = 0.1;
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.transport = &transport;
    const DistributedRun run =
        run_schedule_distributed(g, schedule, seed, engine);
    EXPECT_GE(run.run.carve.faults.total(), run.sim.faults.total());
    if (run.run.carve.run_retries > 0 &&
        run.run.carve.status == CarveStatus::kOk) {
      found_retry = true;
      // Retried attempts saw different traffic (salted seed), so the
      // aggregate is strictly more than the final attempt alone.
      EXPECT_GT(run.run.carve.faults.total(), run.sim.faults.total());
    }
  }
  EXPECT_TRUE(found_retry);
}

TEST(Chaos, BlownRunRetryBudgetIsNamedNotSilent) {
  // Drop 90% of all traffic and allow zero whole-run retries: the single
  // attempt either stalls, blows the round budget, or completes with a
  // clustering that validation rejects. Whatever happens, the status is
  // a named failure and the counters show why — never a silent pass.
  const Graph g = make_family("gnp", 64, 3);
  CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4);
  schedule.max_run_retries = 0;
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.9;
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  const DistributedRun run = run_schedule_distributed(g, schedule, 3, engine);
  EXPECT_NE(run.run.carve.status, CarveStatus::kOk);
  EXPECT_GT(run.run.carve.faults.total(), 0u);
  EXPECT_EQ(run.run.carve.run_retries, 0);
  EXPECT_NE(std::string(carve_status_name(run.run.carve.status)), "ok");
}

TEST(Chaos, GateRejectsCarvesOverTheDiameterBound) {
  // A lossy transport that never drops anything (its one targeted drop
  // names a round the run never reaches) carries a complete, properly
  // colored, connected 20x20 grid carve whose 2 * radius certificate is
  // 4. With the schedule's bound set to 0 the gate must reject every
  // attempt, so the run ends named after both recovery budgets.
  const Graph g = make_grid2d(20, 20);
  CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 3);
  schedule.bounds.strong_diameter = 0.0;
  FaultPlan plan;
  plan.targeted_drops.push_back(EdgeDrop{1u << 30, 0, 1});
  FaultyTransport transport(plan);
  ASSERT_TRUE(transport.lossy());
  EngineOptions engine;
  engine.transport = &transport;
  const DistributedRun run = run_schedule_distributed(g, schedule, 1, engine);
  EXPECT_EQ(run.run.carve.faults.total(), 0u);
  EXPECT_EQ(run.run.carve.status, CarveStatus::kRejected);
  EXPECT_EQ(run.run.carve.rollbacks, schedule.max_rollbacks);
  EXPECT_EQ(run.run.carve.run_retries, schedule.max_run_retries);
}

TEST(Chaos, ZeroPlanThroughScheduleDriverMatchesReliable) {
  // A zero-rate FaultyTransport must not trigger the verify-and-recover
  // loop at all: same clustering, zero run retries, zero fault counters,
  // status kOk — indistinguishable from the reliable path end to end.
  const Graph g = make_family("gnp", 96, 11);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4);
  const DistributedRun reliable = run_schedule_distributed(g, schedule, 9);
  FaultyTransport transport((FaultPlan()));
  EngineOptions engine;
  engine.transport = &transport;
  const DistributedRun faulty = run_schedule_distributed(g, schedule, 9,
                                                         engine);
  EXPECT_EQ(faulty.run.carve.status, CarveStatus::kOk);
  EXPECT_EQ(faulty.run.carve.run_retries, 0);
  EXPECT_EQ(faulty.run.carve.faults.total(), 0u);
  EXPECT_EQ(faulty.sim.messages, reliable.sim.messages);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(faulty.run.clustering().cluster_of(v),
              reliable.run.clustering().cluster_of(v));
  }
}

TEST(Chaos, LayoutRunValidatesAgainstOriginalGraph) {
  // The layout overload carves the RELABELED graph but emits a
  // clustering keyed to original ids; its verify-and-recover loop must
  // therefore validate against the original topology. A kOk result here
  // must hold up against the original graph recomputed independently.
  const Graph g = make_family("gnp", 128, 13);
  const LayoutGraph lg = make_layout_graph(g, bfs_layout(g));
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4);

  // Zero-plan fidelity through the layout path first.
  const DistributedRun reliable = run_schedule_distributed(lg, schedule, 21);
  FaultyTransport clean((FaultPlan()));
  EngineOptions clean_engine;
  clean_engine.transport = &clean;
  const DistributedRun zero =
      run_schedule_distributed(lg, schedule, 21, clean_engine);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(zero.run.clustering().cluster_of(v),
              reliable.run.clustering().cluster_of(v));
  }

  bool saw_ok = false;
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    FaultPlan plan;
    plan.seed = 31 * seed;
    plan.drop_rate = 0.05;
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.transport = &transport;
    const DistributedRun run =
        run_schedule_distributed(lg, schedule, seed, engine);
    if (run.run.carve.status == CarveStatus::kOk) {
      saw_ok = true;
      EXPECT_TRUE(fast_valid(g, run.run.clustering()))
          << "layout seed=" << seed;
    } else {
      EXPECT_GT(run.run.carve.faults.total(), 0u) << "layout seed=" << seed;
    }
  }
  // At 5% drop with the retry loop engaged, at least one of three seeds
  // must recover to a validated decomposition.
  EXPECT_TRUE(saw_ok);
}

}  // namespace
}  // namespace dsnd
