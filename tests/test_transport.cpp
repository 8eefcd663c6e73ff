// The transport seam's acceptance tests.
//
// Two invariants anchor everything:
//   1. Refactor fidelity — an explicit ReliableTransport, and a
//      FaultyTransport with every rate at zero, reproduce the engine's
//      default exchange bit-for-bit across theorems, graph families,
//      and thread counts (the pre-seam results, pinned).
//   2. Deterministic chaos — a nonzero FaultPlan injects the SAME
//      faults and yields the SAME outcome for every thread/shard count,
//      because decisions are keyed on (seed, round, edge, occurrence)
//      and delivery order is defined in shard-invariant terms.
// Plus targeted unit tests for each fault type, the wake-calendar-
// under-loss regression, and the named round-budget status.
#include "simulator/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"
#include "simulator/engine.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

Graph make_family(const std::string& family, VertexId n,
                  std::uint64_t seed) {
  if (family == "gnp") return make_gnp(n, 6.0 / std::max(n - 1, 1), seed);
  if (family == "ring") return make_cycle(n);
  return make_hyperbolic(n, 6.0, 2.7, seed);
}

DistributedRun run_theorem(int theorem, const Graph& g, std::uint64_t seed,
                           const EngineOptions& engine) {
  const VertexId n = g.num_vertices();
  const CarveSchedule schedule = theorem == 1   ? theorem1_schedule(n, 4)
                                 : theorem == 2 ? theorem2_schedule(n, 3)
                                                : theorem3_schedule(n, 3);
  return run_schedule_distributed(g, schedule, seed, engine);
}

void expect_identical(const DistributedRun& a, const DistributedRun& b,
                      const std::string& label) {
  ASSERT_EQ(a.run.carve.phases_used, b.run.carve.phases_used) << label;
  ASSERT_EQ(a.run.carve.retries, b.run.carve.retries) << label;
  ASSERT_EQ(a.run.carve.rounds, b.run.carve.rounds) << label;
  EXPECT_EQ(a.run.carve.status, b.run.carve.status) << label;
  const Clustering& ca = a.run.clustering();
  const Clustering& cb = b.run.clustering();
  ASSERT_EQ(ca.num_clusters(), cb.num_clusters()) << label;
  for (VertexId v = 0; v < ca.num_vertices(); ++v) {
    ASSERT_EQ(ca.cluster_of(v), cb.cluster_of(v)) << label << " v=" << v;
  }
  EXPECT_EQ(a.sim.messages, b.sim.messages) << label;
  EXPECT_EQ(a.sim.words, b.sim.words) << label;
  EXPECT_EQ(a.sim.messages_per_round, b.sim.messages_per_round) << label;
  EXPECT_EQ(a.sim.vertex_activations, b.sim.vertex_activations) << label;
}

TEST(Transport, ReliableExplicitMatchesDefault) {
  const Graph g = make_family("gnp", 96, 11);
  const DistributedRun baseline = run_theorem(1, g, 17, EngineOptions{});
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    ReliableTransport transport;
    EngineOptions engine;
    engine.threads = threads;
    engine.transport = &transport;
    expect_identical(run_theorem(1, g, 17, engine), baseline,
                     "explicit reliable, threads=" + std::to_string(threads));
  }
}

TEST(Transport, ZeroFaultFaultyMatrixBitIdentical) {
  // The refactor-fidelity matrix: a FaultyTransport whose plan cannot
  // perturb anything must reproduce the default engine exchange exactly
  // — for every theorem, family, and thread count, including shard
  // widths that do not divide the vertex count (threads=7).
  for (const int theorem : {1, 2, 3}) {
    for (const char* family : {"gnp", "ring", "hyperbolic"}) {
      const Graph g = make_family(family, 96, 5);
      const std::uint64_t seed = 41 * static_cast<std::uint64_t>(theorem);
      const DistributedRun baseline =
          run_theorem(theorem, g, seed, EngineOptions{});
      EXPECT_EQ(baseline.run.carve.status, CarveStatus::kOk);
      EXPECT_EQ(baseline.run.carve.run_retries, 0);
      EXPECT_EQ(baseline.run.carve.faults.total(), 0u);
      for (const unsigned threads : {1u, 2u, 4u, 7u}) {
        FaultyTransport transport(FaultPlan{});
        ASSERT_FALSE(transport.lossy());
        EngineOptions engine;
        engine.threads = threads;
        engine.transport = &transport;
        expect_identical(run_theorem(theorem, g, seed, engine), baseline,
                         std::string("T") + std::to_string(theorem) + " " +
                             family + " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(Transport, ChaosDeterministicAcrossThreadCounts) {
  // The chaos twin of the shard-invariance matrix: with a mixed fault
  // plan active, outcome, clustering, retry count, message totals, and
  // the fault counters themselves must be identical for every thread
  // count.
  const Graph g = make_family("gnp", 96, 5);
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_rate = 0.02;
  plan.duplicate_rate = 0.01;
  plan.delay_rate = 0.01;
  plan.max_delay_rounds = 2;
  plan.reorder_rate = 0.05;
  plan.crashes.push_back(CrashSpan{90, 96, 40});

  struct Outcome {
    DistributedRun run;
    FaultCounters faults;
  };
  std::vector<Outcome> outcomes;
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    FaultyTransport transport(plan);
    ASSERT_TRUE(transport.lossy());
    EngineOptions engine;
    engine.threads = threads;
    engine.transport = &transport;
    outcomes.push_back(Outcome{run_theorem(1, g, 23, engine), {}});
    outcomes.back().faults = outcomes.back().run.run.carve.faults;
  }
  const Outcome& first = outcomes.front();
  // The run must have actually seen faults, or the matrix proves nothing.
  EXPECT_GT(first.faults.total(), 0u);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    const std::string label = "chaos outcome " + std::to_string(i);
    EXPECT_EQ(outcomes[i].faults.dropped, first.faults.dropped) << label;
    EXPECT_EQ(outcomes[i].faults.delayed, first.faults.delayed) << label;
    EXPECT_EQ(outcomes[i].faults.duplicated, first.faults.duplicated)
        << label;
    EXPECT_EQ(outcomes[i].faults.crashed, first.faults.crashed) << label;
    EXPECT_EQ(outcomes[i].run.run.carve.run_retries,
              first.run.run.carve.run_retries)
        << label;
    expect_identical(outcomes[i].run, first.run, label);
  }
}

/// Satellite-2 regression harness: vertex 0 sends one message to vertex
/// 1 in round 0, and every vertex schedules a self-wake for round 2.
/// Under a targeted drop of that one message, vertex 1 must still run at
/// its scheduled wake — self-wakes are local timers, not network traffic.
class WakeUnderLoss final : public Protocol {
 public:
  void begin(const Graph& g) override {
    executed_.assign(static_cast<std::size_t>(g.num_vertices()), {});
    inbox_sizes_.assign(static_cast<std::size_t>(g.num_vertices()), {});
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    executed_[static_cast<std::size_t>(v)].push_back(round);
    inbox_sizes_[static_cast<std::size_t>(v)].push_back(inbox.size());
    if (round == 0) {
      if (v == 0) out.send(1, {std::uint64_t{7}});
      out.wake_self_in(2);
    }
  }
  bool finished() const override { return false; }

  std::vector<std::vector<std::size_t>> executed_;
  std::vector<std::vector<std::size_t>> inbox_sizes_;
};

TEST(Transport, TargetedDropLeavesWakeCalendarIntact) {
  const Graph g = make_path(2);
  FaultPlan plan;
  plan.targeted_drops.push_back(EdgeDrop{0, 0, 1});
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  WakeUnderLoss protocol;
  SyncEngine sim(g, engine);
  const SimMetrics metrics = sim.run(protocol, 10);

  EXPECT_EQ(metrics.faults.dropped, 1u);
  EXPECT_EQ(metrics.messages, 0u);
  // Vertex 1 never received the message...
  ASSERT_EQ(protocol.executed_[1],
            (std::vector<std::size_t>{0, 2}));  // round 0 + the round-2 wake
  EXPECT_EQ(protocol.inbox_sizes_[1], (std::vector<std::size_t>{0, 0}));
  // ...but its scheduled self-wake fired on time regardless, and the
  // run then went quiescent instead of hanging.
  EXPECT_EQ(metrics.status, RunStatus::kQuiescent);
}

/// Records, per vertex, the round of every message arrival and the
/// sender order within each round. Vertex 0 sends one fixed message to
/// each neighbor in round 0 (or every round when `chatty`).
class ArrivalRecorder final : public Protocol {
 public:
  explicit ArrivalRecorder(bool chatty = false) : chatty_(chatty) {}
  void begin(const Graph& g) override {
    arrivals_.assign(static_cast<std::size_t>(g.num_vertices()), {});
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    for (const MessageView& msg : inbox) {
      arrivals_[static_cast<std::size_t>(v)].emplace_back(round, msg.from);
    }
    if (v == 0 && (round == 0 || chatty_)) {
      out.send_to_all_neighbors({std::uint64_t{1}});
      if (chatty_) out.wake_self_in(1);
    }
  }
  bool finished() const override { return false; }

  bool chatty_;
  std::vector<std::vector<std::pair<std::size_t, VertexId>>> arrivals_;
};

TEST(Transport, DelayArrivesExactlyKRoundsLate) {
  const Graph g = make_path(2);
  FaultPlan plan;
  plan.delay_rate = 1.0;  // every message delayed...
  plan.max_delay_rounds = 1;  // ...by exactly one round
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  ArrivalRecorder protocol;
  SyncEngine sim(g, engine);
  const SimMetrics metrics = sim.run(protocol, 10);

  // Reliable delivery would arrive at round 1; the delayed copy lands at
  // round 2 — which also proves the quiescence check respects
  // Transport::pending(): at round 1 nothing is active and no wake is
  // pending, only the in-flight message keeps the run alive.
  ASSERT_EQ(protocol.arrivals_[1].size(), 1u);
  EXPECT_EQ(protocol.arrivals_[1][0],
            (std::pair<std::size_t, VertexId>{2, 0}));
  EXPECT_EQ(metrics.faults.delayed, 1u);
  EXPECT_EQ(metrics.status, RunStatus::kQuiescent);
  EXPECT_EQ(metrics.rounds, 3u);
}

TEST(Transport, DuplicateDeliversTwoCopies) {
  const Graph g = make_path(2);
  FaultPlan plan;
  plan.duplicate_rate = 1.0;
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  ArrivalRecorder protocol;
  SyncEngine sim(g, engine);
  const SimMetrics metrics = sim.run(protocol, 10);

  ASSERT_EQ(protocol.arrivals_[1].size(), 2u);
  EXPECT_EQ(protocol.arrivals_[1][0],
            (std::pair<std::size_t, VertexId>{1, 0}));
  EXPECT_EQ(protocol.arrivals_[1][1],
            (std::pair<std::size_t, VertexId>{1, 0}));
  EXPECT_EQ(metrics.faults.duplicated, 1u);
  // `messages` counts what was DELIVERED: both copies.
  EXPECT_EQ(metrics.messages, 2u);
}

TEST(Transport, CrashSpanSilencesFromRound) {
  const Graph g = make_path(2);
  FaultPlan plan;
  plan.crashes.push_back(CrashSpan{0, 1, 1});  // vertex 0 dies at round 1
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  ArrivalRecorder protocol(/*chatty=*/true);
  SyncEngine sim(g, engine);
  const SimMetrics metrics = sim.run(protocol, 4);

  // Only the round-0 send escaped; rounds 1-3 were suppressed.
  ASSERT_EQ(protocol.arrivals_[1].size(), 1u);
  EXPECT_EQ(protocol.arrivals_[1][0],
            (std::pair<std::size_t, VertexId>{1, 0}));
  EXPECT_EQ(metrics.faults.crashed, 3u);
}

TEST(Transport, CrashRecoverySpanSuppressesSenderOnlyDuringWindow) {
  // Crash-RECOVERY span: vertex 0 is down for rounds [1, 3) and then
  // rejoins. Its round-0 send lands normally; the rounds-1 and -2 sends
  // vanish; from round 3 onward traffic flows again — exactly one
  // rejoin billed when the window closes.
  const Graph g = make_path(2);
  FaultPlan plan;
  plan.crashes.push_back(
      CrashSpan{0, 1, std::uint64_t{1}, std::uint64_t{3}});
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  ArrivalRecorder protocol(/*chatty=*/true);
  SyncEngine sim(g, engine);
  const SimMetrics metrics = sim.run(protocol, 6);

  std::vector<std::size_t> rounds_seen;
  for (const auto& [round, from] : protocol.arrivals_[1]) {
    EXPECT_EQ(from, 0);
    rounds_seen.push_back(round);
  }
  EXPECT_EQ(rounds_seen, (std::vector<std::size_t>{1, 4, 5}));
  EXPECT_EQ(metrics.faults.crashed, 2u);
  EXPECT_EQ(metrics.faults.rejoined, 1u);
}

TEST(Transport, CrashRecoverySpanSuppressesInboundWhileDown) {
  // Same window on the RECEIVER: a recovery-mode outage is two-sided,
  // so sends staged while vertex 1 is down (rounds 1 and 2) never reach
  // it, while the legacy crash-stop regime below stays outbound-only.
  const Graph g = make_path(2);
  FaultPlan plan;
  plan.crashes.push_back(
      CrashSpan{1, 2, std::uint64_t{1}, std::uint64_t{3}});
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  ArrivalRecorder protocol(/*chatty=*/true);
  SyncEngine sim(g, engine);
  const SimMetrics metrics = sim.run(protocol, 6);

  std::vector<std::size_t> rounds_seen;
  for (const auto& [round, from] : protocol.arrivals_[1]) {
    rounds_seen.push_back(round);
  }
  EXPECT_EQ(rounds_seen, (std::vector<std::size_t>{1, 4, 5}));
  EXPECT_EQ(metrics.faults.crashed, 2u);
  EXPECT_EQ(metrics.faults.rejoined, 1u);
}

TEST(Transport, LegacyCrashStopReceiverStillReceives) {
  // Regression pin for the legacy regime: a CrashSpan WITHOUT a rejoin
  // round silences only the vertex's outbound sends. Vertex 1 never
  // sends here, so nothing is suppressed and every round's message
  // arrives — existing crash-stop fault plans are untouched by the
  // recovery model.
  const Graph g = make_path(2);
  FaultPlan plan;
  plan.crashes.push_back(CrashSpan{1, 2, std::uint64_t{1}});
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  ArrivalRecorder protocol(/*chatty=*/true);
  SyncEngine sim(g, engine);
  const SimMetrics metrics = sim.run(protocol, 6);

  std::vector<std::size_t> rounds_seen;
  for (const auto& [round, from] : protocol.arrivals_[1]) {
    rounds_seen.push_back(round);
  }
  EXPECT_EQ(rounds_seen, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(metrics.faults.crashed, 0u);
  EXPECT_EQ(metrics.faults.rejoined, 0u);
}

TEST(Transport, ReorderIsDeterministicAndAPermutation) {
  // Complete graph: every vertex sends its id to all others in round 0,
  // so each receiver sees 5 senders in ascending order on a reliable
  // run. Reorder marks sink stably to the back — the multiset is
  // preserved, the order changes, and the result is identical for every
  // thread count.
  const Graph g = make_gnp(6, 1.0, 1);
  class Broadcast final : public Protocol {
   public:
    void begin(const Graph& gr) override {
      order_.assign(static_cast<std::size_t>(gr.num_vertices()), {});
    }
    void on_round(VertexId v, std::size_t round,
                  std::span<const MessageView> inbox, Outbox& out) override {
      for (const MessageView& msg : inbox) {
        order_[static_cast<std::size_t>(v)].push_back(msg.from);
      }
      if (round == 0) {
        out.send_to_all_neighbors({static_cast<std::uint64_t>(v)});
      }
    }
    bool finished() const override { return false; }
    std::vector<std::vector<VertexId>> order_;
  };

  FaultPlan plan;
  plan.seed = 3;
  plan.reorder_rate = 0.5;
  std::vector<std::vector<std::vector<VertexId>>> per_thread_orders;
  for (const unsigned threads : {1u, 2u, 4u}) {
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.threads = threads;
    engine.transport = &transport;
    Broadcast protocol;
    SyncEngine sim(g, engine);
    sim.run(protocol, 5);
    per_thread_orders.push_back(protocol.order_);
  }
  bool any_reordered = false;
  for (VertexId v = 0; v < 6; ++v) {
    const std::vector<VertexId>& order =
        per_thread_orders[0][static_cast<std::size_t>(v)];
    ASSERT_EQ(order.size(), 5u) << "v=" << v;
    std::vector<VertexId> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    // Every sender delivered exactly once (a permutation, not a loss)...
    std::vector<VertexId> expected;
    for (VertexId u = 0; u < 6; ++u) {
      if (u != v) expected.push_back(u);
    }
    EXPECT_EQ(sorted, expected) << "v=" << v;
    if (order != expected) any_reordered = true;
    // ...in the same order under every thread count.
    for (std::size_t i = 1; i < per_thread_orders.size(); ++i) {
      EXPECT_EQ(per_thread_orders[i][static_cast<std::size_t>(v)], order)
          << "v=" << v << " threads index " << i;
    }
  }
  // The chosen seed must actually exercise the reorder path.
  EXPECT_TRUE(any_reordered);
}

/// Round 0: every vertex sends three unicasts to its first neighbor, one
/// broadcast, then two unicasts to its second neighbor; payload i is the
/// send's index. Records each inbox as (sender, payload) pairs.
class RepeatedSends final : public Protocol {
 public:
  void begin(const Graph& g) override {
    graph_ = &g;
    inboxes_.assign(static_cast<std::size_t>(g.num_vertices()), {});
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    for (const MessageView& msg : inbox) {
      inboxes_[static_cast<std::size_t>(v)].emplace_back(msg.from,
                                                         msg.words[0]);
    }
    if (round != 0) return;
    const std::span<const VertexId> row = graph_->neighbors(v);
    for (std::uint64_t i = 0; i < 3; ++i) out.send(row[0], {i});
    out.send_to_all_neighbors({std::uint64_t{3}});
    for (std::uint64_t i = 4; i < 6; ++i) out.send(row[1], {i});
  }
  bool finished() const override { return false; }

  const Graph* graph_ = nullptr;
  std::vector<std::vector<std::pair<VertexId, std::uint64_t>>> inboxes_;
};

TEST(Transport, OccurrenceNumbersCountRepeatsPerReceiver) {
  // The k-th copy from one sender to one receiver in a round is
  // occurrence k - 1, however the copies are split between unicasts and
  // broadcasts and whatever else the sender addresses in between. The
  // reference model replays RepeatedSends' stream in sender order and
  // keeps each copy whose (seed, round, from + 1, to + 1, occurrence)
  // draw survives the drop rate.
  const Graph g = make_cycle(24);
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.5;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::vector<std::pair<VertexId, std::uint64_t>>> expected(n);
  std::uint64_t expected_drops = 0;
  for (VertexId from = 0; from < g.num_vertices(); ++from) {
    const std::span<const VertexId> row = g.neighbors(from);
    std::vector<std::pair<VertexId, std::uint64_t>> sends;
    for (std::uint64_t i = 0; i < 3; ++i) sends.emplace_back(row[0], i);
    for (const VertexId to : row) sends.emplace_back(to, 3);
    for (std::uint64_t i = 4; i < 6; ++i) sends.emplace_back(row[1], i);
    std::vector<std::uint32_t> occurrences(n, 0);
    for (const auto& [to, payload] : sends) {
      const std::uint32_t occurrence =
          occurrences[static_cast<std::size_t>(to)]++;
      Xoshiro256ss rng(stream_seed(
          stream_seed(plan.seed, 0, static_cast<std::uint64_t>(from) + 1),
          static_cast<std::uint64_t>(to) + 1, occurrence));
      if (uniform_unit(rng) < plan.drop_rate) {
        ++expected_drops;
      } else {
        expected[static_cast<std::size_t>(to)].emplace_back(from, payload);
      }
    }
  }
  ASSERT_GT(expected_drops, 0u);
  for (const unsigned threads : {1u, 2u, 4u}) {
    FaultyTransport transport(plan);
    EngineOptions engine;
    engine.threads = threads;
    engine.transport = &transport;
    RepeatedSends protocol;
    SyncEngine sim(g, engine);
    const SimMetrics metrics = sim.run(protocol, 4);
    EXPECT_EQ(metrics.faults.dropped, expected_drops)
        << "threads=" << threads;
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(protocol.inboxes_[v], expected[v])
          << "threads=" << threads << " v=" << v;
    }
  }
}

/// Never finishes and wakes every vertex every round: the protocol shape
/// that would spin forever without a round budget.
class SpinForever final : public Protocol {
 public:
  void begin(const Graph&) override {}
  void on_round(VertexId, std::size_t, std::span<const MessageView>,
                Outbox& out) override {
    out.wake_self_in(1);
  }
  bool finished() const override { return false; }
};

TEST(Transport, RoundBudgetExhaustedIsNamed) {
  const Graph g = make_path(4);
  SpinForever protocol;
  {
    // The run() argument is the round budget.
    SyncEngine sim(g);
    const SimMetrics metrics = sim.run(protocol, 7);
    EXPECT_EQ(metrics.rounds, 7u);
    EXPECT_EQ(metrics.status, RunStatus::kRoundBudgetExhausted);
  }
  {
    // A protocol that merely goes quiet is named kQuiescent...
    ArrivalRecorder quiet;
    SyncEngine sim(g);
    const SimMetrics metrics = sim.run(quiet, 100);
    EXPECT_EQ(metrics.status, RunStatus::kQuiescent);
  }
  {
    // ...and one whose predicate fires is kFinished.
    class OneRound final : public Protocol {
     public:
      void begin(const Graph&) override {}
      void on_round(VertexId, std::size_t, std::span<const MessageView>,
                    Outbox&) override {
        done_ = true;
      }
      bool finished() const override { return done_; }
      bool done_ = false;
    };
    OneRound finishing;
    SyncEngine sim(g);
    const SimMetrics metrics = sim.run(finishing, 100);
    EXPECT_EQ(metrics.status, RunStatus::kFinished);
  }
}

TEST(Transport, StatusNamesAvoidTheInvalidKeyword) {
  // CI greps bench JSON for "INVALID" to catch silent contract
  // violations; named failure statuses must never trip that grep.
  for (const RunStatus status :
       {RunStatus::kFinished, RunStatus::kQuiescent,
        RunStatus::kRoundBudgetExhausted}) {
    EXPECT_EQ(std::string(run_status_name(status)).find("INVALID"),
              std::string::npos);
  }
  for (const CarveStatus status :
       {CarveStatus::kOk, CarveStatus::kRoundBudgetExhausted,
        CarveStatus::kStalled, CarveStatus::kRejected}) {
    EXPECT_EQ(std::string(carve_status_name(status)).find("INVALID"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dsnd
