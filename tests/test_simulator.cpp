#include "simulator/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "support/per_worker.hpp"

namespace dsnd {
namespace {

/// One delivered message as a receiver saw it: the round it was read
/// in, the sender and the payload.
struct Delivery {
  std::size_t round = 0;
  VertexId from = -1;
  std::vector<std::uint64_t> words;

  bool operator==(const Delivery&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Delivery& d) {
  os << "{round " << d.round << ", from " << d.from << ", words";
  for (const std::uint64_t w : d.words) os << ' ' << w;
  return os << '}';
}

/// Per-vertex inbox logs, each vertex writing only its own slot.
using DeliveryLog = std::vector<std::vector<Delivery>>;

void log_inbox(DeliveryLog& log, VertexId v, std::size_t round,
               std::span<const MessageView> inbox) {
  for (const MessageView& m : inbox) {
    log[static_cast<std::size_t>(v)].push_back(
        Delivery{round, m.from, {m.words.begin(), m.words.end()}});
  }
}

void expect_same_metrics(const SimMetrics& got, const SimMetrics& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.max_message_words, want.max_message_words);
  EXPECT_EQ(got.messages_per_round, want.messages_per_round);
  EXPECT_EQ(got.vertex_activations, want.vertex_activations);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.faults, want.faults);
}

/// Floods a token from vertex 0; records the round each vertex first saw
/// it. Verifies synchronous one-hop-per-round semantics. Fully
/// message-driven: round 0 runs every vertex (seeding the flood) and
/// afterwards only reached vertices execute. Newly reached vertices are
/// counted in per-worker slots, as the engine's contract asks of
/// aggregate counters.
class FloodProtocol final : public Protocol {
 public:
  void begin(const Graph& g) override {
    seen_round_.assign(static_cast<std::size_t>(g.num_vertices()), -1);
    pending_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
    unseen_ = g.num_vertices();
    if (g.num_vertices() > 0) {
      seen_round_[0] = 0;
      pending_[0] = 1;
      --unseen_;
    }
  }

  void begin_workers(unsigned workers) override { reached_.reset(workers); }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    if (seen_round_[vi] == -1 && !inbox.empty()) {
      seen_round_[vi] = static_cast<std::int32_t>(round);
      pending_[vi] = 1;
      ++reached_[out.worker()];
    }
    if (pending_[vi]) {
      out.send_to_all_neighbors({1});
      pending_[vi] = 0;
    }
  }

  bool finished() const override {
    return reached_.fold(VertexId{0}, std::plus<>{}) == unseen_;
  }

  const std::vector<std::int32_t>& seen_round() const { return seen_round_; }

 private:
  std::vector<std::int32_t> seen_round_;
  std::vector<char> pending_;
  VertexId unseen_ = 0;  // vertices other than the source
  PerWorker<VertexId> reached_;
};

TEST(Simulator, FloodTakesDistanceRounds) {
  // On the 10,000-vertex path the one- or two-vertex frontier walks
  // past a shard's first 4096-vertex mark block, so the collect's walk
  // must find marks through its summary level.
  for (const VertexId n : {6, 10000}) {
    for (const unsigned threads : {1u, 3u}) {
      const Graph g = make_path(n);
      FloodProtocol protocol;
      EngineOptions options;
      options.threads = threads;
      SyncEngine engine(g, options);
      engine.run(protocol, static_cast<std::size_t>(n) + 1);
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(protocol.seen_round()[static_cast<std::size_t>(v)], v)
            << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(Simulator, MetricsCountMessages) {
  const Graph g = make_path(3);  // edges: 0-1, 1-2
  FloodProtocol protocol;
  SyncEngine engine(g);
  const SimMetrics metrics = engine.run(protocol, 100);
  // Round 0: v0 sends 1. Round 1: v1 sends 2. Round 2: v2 sends 1, and the
  // finished() predicate fires after that round.
  EXPECT_EQ(metrics.rounds, 3u);
  EXPECT_EQ(metrics.messages, 4u);
  EXPECT_EQ(metrics.words, 4u);
  EXPECT_EQ(metrics.max_message_words, 1u);
  EXPECT_EQ(metrics.messages_per_round.size(), metrics.rounds);
}

TEST(Simulator, RoundCapStopsRun) {
  const Graph g = make_path(50);
  FloodProtocol protocol;
  SyncEngine engine(g);
  const SimMetrics metrics = engine.run(protocol, 5);
  EXPECT_EQ(metrics.rounds, 5u);
  EXPECT_EQ(protocol.seen_round()[10], -1);  // flood did not get there
}

/// A protocol that tries to message a non-neighbor.
class IllegalSendProtocol final : public Protocol {
 public:
  void begin(const Graph&) override {}
  void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                Outbox& out) override {
    if (v == 0) out.send(2, {42});  // 0 and 2 are not adjacent in a path
  }
  bool finished() const override { return false; }
};

TEST(Simulator, RejectsSendToNonNeighbor) {
  const Graph g = make_path(3);
  IllegalSendProtocol protocol;
  SyncEngine engine(g);
  EXPECT_THROW(engine.run(protocol, 2), std::invalid_argument);
}

/// Sends to neighbors in non-monotone order: exercises the Outbox's
/// binary-search fallback behind the in-order cursor fast path.
class OutOfOrderSendProtocol final : public Protocol {
 public:
  void begin(const Graph&) override { received_ = 0; }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    if (v == 0 && round == 0) {
      out.send(3, {3});
      out.send(1, {1});  // backwards: cursor must repark
      out.send(1, {10});  // repeat to the same neighbor
      out.send(2, {2});
      EXPECT_THROW(out.send(0, {0}), std::invalid_argument);  // self
    }
    received_ += inbox.size();
  }
  bool finished() const override { return false; }
  std::size_t received() const { return received_; }

 private:
  std::size_t received_ = 0;
};

TEST(Simulator, OutOfOrderSendsAreValidatedAndDelivered) {
  const Graph g = make_star(4);  // hub 0, leaves 1..3
  OutOfOrderSendProtocol protocol;
  SyncEngine engine(g);
  const SimMetrics metrics = engine.run(protocol, 2);
  EXPECT_EQ(metrics.messages, 4u);
  EXPECT_EQ(protocol.received(), 4u);
}

/// One send of the mixed-send protocol: a unicast to `to`, or a
/// broadcast when `to` is -1.
struct MixedSend {
  VertexId to = -1;
  std::vector<std::uint64_t> words;
};

/// What vertex u sends in round r, in order: broadcasts interleaved with
/// unicasts, among them a backwards one (to the row's first entry after
/// its last) and a repeat to the same neighbor. Payloads carry (u, r,
/// step) and vary in width.
std::vector<MixedSend> mixed_sends(const Graph& g, VertexId u,
                                   std::size_t r) {
  const std::span<const VertexId> row = g.neighbors(u);
  const auto payload = [&](std::initializer_list<std::uint64_t> tail) {
    std::vector<std::uint64_t> words{static_cast<std::uint64_t>(u), r};
    words.insert(words.end(), tail);
    return words;
  };
  std::vector<MixedSend> sends;
  sends.push_back({-1, payload({0})});
  sends.push_back({row.back(), payload({1, 7})});
  sends.push_back({row.front(), payload({2})});  // backwards
  sends.push_back({row.front(), payload({3})});  // repeat
  if ((static_cast<std::size_t>(u) + r) % 2 == 0) {
    sends.push_back({-1, payload({4, 8, 9})});
  }
  sends.push_back({row[row.size() / 2], payload({5})});
  return sends;
}

/// Every vertex makes its mixed sends in rounds 0..kSendRounds-1 and
/// logs every inbox.
class MixedSendProtocol final : public Protocol {
 public:
  static constexpr std::size_t kSendRounds = 3;

  void begin(const Graph& g) override {
    graph_ = &g;
    log_.assign(static_cast<std::size_t>(g.num_vertices()), {});
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    log_inbox(log_, v, round, inbox);
    if (round >= kSendRounds) return;
    for (const MixedSend& send : mixed_sends(*graph_, v, round)) {
      if (send.to < 0) {
        out.send_to_all_neighbors(send.words);
      } else {
        out.send(send.to, send.words);
      }
    }
  }
  bool finished() const override { return false; }
  const DeliveryLog& log() const { return log_; }

 private:
  const Graph* graph_ = nullptr;
  DeliveryLog log_;
};

TEST(Simulator, RunRecordsKeepSenderSerialOrder) {
  // A ring of 13 plus chords: rows straddle the shard boundaries of
  // every thread count below, and vertex 0's row {1, 5, 9, 11, 12}
  // spans three shards at 3 threads (width 5), four at 4 and five at 7.
  GraphBuilder builder(13);
  for (VertexId v = 0; v < 13; ++v) builder.add_edge(v, (v + 1) % 13);
  for (const auto& [u, v] : {std::pair<VertexId, VertexId>{0, 5},
                             {0, 9}, {0, 11}, {6, 12}, {3, 8}, {2, 10}}) {
    builder.add_edge(u, v);
  }
  const Graph g = std::move(builder).build();

  // The reference model: senders in id order, each one's sends in
  // order, a broadcast reaching the row in ascending id.
  DeliveryLog expected(13);
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::size_t max_words = 0;
  for (std::size_t r = 0; r < MixedSendProtocol::kSendRounds; ++r) {
    for (VertexId u = 0; u < 13; ++u) {
      for (const MixedSend& send : mixed_sends(g, u, r)) {
        const std::vector<VertexId> receivers =
            send.to < 0 ? std::vector<VertexId>(g.neighbors(u).begin(),
                                                g.neighbors(u).end())
                        : std::vector<VertexId>{send.to};
        for (const VertexId w : receivers) {
          expected[static_cast<std::size_t>(w)].push_back(
              Delivery{r + 1, u, send.words});
          ++messages;
          words += send.words.size();
          max_words = std::max(max_words, send.words.size());
        }
      }
    }
  }

  for (const bool faulty : {false, true}) {
    for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
      SCOPED_TRACE(::testing::Message()
                   << (faulty ? "zero-fault FaultyTransport" : "reliable")
                   << " threads=" << threads);
      FaultyTransport transport(FaultPlan{});
      EngineOptions options;
      options.threads = threads;
      if (faulty) options.transport = &transport;
      MixedSendProtocol protocol;
      SyncEngine engine(g, options);
      const SimMetrics metrics =
          engine.run(protocol, MixedSendProtocol::kSendRounds + 1);
      EXPECT_EQ(protocol.log(), expected);
      EXPECT_EQ(metrics.messages, messages);
      EXPECT_EQ(metrics.words, words);
      EXPECT_EQ(metrics.max_message_words, max_words);
    }
  }
}

/// Ping-pong between two vertices; checks delivery latency of exactly one
/// round and that from-fields are correct.
class PingPongProtocol final : public Protocol {
 public:
  void begin(const Graph&) override {
    received_.clear();
    sent_first_ = false;
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    if (v == 0 && round == 0 && !sent_first_) {
      out.send(1, {100});
      sent_first_ = true;
    }
    for (const MessageView& m : inbox) {
      received_.push_back({v, static_cast<VertexId>(m.from),
                           static_cast<std::int64_t>(round), m.words[0]});
      if (m.words[0] < 103) out.send(m.from, {m.words[0] + 1});
    }
  }

  bool finished() const override { return received_.size() >= 4; }

  struct Event {
    VertexId at;
    VertexId from;
    std::int64_t round;
    std::uint64_t value;
  };
  const std::vector<Event>& received() const { return received_; }

 private:
  std::vector<Event> received_;
  bool sent_first_ = false;
};

TEST(Simulator, PingPongAlternates) {
  const Graph g = make_path(2);
  PingPongProtocol protocol;
  SyncEngine engine(g);
  engine.run(protocol, 20);
  const auto& events = protocol.received();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].at, 1);
  EXPECT_EQ(events[0].from, 0);
  EXPECT_EQ(events[0].round, 1);
  EXPECT_EQ(events[0].value, 100u);
  EXPECT_EQ(events[1].at, 0);
  EXPECT_EQ(events[1].value, 101u);
  EXPECT_EQ(events[3].value, 103u);
}

/// Runs every vertex every round: forwards each call to `inner`, then
/// wakes the vertex for the next round (round 0 already runs every
/// vertex). The every-vertex side of the scheduling comparisons below.
class EveryVertex final : public Protocol {
 public:
  explicit EveryVertex(Protocol& inner) : inner_(inner) {}

  void begin(const Graph& g) override { inner_.begin(g); }
  void begin_workers(unsigned workers) override {
    inner_.begin_workers(workers);
  }
  void on_round_begin(std::size_t round, RoundPool& pool) override {
    inner_.on_round_begin(round, pool);
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    inner_.on_round(v, round, inbox, out);
    out.wake_self_in(1);
  }
  bool finished() const override { return inner_.finished(); }

 private:
  Protocol& inner_;
};

/// Vertex 0 emits a pulse every kPeriod rounds via self-wakes; everyone
/// else only forwards pulses one hop when one arrives. Long quiet
/// phases: most vertices are idle in most rounds.
class PulseProtocol final : public Protocol {
 public:
  static constexpr std::size_t kPeriod = 8;

  void begin(const Graph& g) override {
    n_ = g.num_vertices();
    forwarded_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    if (v == 0) {
      if (round % kPeriod == 0) {
        out.send(1, {round});
        out.wake_self_in(kPeriod);
      }
      return;
    }
    for (const MessageView& m : inbox) {
      if (m.from == v - 1 && v + 1 < n_) {
        out.send(v + 1, {m.words[0]});
      }
      ++forwarded_[static_cast<std::size_t>(v)];
    }
  }

  bool finished() const override { return false; }

  std::uint64_t total_forwarded() const {
    std::uint64_t sum = 0;
    for (const char c : forwarded_) sum += static_cast<std::uint64_t>(c);
    return sum;
  }

 private:
  VertexId n_ = 0;
  std::vector<char> forwarded_;
};

TEST(Simulator, ActiveSchedulingSkipsQuietVertices) {
  const Graph g = make_path(64);
  const std::size_t rounds = 40;

  PulseProtocol scheduled;
  SyncEngine engine_on(g);
  const SimMetrics on = engine_on.run(scheduled, rounds);

  PulseProtocol unscheduled;
  EveryVertex every_vertex(unscheduled);
  SyncEngine engine_off(g);
  const SimMetrics off = engine_off.run(every_vertex, rounds);

  // Identical protocol behavior...
  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.messages, off.messages);
  EXPECT_EQ(on.messages_per_round, off.messages_per_round);
  EXPECT_EQ(scheduled.total_forwarded(), unscheduled.total_forwarded());
  // ...but without the wrapper the engine ran only the vertices that
  // had work.
  EXPECT_EQ(off.vertex_activations, 64u * rounds);
  EXPECT_LT(on.vertex_activations, off.vertex_activations / 4);
}

TEST(Simulator, QuiescenceStopsScheduledRunEarly) {
  // One message at round 0, then silence with no wakes pending: the
  // engine stops once nothing can ever change again, while the same
  // protocol run on every vertex every round runs to the cap. Both
  // report exact per-round message counts with quiet rounds as explicit
  // zeros.
  class OneShot final : public Protocol {
   public:
    void begin(const Graph&) override {}
    void on_round(VertexId v, std::size_t round,
                  std::span<const MessageView>, Outbox& out) override {
      if (v == 0 && round == 0) out.send(1, {7});
    }
    bool finished() const override { return false; }
  };
  const Graph g = make_path(3);

  OneShot scheduled;
  SyncEngine engine_on(g);
  const SimMetrics on = engine_on.run(scheduled, 6);
  // Round 0 sends, round 1 delivers, then quiescence.
  EXPECT_EQ(on.rounds, 2u);
  EXPECT_EQ(on.messages_per_round,
            (std::vector<std::uint64_t>{1, 0}));

  OneShot unscheduled;
  EveryVertex every_vertex(unscheduled);
  SyncEngine engine_off(g);
  const SimMetrics off = engine_off.run(every_vertex, 6);
  EXPECT_EQ(off.rounds, 6u);
  EXPECT_EQ(off.messages_per_round,
            (std::vector<std::uint64_t>{1, 0, 0, 0, 0, 0}));
  EXPECT_EQ(off.messages_per_round.size(), off.rounds);

  // An empty graph has no vertex to run: quiescent before round 0.
  const Graph empty;
  OneShot idle;
  SyncEngine empty_engine(empty);
  const SimMetrics none = empty_engine.run(idle, 6);
  EXPECT_EQ(none.rounds, 0u);
  EXPECT_EQ(none.status, RunStatus::kQuiescent);
  EXPECT_TRUE(none.messages_per_round.empty());
}

TEST(Simulator, WakeSelfRequiresPositiveDelay) {
  class BadWake final : public Protocol {
   public:
    void begin(const Graph&) override {}
    void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                  Outbox& out) override {
      if (v == 0) out.wake_self_in(0);
    }
    bool finished() const override { return false; }
  };
  const Graph g = make_path(2);
  BadWake protocol;
  SyncEngine engine(g);
  EXPECT_THROW(engine.run(protocol, 2), std::invalid_argument);
}

/// Same seed must give a bit-identical clustering and identical message
/// metrics for every engine configuration: one worker or many. This is
/// the contract that makes parallelism a pure optimization.
TEST(Simulator, DeterministicAcrossThreads) {
  const Graph g = make_gnp(400, 8.0 / 399.0, 11);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4);

  EngineOptions baseline;  // serial
  const DistributedRun reference =
      run_schedule_distributed(g, schedule, 99, baseline);

  std::vector<EngineOptions> variants;
  EngineOptions two_threads;
  two_threads.threads = 2;
  variants.push_back(two_threads);
  EngineOptions hardware_threads;
  hardware_threads.threads = 0;
  variants.push_back(hardware_threads);
  EngineOptions seven_threads;  // does not divide n: uneven shards
  seven_threads.threads = 7;
  variants.push_back(seven_threads);

  for (const EngineOptions& variant : variants) {
    const DistributedRun run =
        run_schedule_distributed(g, schedule, 99, variant);
    EXPECT_EQ(run.sim.rounds, reference.sim.rounds);
    EXPECT_EQ(run.sim.messages, reference.sim.messages);
    EXPECT_EQ(run.sim.words, reference.sim.words);
    EXPECT_EQ(run.sim.max_message_words, reference.sim.max_message_words);
    EXPECT_EQ(run.sim.messages_per_round, reference.sim.messages_per_round);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(run.run.clustering().cluster_of(v),
                reference.run.clustering().cluster_of(v));
    }
  }

  // Scheduling is the whole point: the carve runs strictly fewer
  // vertices than every vertex every round.
  EXPECT_LT(reference.sim.vertex_activations,
            static_cast<std::uint64_t>(g.num_vertices()) *
                reference.sim.rounds);
}

/// Every vertex checks that its worker index stays inside the count the
/// engine announced via begin_workers, and that vertices are executed by
/// the worker owning their shard (contiguous ranges) whenever the round
/// runs parallel. Every vertex wakes itself every round.
class WorkerIndexProtocol final : public Protocol {
 public:
  void begin(const Graph& g) override {
    n_ = g.num_vertices();
    announced_ = 0;
  }
  void begin_workers(unsigned workers) override { announced_ = workers; }
  void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                Outbox& out) override {
    // Recorded, not EXPECTed: on_round may run on pool threads and gtest
    // assertions are only thread-safe on the main thread.
    if (announced_ == 0 || out.worker() >= announced_) {
      violation_.store(true, std::memory_order_relaxed);
    }
    out.send_to_all_neighbors({static_cast<std::uint64_t>(v)});
    out.wake_self_in(1);
  }
  bool finished() const override { return false; }
  unsigned announced() const { return announced_; }
  bool violated() const { return violation_.load(); }

 private:
  VertexId n_ = 0;
  unsigned announced_ = 0;
  std::atomic<bool> violation_{false};
};

TEST(Simulator, BeginWorkersAnnouncesResolvedCount) {
  const Graph g = make_path(40);
  for (const unsigned threads : {1u, 3u, 7u}) {
    WorkerIndexProtocol protocol;
    EngineOptions options;
    options.threads = threads;
    SyncEngine engine(g, options);
    engine.run(protocol, 4);
    EXPECT_EQ(protocol.announced(), threads);
    EXPECT_EQ(engine.workers(), threads);
    EXPECT_FALSE(protocol.violated());
  }
  // More threads than vertices: the engine clamps the shard count.
  WorkerIndexProtocol protocol;
  EngineOptions options;
  options.threads = 64;
  const Graph tiny = make_path(5);
  SyncEngine engine(tiny, options);
  engine.run(protocol, 2);
  EXPECT_EQ(protocol.announced(), 5u);
  EXPECT_FALSE(protocol.violated());
}

TEST(Simulator, FloodIdenticalAcrossShardCounts) {
  const Graph g = make_gnp(300, 6.0 / 299.0, 17);
  FloodProtocol reference;
  SyncEngine serial(g);
  const SimMetrics base = serial.run(reference, 100);
  for (const unsigned threads : {2u, 5u, 8u}) {
    FloodProtocol protocol;
    EngineOptions options;
    options.threads = threads;
    SyncEngine engine(g, options);
    const SimMetrics metrics = engine.run(protocol, 100);
    EXPECT_EQ(metrics.rounds, base.rounds);
    EXPECT_EQ(metrics.messages, base.messages);
    EXPECT_EQ(metrics.messages_per_round, base.messages_per_round);
    EXPECT_EQ(protocol.seen_round(), reference.seen_round());
  }
}

/// Round 0: every vertex sends its id to its neighbors and vertex 0
/// starts a token walking up the path; round 1 runs every vertex again
/// (each has mail) and vertex 1 forwards the token; from round 2 on the
/// token holder is the round's only active vertex. Armed, it throws
/// once: from vertex `throw_at` in round `throw_round`. Each vertex
/// records the last round it ran in (its own slot, so pooled rounds
/// share no state).
class ThrowOnceProtocol final : public Protocol {
 public:
  static constexpr std::uint64_t kToken = ~std::uint64_t{0};

  ThrowOnceProtocol(std::size_t throw_round, VertexId throw_at)
      : throw_round_(throw_round), throw_at_(throw_at) {}

  void begin(const Graph& g) override {
    n_ = g.num_vertices();
    last_round_.assign(static_cast<std::size_t>(n_), 0);
    log_.assign(static_cast<std::size_t>(n_), {});
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    last_round_[static_cast<std::size_t>(v)] = round;
    log_inbox(log_, v, round, inbox);
    // Only the throwing vertex reads armed_.
    if (round == throw_round_ && v == throw_at_ && armed_) {
      armed_ = false;
      throw std::runtime_error("planned on_round failure");
    }
    if (round == 0) {
      out.send_to_all_neighbors({static_cast<std::uint64_t>(v)});
      if (v == 0) out.send(1, {kToken});
      return;
    }
    for (const MessageView& m : inbox) {
      if (m.words[0] == kToken && v + 1 < n_) out.send(v + 1, {kToken});
    }
  }
  bool finished() const override { return false; }

  std::size_t last_round() const {
    return *std::max_element(last_round_.begin(), last_round_.end());
  }
  const DeliveryLog& log() const { return log_; }

 private:
  std::size_t throw_round_;
  VertexId throw_at_;
  VertexId n_ = 0;
  bool armed_ = true;
  std::vector<std::size_t> last_round_;
  DeliveryLog log_;
};

TEST(Simulator, OnRoundThrowReachesCallerAndEngineRecovers) {
  // A throw from on_round reaches the caller at the end of the round it
  // was thrown in, whichever way that round ran: inline on the driving
  // thread (round 5 has one active vertex) or, with threads > 1, on the
  // pool (round 1 runs every vertex, and vertex 63 sits in the last
  // shard). When vertex 1 throws in round 1, the rest of its shard never
  // reads the mail laid out for it. A second run() on the same engine
  // then sees the inboxes and metrics of a fresh engine's run.
  const Graph g = make_path(64);
  struct Failure {
    std::size_t round;
    VertexId vertex;
  };
  for (const unsigned threads : {1u, 2u, 4u}) {
    EngineOptions options;
    options.threads = threads;
    ThrowOnceProtocol clean(std::numeric_limits<std::size_t>::max(), 0);
    SyncEngine fresh(g, options);
    const SimMetrics expected = fresh.run(clean, 200);
    ASSERT_EQ(expected.status, RunStatus::kQuiescent);
    ASSERT_EQ(expected.rounds, 64u);
    for (const Failure failure :
         {Failure{5, 5}, Failure{1, 63}, Failure{1, 1}}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " round=" << failure.round);
      ThrowOnceProtocol protocol(failure.round, failure.vertex);
      SyncEngine engine(g, options);
      try {
        engine.run(protocol, 200);
        ADD_FAILURE() << "the planned throw did not reach the caller";
      } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "planned on_round failure");
      }
      EXPECT_EQ(protocol.last_round(), failure.round);
      expect_same_metrics(engine.run(protocol, 200), expected);
      EXPECT_EQ(protocol.log(), clean.log());
    }
  }
}

/// Every vertex broadcasts in rounds 0 and 1, schedules one self-wake
/// in round 0, and logs every inbox. finished() fires once round
/// `stop_after` has run.
class StoppableBroadcast final : public Protocol {
 public:
  StoppableBroadcast(std::size_t stop_after, std::size_t wake_delay)
      : stop_after_(stop_after), wake_delay_(wake_delay) {}

  void begin(const Graph& g) override {
    log_.assign(static_cast<std::size_t>(g.num_vertices()), {});
    rounds_begun_ = 0;
  }
  void on_round_begin(std::size_t round, RoundPool&) override {
    rounds_begun_ = round + 1;
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    log_inbox(log_, v, round, inbox);
    if (round < 2) out.send_to_all_neighbors({static_cast<std::uint64_t>(v)});
    if (round == 0) out.wake_self_in(wake_delay_);
  }
  bool finished() const override { return rounds_begun_ > stop_after_; }
  const DeliveryLog& log() const { return log_; }

 private:
  std::size_t stop_after_;
  std::size_t wake_delay_;
  std::size_t rounds_begun_ = 0;
  DeliveryLog log_;
};

TEST(Simulator, RunStoppedWithMailUnreadLeavesNothingBehind) {
  // finished() stops the first run after round 1: round 1's broadcast
  // is laid out in the inboxes but never read, and the round-3 wakes
  // are still pending. The next run on the same engine (wakes at round
  // 4) must see exactly what a fresh engine's run sees, also when every
  // vertex runs every round.
  const Graph g = make_gnp(200, 6.0 / 199.0, 3);
  const std::size_t never = std::numeric_limits<std::size_t>::max();
  for (const bool every_vertex : {false, true}) {
    const auto run = [every_vertex](SyncEngine& engine,
                                    StoppableBroadcast& protocol) {
      if (!every_vertex) return engine.run(protocol, 8);
      EveryVertex wrapped(protocol);
      return engine.run(wrapped, 8);
    };
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "every_vertex=" << every_vertex
                                        << " threads=" << threads);
      EngineOptions options;
      options.threads = threads;
      StoppableBroadcast fresh_protocol(never, 4);
      SyncEngine fresh(g, options);
      const SimMetrics expected = run(fresh, fresh_protocol);

      SyncEngine engine(g, options);
      StoppableBroadcast stopped(1, 3);
      const SimMetrics first = run(engine, stopped);
      ASSERT_EQ(first.status, RunStatus::kFinished);
      ASSERT_EQ(first.rounds, 2u);
      ASSERT_GT(first.messages_per_round[1], 0u);

      StoppableBroadcast again(never, 4);
      expect_same_metrics(run(engine, again), expected);
      EXPECT_EQ(again.log(), fresh_protocol.log());
    }
  }
}

TEST(SimMetrics, AveragesAndFormatting) {
  SimMetrics metrics;
  metrics.rounds = 3;
  metrics.messages = 3;
  metrics.words = 9;
  metrics.max_message_words = 5;
  metrics.messages_per_round = {2, 0, 1};
  EXPECT_DOUBLE_EQ(metrics.avg_messages_per_round(), 1.0);
  EXPECT_NE(metrics.to_string().find("messages=3"), std::string::npos);
  EXPECT_EQ(SimMetrics{}.avg_messages_per_round(), 0.0);
}

}  // namespace
}  // namespace dsnd
