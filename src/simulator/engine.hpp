// Synchronous message-passing simulator (the distributed substrate).
//
// Model: each vertex of the communication graph hosts a processor;
// computation proceeds in synchronous rounds. In every round each
// processor reads the messages its neighbors sent in the previous round,
// updates local state, and sends new messages (to neighbors only — the
// engine enforces adjacency). Message payloads are sequences of 64-bit
// words; the engine records per-message widths so a protocol's CONGEST
// compliance (O(1) words per message) can be asserted by tests/benches.
//
// Implementation (see docs/ARCHITECTURE.md for the shard diagram): the
// vertex set is split into `threads`-many contiguous SHARDS. Every round
// runs one path, shard by shard, with exactly one thread per shard:
//
//   stage 1 (execute): shard s runs its active vertices. Sends are
//     routed owner-computes at stage time: shard s keeps one staging
//     bucket per destination shard (records + flat payload words); a
//     record is a run of the sender's sorted neighbor row, so a
//     broadcast stages one per destination shard. A self-wake goes
//     straight into shard s's own wake calendar.
//   stage 2 (exchange + deliver): the round boundary hands the staged
//     buckets to the engine's Transport (see simulator/transport.hpp),
//     which decides what each destination shard receives — the default
//     ReliableTransport returns the bucket slices untouched, a
//     FaultyTransport may drop/delay/duplicate/reorder them. Shard t
//     then counts and marks the receivers delivered to it, read from
//     the graph's rows, and its due wakes; one ascending walk of the
//     marks lays out its inboxes and next active list. Inbox views point
//     straight into the delivering arenas (zero payload copies on the
//     reliable path); arenas are double-buffered by round parity so the
//     views stay valid while the next round stages into the other
//     parity.
//
// Both stages go through one guarded dispatch (detail::guarded_dispatch):
// on the parked worker pool, or inline on the driving thread when there
// is one worker, fewer than two active vertices, or only the small
// collect of a quiet round. Concatenating the source buckets in shard
// order reproduces the serial vertex-order send sequence (shards are
// ascending contiguous id ranges), so results and metrics are
// bit-identical for every thread / shard count. All buffers persist
// across rounds and run()s: steady-state rounds perform zero heap
// allocations.
//
// Scheduling: every vertex runs in round 0; afterwards a vertex runs in
// a round only if its inbox is nonempty or a self-wake it scheduled
// (Outbox::wake_self_in) is due — quiet vertices cost nothing. A
// protocol that acts on a round timetable schedules each step it acts
// on with an empty inbox as a wake, starting from round 0. When a run
// reaches quiescence — no active vertex, no pending wake, nothing in
// flight — the engine stops early: no future round could change state.
// Active lists, wake calendars, and quiescence counts are all
// shard-local; only the O(S) per-round roll-up runs on the driving
// thread.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "simulator/metrics.hpp"
#include "simulator/transport.hpp"
#include "support/worker_pool.hpp"

namespace dsnd {

/// A delivered message: sender plus a view of the payload words. The
/// span points into the engine's staging arenas and is valid only for
/// the duration of the on_round() call it was passed to; protocols that
/// need a payload later must copy the words.
struct MessageView {
  VertexId from = -1;
  std::span<const std::uint64_t> words;
};

/// Engine knobs. The default is deterministic single-threaded execution.
struct EngineOptions {
  /// Worker threads for vertex execution — also the shard count: the
  /// vertex set is split into this many contiguous ownership ranges.
  /// 1 = serial (default); 0 = hardware concurrency. Any value produces
  /// identical results.
  unsigned threads = 1;

  /// The transport backing the exchange+deliver stage. Borrowed, not
  /// owned; must outlive the engine's runs. nullptr (the default) uses
  /// an engine-owned ReliableTransport — today's in-process bucket
  /// exchange, bit for bit.
  Transport* transport = nullptr;

  /// When true (default), rounds in which no shard staged any message
  /// (same-shard ones included, which at one thread are all of them)
  /// and the transport holds nothing in flight
  /// (Transport::pending() == 0) skip the exchange+deliver stage
  /// entirely — no transport call, no delivery passes, no collect
  /// barrier; only wakes and active lists are updated. Results and
  /// metrics are identical either way (such a round delivers zero
  /// messages by construction); the knob exists for A/B benchmarking
  /// and for bisecting, not for correctness.
  bool elide_quiet_rounds = true;
};

namespace detail {

/// Shard-local delivery and scheduling state, owned by one worker and
/// cache-line padded so neighboring shards never share a line.
struct alignas(64) Shard {
  VertexId begin = 0;  // owned vertex range [begin, end)
  VertexId end = 0;

  // This round's inboxes for owned receivers, in ascending id; payload
  // spans into the delivering arenas. Grows only.
  std::vector<MessageView> inbox_views;

  // One bit per owned vertex (offset from begin) with mail or a due wake
  // next round, and one summary bit per mark word, so the walk skips
  // unmarked 4096-vertex blocks. All zero between rounds.
  std::vector<std::uint64_t> marks;
  std::vector<std::uint64_t> mark_summary;

  // Next round's owned active list (the whole owned range before round
  // 0) and the shard's wake calendar (power-of-two ring keyed by target
  // round).
  std::vector<VertexId> active;
  std::vector<std::vector<std::pair<std::uint64_t, VertexId>>> wake_ring;
  std::size_t pending_wakes = 0;

  // Per-round accumulators, written by every stage-2 collect and rolled
  // up by the driving thread — no cross-core contention during the
  // round.
  std::uint64_t round_messages = 0;
  std::uint64_t round_words = 0;
  std::size_t round_max_words = 0;

  void mark(VertexId v) {
    const auto bit = static_cast<std::size_t>(v - begin);
    marks[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    mark_summary[bit >> 12] |= std::uint64_t{1} << ((bit >> 6) & 63);
  }
};

/// Rethrows the first captured worker exception (lowest worker index),
/// clearing every slot first so the engine stays reusable; no-op when
/// none was captured.
void rethrow_first_error(std::span<std::exception_ptr> errors);

/// The one dispatch behind every engine stage and RoundPool::for_chunks.
/// Runs fn(w) for every worker index w in [0, errors.size()) — on `pool`
/// when non-null, else in index order on the calling thread — and
/// captures a throw in slot w. Once every worker has finished, the first
/// captured exception is rethrown on the calling thread.
template <typename F>
void guarded_dispatch(WorkerPool* pool, std::span<std::exception_ptr> errors,
                      F&& fn) {
  auto guarded = [&](unsigned w) {
    try {
      fn(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  if (pool != nullptr) {
    pool->run(guarded);
  } else {
    for (unsigned w = 0; w < errors.size(); ++w) guarded(w);
  }
  rethrow_first_error(errors);
}

}  // namespace detail

class SyncEngine;

/// Per-vertex send interface handed to Protocol::on_round.
class Outbox {
 public:
  /// Queues a message from the current vertex to neighbor `to` for
  /// delivery next round. Throws if `to` is not adjacent to the sender.
  /// The payload is copied into the engine's arena before returning.
  void send(VertexId to, std::span<const std::uint64_t> words);

  void send(VertexId to, std::initializer_list<std::uint64_t> words) {
    send(to, std::span<const std::uint64_t>(words.begin(), words.size()));
  }

  /// Queues the same payload to every neighbor of the current vertex.
  /// The payload words and one record are stored per destination shard
  /// touched; the record's receivers are that shard's run of the row.
  void send_to_all_neighbors(std::span<const std::uint64_t> words);

  void send_to_all_neighbors(std::initializer_list<std::uint64_t> words) {
    send_to_all_neighbors(
        std::span<const std::uint64_t>(words.begin(), words.size()));
  }

  /// Asks the engine to run this vertex again `rounds` rounds from now
  /// (>= 1) even if its inbox is empty: a protocol that must act at a
  /// future step of its timetable schedules the wake instead of running
  /// every round.
  void wake_self_in(std::size_t rounds);

  /// Index of the worker executing this vertex — its shard's index, <
  /// the count announced by Protocol::begin_workers. Protocols index
  /// per-worker accumulator slots with it instead of sharing atomic
  /// counters across cores.
  unsigned worker() const { return worker_; }

 private:
  friend class SyncEngine;
  Outbox(SyncEngine& engine, detail::SendStaging& staging, VertexId sender,
         unsigned worker)
      : engine_(engine), staging_(staging), sender_(sender),
        worker_(worker) {}

  /// Adjacency check: a monotone cursor over the sorted neighbor row
  /// makes in-order send sequences O(1) amortized per send; out-of-order
  /// sends fall back to binary search. On success the cursor sits at
  /// `to`, where send() stages its run of one.
  bool is_neighbor(VertexId to);

  /// The neighbor row is fetched on first use: many activations only
  /// read their inbox or schedule a wake and never pay for the lookup.
  void ensure_neighbors();

  SyncEngine& engine_;
  detail::SendStaging& staging_;
  VertexId sender_;
  unsigned worker_;
  std::span<const VertexId> neighbors_;
  std::size_t cursor_ = 0;
  bool neighbors_fetched_ = false;
};

/// Chunk-parallel helper handed to Protocol::on_round_begin, backed by
/// the engine's parked worker pool. Lets a protocol's serial pre-round
/// hook fan a bulk data-parallel fill (e.g. the carving protocol's
/// batched radius sampling) across the engine's workers without owning
/// threads of its own.
class RoundPool {
 public:
  /// `errors` holds one exception slot per worker (the engine's).
  RoundPool(WorkerPool* pool, std::span<std::exception_ptr> errors)
      : pool_(pool), errors_(errors) {}

  unsigned workers() const { return pool_ != nullptr ? pool_->workers() : 1; }

  /// Splits [0, count) into one contiguous chunk per worker and runs
  /// fn(chunk_begin, chunk_end, worker) concurrently — worker 0 on the
  /// calling thread. Small counts run as one serial chunk (the barrier
  /// costs more than the work). Chunks are disjoint, so per-index writes
  /// need no synchronization; a per-chunk fold combined with an
  /// associative + commutative operator (max, |=, +) on the caller's
  /// thread afterwards is bit-identical for every worker count. A throw
  /// from a chunk reaches the caller once every chunk has finished (see
  /// detail::guarded_dispatch).
  template <typename F>
  void for_chunks(std::size_t count, F&& fn) const {
    const bool parallel = pool_ != nullptr && count >= kMinParallelCount;
    const std::size_t chunk =
        parallel ? (count + workers() - 1) / workers() : count;
    const auto run_chunk = [&](unsigned w) {
      const std::size_t begin = std::min(count, w * chunk);
      const std::size_t end = std::min(count, begin + chunk);
      if (begin < end) fn(begin, end, w);
    };
    detail::guarded_dispatch(parallel ? pool_ : nullptr, errors_, run_chunk);
  }

 private:
  // Below this, one cache-warm serial pass beats waking the pool.
  static constexpr std::size_t kMinParallelCount = 2048;

  WorkerPool* pool_;
  std::span<std::exception_ptr> errors_;
};

/// A distributed algorithm. The engine drives all vertices through
/// synchronous rounds until finished() or a round cap.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once before the first round.
  virtual void begin(const Graph& g) = 0;

  /// Called once per run() after begin() with the number of workers that
  /// will execute rounds. Protocols that keep aggregate counters size
  /// one accumulator slot per worker here (indexed by Outbox::worker(),
  /// summed when read) instead of sharing atomics across cores.
  virtual void begin_workers(unsigned workers) { (void)workers; }

  /// Called once on the driving thread immediately before each round
  /// that will execute (after the quiescence check, before any
  /// on_round), so per-worker accumulators from the previous round may
  /// be folded and shared round-plan state advanced without
  /// synchronization — the hook for protocols whose global round
  /// timetable depends on aggregated state (e.g. the carving protocol's
  /// Las Vegas phase replay, which folds the overflow bit sampled last
  /// round to decide whether the current attempt will be aborted).
  /// Rounds it observes are consecutive; it is never called for a round
  /// the engine skips (quiescence, finished()). `pool` fans bulk
  /// data-parallel work (array fills, batched sampling) across the
  /// engine's parked workers — see RoundPool::for_chunks for the
  /// determinism contract. Default: no-op.
  virtual void on_round_begin(std::size_t round, RoundPool& pool) {
    (void)round;
    (void)pool;
  }

  /// Called in each round for every vertex that has mail or a due wake
  /// (in round 0, for every vertex), with the messages delivered to it
  /// (sent by neighbors in the previous round).
  virtual void on_round(VertexId v, std::size_t round,
                        std::span<const MessageView> inbox, Outbox& out) = 0;

  /// Checked after every round; true stops the engine. A global predicate
  /// is a simulation convenience (real deployments use termination
  /// detection); it never feeds information back into on_round decisions.
  /// Always invoked on the driving thread between rounds, so per-worker
  /// accumulators may be summed without synchronization.
  virtual bool finished() const = 0;
};

class SyncEngine {
 public:
  explicit SyncEngine(const Graph& g, EngineOptions options = {});

  /// Runs `protocol` until finished(), quiescence, or `round_budget`
  /// rounds; returns the metrics. A run that exhausts the budget ends
  /// with the named RunStatus::kRoundBudgetExhausted instead of hanging
  /// — essential under lossy transports, where a dropped message can
  /// otherwise stall a protocol that polls forever. Reusable: a second
  /// run() starts fresh but reuses all internal buffer capacity.
  SimMetrics run(Protocol& protocol, std::size_t round_budget);

  const Graph& graph() const { return graph_; }
  const EngineOptions& options() const { return options_; }

  /// The resolved transport backing the exchange stage: the borrowed
  /// EngineOptions::transport, or the engine-owned reliable default.
  const Transport& transport() const { return *transport_; }

  /// Resolved worker/shard count (threads = 0 resolves to the hardware
  /// concurrency at construction).
  unsigned workers() const { return workers_; }

 private:
  friend class Outbox;

  unsigned shard_of(VertexId v) const {
    return static_cast<unsigned>(v / shard_width_);
  }

  void reset();
  /// Stage 1 for one shard: clear this parity's staging and execute the
  /// shard's active vertices (in ascending id).
  void execute_shard(Protocol& protocol, unsigned s, unsigned parity);
  /// Stage 2 for one shard: lay out its inboxes from what the transport
  /// delivered to it, fire its due wakes, build its next active list.
  /// `deliver` is false on elided quiet rounds: the transport was not
  /// exchanged, so the delivery passes are skipped and only
  /// wakes/active lists run.
  void collect_shard(unsigned s, bool deliver);
  void ring_insert(detail::Shard& shard, std::uint64_t target, VertexId v);

  const Graph& graph_;
  const EngineOptions options_;
  // The resolved transport: options_.transport, or the engine-owned
  // reliable default. Exchange runs serially on the driving thread;
  // delivery() is read in parallel by the collect workers.
  Transport* transport_ = nullptr;
  ReliableTransport default_transport_;
  unsigned workers_ = 1;
  // The persistent worker pool (workers_ > 1 only): spawned once at
  // construction and parked between stages, rounds, and runs, so warm
  // re-runs pay zero thread setup.
  std::optional<WorkerPool> pool_;
  VertexId shard_width_ = 1;  // ceil(n / workers): shard s owns
                              // [s*width, min((s+1)*width, n))
  std::size_t current_round_ = 0;

  // Double-buffered staging, indexed [round parity][source shard]. The
  // parity written this round backs next round's inbox views; the other
  // parity's views were consumed last round and its buckets are cleared
  // when stage 1 next writes them.
  std::array<std::vector<detail::SendStaging>, 2> staging_;
  std::vector<detail::Shard> shards_;
  std::vector<std::exception_ptr> worker_errors_;

  // The graph's adjacency array: every staged record's receivers.
  const VertexId* adjacency_ = nullptr;

  // Per-vertex inbox slot, touched only by its owner's worker: the
  // message count after the collect's first pass, then the inbox's
  // begin offset, then after the scatter its end offset in the shard's
  // inbox_views (nonzero iff the vertex has mail). Zeroed when it runs.
  std::vector<std::uint32_t> inbox_slot_;

  SimMetrics metrics_;
  // The per-round message series, kept as a persistent member (copied
  // into metrics_ at run end) so its capacity survives across runs and
  // the round loop never reallocates mid-run once warmed.
  std::vector<std::uint64_t> round_messages_;
};

}  // namespace dsnd
