// The transport seam behind the engine's exchange+deliver stage.
//
// A round of the sharded engine has two halves: shards stage sends into
// per-(source shard, destination shard) buckets, and the round boundary
// hands each destination shard the bucket slices addressed to it. The
// Transport interface owns that hand-off: the engine stages into the
// wire-format structs below and then asks the transport what each shard
// actually RECEIVES this round. Swapping the transport swaps the network
// without touching the engine, the protocols, or the staging path — the
// seam a future socket/MPI backend would implement directly (ROADMAP:
// multi-process backend).
//
//   ReliableTransport   delivers exactly what was staged: its slices
//                       alias the staging buckets directly (zero copies,
//                       zero allocations in steady state), reproducing
//                       the pre-seam engine bit for bit.
//   FaultyTransport     reads the staging buckets itself and applies a
//                       deterministic, seeded FaultPlan to them:
//                       per-message drop, duplication, bounded delay (a
//                       small calendar of copied payloads), within-round
//                       reordering, and crash-stop vertex ranges that go
//                       silent from a configured round.
//
// Determinism contract: every fault decision is drawn from a stream
// keyed by (fault_seed, round, from, to, occurrence) — the stream-split
// scheme the generators and the carving samplers already use — and the
// per-receiver delivery order is defined in shard-count-invariant terms
// (sender serial order; due-delayed before fresh; reorder = stable sink
// to the back). A chaos run is therefore bit-identical across
// thread/shard counts, exactly like a reliable run.
//
// Self-wakes (Outbox::wake_self_in) are local timers, not network
// traffic: they go straight into the sender's shard calendar and never
// reach the transport — a vertex whose expected message was dropped
// still gets its scheduled wake (no permanently-asleep vertices under
// loss).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "simulator/metrics.hpp"

namespace dsnd {

namespace detail {

/// One staged record: sender, the payload's location in the bucket's
/// word arena, and receivers adjacency[first, first + count) of the
/// engine's graph — a run of the sender's sorted row inside one
/// destination shard. 64-bit offsets keep >4G-word rounds valid.
struct MsgHeader {
  VertexId from = -1;
  std::uint32_t length = 0;
  std::size_t word_begin = 0;
  std::int64_t first = 0;
  std::uint32_t count = 0;
};

/// One (source shard -> destination shard) staging bucket: records and
/// flat payload words. Capacity persists across rounds.
struct ShardBucket {
  std::vector<MsgHeader> headers;
  std::vector<std::uint64_t> words;

  void clear() {
    headers.clear();
    words.clear();
  }
};

/// One source shard's send staging for one round parity: one bucket per
/// destination shard. Only the thread executing the shard writes it; the
/// round boundary exchanges bucket slices instead of merging arenas.
struct SendStaging {
  std::vector<ShardBucket> buckets;

  void clear_round() {
    for (ShardBucket& bucket : buckets) bucket.clear();
  }
};

/// Total records staged across every (source, destination) bucket:
/// nonzero iff anything was staged, which is the engine's quiet-round
/// predicate (O(workers^2) bucket-size sums, no record scan).
std::size_t staged_record_count(std::span<const SendStaging> staging);

}  // namespace detail

/// One contiguous run of delivered records plus the word arena their
/// word_begin offsets index into. A shard's inbox is built by scanning
/// its slices in order; payload views alias `words` directly, so the
/// transport must keep the arena alive until the NEXT round's exchange
/// (the engine's double-buffering contract).
struct TransportSlice {
  std::span<const detail::MsgHeader> headers;
  const std::uint64_t* words = nullptr;
};

/// Engine geometry handed to Transport::begin_run: how vertex ids map to
/// shards this run (v / shard_width) and the adjacency records index.
struct TransportGeometry {
  unsigned shards = 1;
  VertexId shard_width = 1;
  VertexId num_vertices = 0;
  std::span<const VertexId> adjacency;

  unsigned shard_of(VertexId v) const {
    return static_cast<unsigned>(v / shard_width);
  }
};

/// The exchange+deliver stage as an interface. Lifecycle per engine
/// run(): begin_run once, then per round one serial exchange() (between
/// the execute and collect stages, on the driving thread) followed by
/// delivery(s) calls from the per-shard collect workers (read-only,
/// safe in parallel).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Called once per engine run() before the first round; resets any
  /// carried state (delay calendars, counters) and sizes per-shard
  /// structures.
  virtual void begin_run(const TransportGeometry& geometry) = 0;

  /// Hands the transport this round's staged sends: one SendStaging per
  /// source shard (the current parity's). The transport prepares what
  /// each destination shard will receive. Serial, driving thread only.
  ///
  /// Elision contract: on a round where no shard staged a message AND
  /// pending() == 0, the engine MAY skip exchange() — and every
  /// delivery() read — entirely (the quiet-round fast path). Such a
  /// round delivers nothing by construction for any transport whose
  /// traffic originates from the staged sends; a transport whose
  /// deliveries can arrive from elsewhere (e.g. a process-boundary
  /// backend receiving remote slices) must account for them in
  /// pending(), which both blocks the elision and the engine's
  /// quiescence detection. round_faults() is NOT queried for a skipped
  /// round — the engine adds no faults for it.
  virtual void exchange(std::size_t round,
                        std::span<detail::SendStaging> staging) = 0;

  /// The slices destination shard `s` receives this round, in delivery
  /// order. Scanning them in order yields every receiver's inbox in its
  /// final order. Valid until the next exchange() of the same parity.
  virtual std::span<const TransportSlice> delivery(unsigned s) const = 0;

  /// Messages accepted but not yet delivered (in-flight delays). The
  /// engine must not declare quiescence while this is nonzero: a pending
  /// delivery can still change protocol state.
  virtual std::size_t pending() const { return 0; }

  /// True when this transport can deliver something other than exactly
  /// what was staged. Gates the carve layer's verify-and-recover loop
  /// and relaxes its exhaustion invariant into a named failure status.
  virtual bool lossy() const { return false; }

  /// Fault events injected by the last exchange() (zeros for fault-free
  /// transports). The engine rolls these into SimMetrics per round.
  virtual FaultCounters round_faults() const { return {}; }
};

/// Delivers exactly what was staged: slice (w, s) aliases staging bucket
/// (w, s), in source-shard order — the serial send order, which is what
/// makes results bit-identical for every shard count. Zero payload
/// copies, zero steady-state allocations.
class ReliableTransport final : public Transport {
 public:
  void begin_run(const TransportGeometry& geometry) override;
  void exchange(std::size_t round,
                std::span<detail::SendStaging> staging) override;
  std::span<const TransportSlice> delivery(unsigned s) const override;

 private:
  unsigned shards_ = 1;
  // slices_[s] holds one slice per source shard, rewritten in place
  // each exchange (capacity persists across rounds and runs).
  std::vector<std::vector<TransportSlice>> slices_;
};

/// Rejoin sentinel for CrashSpan: the crashed range never comes back
/// (the PR 7 crash-STOP semantics).
inline constexpr std::uint64_t kNeverRejoins = ~std::uint64_t{0};

/// A vertex id range [begin, end) that crashes at `round`. Two regimes:
///
///   rejoin == kNeverRejoins (default): crash-STOP, the legacy model.
///     From `round` on the transport suppresses every message these
///     vertices SEND (fail-silent; the simulated processor still runs
///     locally, its traffic just never leaves the NIC). Inbound traffic
///     still arrives — the node is a black hole only outward.
///   rejoin < kNeverRejoins: crash-RECOVERY. The range is DOWN for
///     rounds [round, rejoin): both its sends and the deliveries
///     addressed to it (fresh and due-delayed alike) are suppressed and
///     billed as `crashed`. From `rejoin` on it participates normally
///     again, and the transport counts one `rejoined` event per vertex.
///     The simulation keeps the vertex's local state across the outage —
///     the abstraction a real deployment earns by reloading the
///     phase-boundary checkpoint on rejoin (decomposition/checkpoint.hpp)
///     — and self-wakes never route through the transport, so the wake
///     calendar stays in sync by construction.
///
/// Ranges rather than shard ids keep the plan independent of the
/// engine's shard count. Spans overlapping on a vertex merge to their
/// hull: crash = min, rejoin = max (any crash-stop span pins the vertex
/// down forever).
struct CrashSpan {
  VertexId begin = 0;
  VertexId end = 0;  // exclusive
  std::uint64_t round = 0;
  std::uint64_t rejoin = kNeverRejoins;  // exclusive end of the outage
};

/// One surgically targeted drop: the message(s) from `from` to `to`
/// staged in round `round` vanish. The deterministic scalpel for
/// regression tests (e.g. the wake-calendar-under-loss test) where a
/// rate would be a shotgun.
struct EdgeDrop {
  std::uint64_t round = 0;
  VertexId from = -1;
  VertexId to = -1;
};

/// A deterministic fault schedule. Every per-message decision is drawn
/// from the stream keyed by (seed, round, from, to, occurrence), so the
/// same plan on the same protocol traffic injects the same faults
/// regardless of thread/shard count.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability a message is dropped outright.
  double drop_rate = 0.0;
  /// Probability a message is delivered twice (copies scheduled
  /// independently, so one copy may be delayed while the other is not).
  double duplicate_rate = 0.0;
  /// Probability a message copy is delayed by 1..max_delay_rounds extra
  /// rounds (uniform), delivered late via the transport's calendar.
  double delay_rate = 0.0;
  std::uint32_t max_delay_rounds = 1;
  /// Probability a message copy is reordered: marked copies sink,
  /// stably, behind every unmarked message of the same round's delivery.
  double reorder_rate = 0.0;
  /// Crash-stop schedule (fail-silent senders from a given round).
  std::vector<CrashSpan> crashes;
  /// Targeted single-message drops, applied before any random decision.
  std::vector<EdgeDrop> targeted_drops;

  /// True when the plan can actually perturb delivery. An all-zero plan
  /// makes FaultyTransport a bit-exact (if copying) relay.
  bool any() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0 ||
           reorder_rate > 0.0 || !crashes.empty() || !targeted_drops.empty();
  }
};

/// Applies a FaultPlan to the staged sends, read straight from the
/// staging buckets in source-shard order. Surviving payloads are copied
/// into parity-buffered arenas (delayed ones additionally through the
/// calendar), so the aliasing lifetime contract of TransportSlice holds
/// just like the reliable path.
class FaultyTransport final : public Transport {
 public:
  explicit FaultyTransport(FaultPlan plan);

  void begin_run(const TransportGeometry& geometry) override;
  void exchange(std::size_t round,
                std::span<detail::SendStaging> staging) override;
  std::span<const TransportSlice> delivery(unsigned s) const override;
  std::size_t pending() const override { return pending_; }
  bool lossy() const override { return plan_.any(); }
  FaultCounters round_faults() const override { return round_faults_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  /// A delayed message copy parked in the calendar: a run of one whose
  /// offsets index the owning slot's word arena and the adjacency array;
  /// `reorder` was drawn at send time.
  struct DelayedMsg {
    detail::MsgHeader header;
    bool reorder = false;
  };
  struct DelaySlot {
    std::vector<DelayedMsg> msgs;
    std::vector<std::uint64_t> words;
  };
  /// One destination shard's delivered messages for one round parity.
  struct OutBucket {
    std::vector<detail::MsgHeader> headers;
    std::vector<std::uint64_t> words;
    std::vector<detail::MsgHeader> sunk;  // reorder-marked, appended last
  };

  bool targeted(std::size_t round, VertexId from, VertexId to) const;
  /// Routes one surviving message copy, a run of one at adjacency index
  /// `index`: into the current round's out bucket for the receiver's
  /// shard (delay == 0) or into the delay calendar slot for round + delay.
  /// Payload words are copied either way.
  void emit(std::size_t round, VertexId from, std::int64_t index,
            std::span<const std::uint64_t> payload, bool reorder,
            std::uint32_t delay);

  /// True while `v` is inside its crash window: crashed at or before
  /// `round` and not yet rejoined. Legacy (crash-stop) vertices have
  /// rejoin == kNeverRejoins, so they stay down forever.
  bool down(VertexId v, std::uint64_t round) const {
    const auto vi = static_cast<std::size_t>(v);
    return crash_round_[vi] <= round && round < rejoin_round_[vi];
  }

  FaultPlan plan_;
  TransportGeometry geometry_;
  std::array<std::vector<OutBucket>, 2> out_;  // [round parity][shard]
  std::vector<TransportSlice> out_slices_;     // one per shard, per round
  std::vector<DelaySlot> calendar_;            // ring keyed by target round
  std::vector<std::uint64_t> crash_round_;     // per vertex, ~0 = never
  std::vector<std::uint64_t> rejoin_round_;    // per vertex, 0 = no window
  // Rejoin schedule: sorted (round, vertices rejoining that round) pairs
  // plus a cursor, so exchange() can bill rejoin events once per vertex
  // without scanning the per-vertex arrays each round.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rejoin_events_;
  std::size_t rejoin_cursor_ = 0;
  // Occurrence numbers, O(1) per message copy: per receiver, how many
  // copies the current sender block has addressed to it, valid only while
  // its stamp equals block_stamp_ (bumped once per sender block).
  std::vector<std::uint32_t> occurrence_count_;
  std::vector<std::uint64_t> occurrence_stamp_;
  std::uint64_t block_stamp_ = 0;
  std::size_t pending_ = 0;
  FaultCounters round_faults_;
};

}  // namespace dsnd
