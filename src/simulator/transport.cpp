#include "simulator/transport.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace dsnd {

namespace detail {

std::size_t staged_record_count(std::span<const SendStaging> staging) {
  std::size_t total = 0;
  for (const SendStaging& worker : staging) {
    for (const ShardBucket& bucket : worker.buckets) {
      total += bucket.headers.size();
    }
  }
  return total;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// ReliableTransport
// ---------------------------------------------------------------------------

void ReliableTransport::begin_run(const TransportGeometry& geometry) {
  shards_ = geometry.shards;
  slices_.resize(shards_);
  for (std::vector<TransportSlice>& per_worker : slices_) {
    per_worker.resize(shards_);
  }
}

void ReliableTransport::exchange(std::size_t round,
                                 std::span<detail::SendStaging> staging) {
  (void)round;
  DSND_CHECK(staging.size() == shards_,
             "staging worker count does not match the announced geometry");
  // Slice (s, w) aliases staging bucket (w, s): destination shard s
  // receives the source shards' buckets in shard order — the serial
  // vertex-order send sequence. Rewritten in place, no allocation.
  for (unsigned s = 0; s < shards_; ++s) {
    for (unsigned w = 0; w < shards_; ++w) {
      const detail::ShardBucket& bucket = staging[w].buckets[s];
      slices_[s][w] =
          TransportSlice{std::span<const detail::MsgHeader>(bucket.headers),
                         bucket.words.data()};
    }
  }
}

std::span<const TransportSlice> ReliableTransport::delivery(
    const unsigned s) const {
  return slices_[s];
}

// ---------------------------------------------------------------------------
// FaultyTransport
// ---------------------------------------------------------------------------

FaultyTransport::FaultyTransport(FaultPlan plan) : plan_(std::move(plan)) {
  DSND_REQUIRE(plan_.drop_rate >= 0.0 && plan_.drop_rate <= 1.0 &&
                   plan_.duplicate_rate >= 0.0 && plan_.duplicate_rate <= 1.0 &&
                   plan_.delay_rate >= 0.0 && plan_.delay_rate <= 1.0 &&
                   plan_.reorder_rate >= 0.0 && plan_.reorder_rate <= 1.0,
               "fault rates must lie in [0, 1]");
  DSND_REQUIRE(plan_.max_delay_rounds >= 1,
               "max_delay_rounds must be at least 1");
}

void FaultyTransport::begin_run(const TransportGeometry& geometry) {
  geometry_ = geometry;

  for (std::vector<OutBucket>& parity : out_) {
    parity.resize(geometry.shards);
    for (OutBucket& bucket : parity) {
      bucket.headers.clear();
      bucket.words.clear();
      bucket.sunk.clear();
    }
  }
  out_slices_.resize(geometry.shards);

  // The calendar ring must be strictly longer than the largest possible
  // delay so a slot is fully drained before anything new lands in it.
  std::size_t ring = 1;
  while (ring <= plan_.max_delay_rounds) ring *= 2;
  ring *= 2;
  calendar_.resize(ring);
  for (DelaySlot& slot : calendar_) {
    slot.msgs.clear();
    slot.words.clear();
  }

  // Per-vertex hull of the covering spans: crash = min, rejoin = max.
  // Uncovered vertices get (never crashes, rejoin 0) — down() is false
  // for every round. Any crash-stop span (rejoin == kNeverRejoins) pins
  // the vertex down forever regardless of other spans.
  crash_round_.assign(static_cast<std::size_t>(geometry.num_vertices),
                      std::numeric_limits<std::uint64_t>::max());
  rejoin_round_.assign(static_cast<std::size_t>(geometry.num_vertices), 0);
  for (const CrashSpan& span : plan_.crashes) {
    DSND_REQUIRE(span.rejoin == kNeverRejoins || span.rejoin > span.round,
                 "CrashSpan rejoin must be after the crash round");
    const VertexId end = std::min(span.end, geometry.num_vertices);
    for (VertexId v = std::max<VertexId>(span.begin, 0); v < end; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      crash_round_[vi] = std::min(crash_round_[vi], span.round);
      rejoin_round_[vi] = std::max(rejoin_round_[vi], span.rejoin);
    }
  }

  // Rejoin schedule: one (round, count) entry per distinct finite rejoin
  // round with a nonempty outage window, sorted so exchange() bills each
  // vertex's rejoin exactly once via a cursor.
  rejoin_events_.clear();
  rejoin_cursor_ = 0;
  for (std::size_t vi = 0; vi < rejoin_round_.size(); ++vi) {
    const std::uint64_t rejoin = rejoin_round_[vi];
    if (rejoin == 0 || rejoin == kNeverRejoins) continue;
    if (crash_round_[vi] >= rejoin) continue;  // window merged away
    bool merged = false;
    for (auto& [at, count] : rejoin_events_) {
      if (at == rejoin) {
        ++count;
        merged = true;
        break;
      }
    }
    if (!merged) rejoin_events_.emplace_back(rejoin, 1);
  }
  std::sort(rejoin_events_.begin(), rejoin_events_.end());

  // Occurrence counters: zero stamps never match a block (the first
  // block is stamp 1), so every counter starts stale.
  occurrence_count_.assign(static_cast<std::size_t>(geometry.num_vertices),
                           0);
  occurrence_stamp_.assign(static_cast<std::size_t>(geometry.num_vertices),
                           0);
  block_stamp_ = 0;

  pending_ = 0;
  round_faults_ = FaultCounters{};
}

bool FaultyTransport::targeted(const std::size_t round, const VertexId from,
                               const VertexId to) const {
  for (const EdgeDrop& drop : plan_.targeted_drops) {
    if (drop.round == round && drop.from == from && drop.to == to) return true;
  }
  return false;
}

void FaultyTransport::emit(const std::size_t round, const VertexId from,
                           const std::int64_t index,
                           const std::span<const std::uint64_t> payload,
                           const bool reorder, const std::uint32_t delay) {
  const auto length = static_cast<std::uint32_t>(payload.size());
  if (delay == 0) {
    const VertexId to = geometry_.adjacency[static_cast<std::size_t>(index)];
    OutBucket& out = out_[round & 1][geometry_.shard_of(to)];
    const std::size_t begin = out.words.size();
    out.words.insert(out.words.end(), payload.begin(), payload.end());
    (reorder ? out.sunk : out.headers)
        .push_back(detail::MsgHeader{from, length, begin, index, 1});
    return;
  }
  DelaySlot& slot = calendar_[(round + delay) & (calendar_.size() - 1)];
  const std::size_t begin = slot.words.size();
  slot.words.insert(slot.words.end(), payload.begin(), payload.end());
  slot.msgs.push_back(
      DelayedMsg{detail::MsgHeader{from, length, begin, index, 1}, reorder});
  ++pending_;
  ++round_faults_.delayed;
}

void FaultyTransport::exchange(const std::size_t round,
                               std::span<detail::SendStaging> staging) {
  DSND_CHECK(staging.size() == geometry_.shards,
             "staging shard count does not match the announced geometry");
  round_faults_ = FaultCounters{};

  // Bill rejoin events whose round has arrived: each crash-recovery
  // vertex counts once, at the first exchange at or past its rejoin.
  while (rejoin_cursor_ < rejoin_events_.size() &&
         rejoin_events_[rejoin_cursor_].first <= round) {
    round_faults_.rejoined += rejoin_events_[rejoin_cursor_].second;
    ++rejoin_cursor_;
  }

  const unsigned parity = static_cast<unsigned>(round & 1);
  for (OutBucket& bucket : out_[parity]) {
    bucket.headers.clear();
    bucket.words.clear();
    bucket.sunk.clear();
  }

  // Due delayed messages first: parked copies whose target round is this
  // one, in enqueue order (source-round order, sender-serial within a
  // round — shard-count invariant). Their reorder mark still applies
  // relative to THIS round's delivery.
  DelaySlot& due = calendar_[round & (calendar_.size() - 1)];
  for (const DelayedMsg& msg : due.msgs) {
    const detail::MsgHeader& h = msg.header;
    const VertexId to = geometry_.adjacency[static_cast<std::size_t>(h.first)];
    // A due copy addressed to a vertex inside a crash-RECOVERY outage is
    // lost (the NIC was down when it arrived). Legacy crash-stop targets
    // keep receiving, as in PR 7 — they are outbound-silent only.
    if (down(to, round) &&
        rejoin_round_[static_cast<std::size_t>(to)] != kNeverRejoins) {
      ++round_faults_.crashed;
      continue;
    }
    emit(round, h.from, h.first, {due.words.data() + h.word_begin, h.length},
         msg.reorder, /*delay=*/0);
  }
  pending_ -= due.msgs.size();
  due.msgs.clear();
  due.words.clear();

  // Fresh traffic: walk each destination shard's staging buckets in
  // source-shard order (sender-serial), each record's receivers in row
  // order, and put every message copy through the plan. Each decision
  // comes from a generator keyed by (seed, round, from, to, occurrence)
  // — none of which depends on the shard count.
  for (unsigned s = 0; s < geometry_.shards; ++s) {
    VertexId block_sender = -1;
    for (const detail::SendStaging& source : staging) {
      const detail::ShardBucket& bucket = source.buckets[s];
      for (const detail::MsgHeader& h : bucket.headers) {
        if (h.from != block_sender) {
          // A sender's records are contiguous within a bucket (a vertex
          // executes once per round, appending in send order), so the
          // per-(from, to) occurrence counters restart per sender block:
          // a new stamp makes every receiver's counter stale.
          block_sender = h.from;
          ++block_stamp_;
        }
        if (down(h.from, round)) {  // the whole block is lost
          round_faults_.crashed += h.count;
          continue;
        }
        const std::span<const std::uint64_t> payload{
            bucket.words.data() + h.word_begin, h.length};
        for (std::int64_t index = h.first; index < h.first + h.count;
             ++index) {
          const VertexId to =
              geometry_.adjacency[static_cast<std::size_t>(index)];
          const auto ti = static_cast<std::size_t>(to);
          if (occurrence_stamp_[ti] != block_stamp_) {
            occurrence_stamp_[ti] = block_stamp_;
            occurrence_count_[ti] = 0;
          }
          const std::uint32_t occurrence = occurrence_count_[ti]++;

          // Crash-RECOVERY receivers lose inbound traffic while down;
          // placed before any RNG draw so legacy plans (which never take
          // this branch) consume an identical decision stream.
          if (down(to, round) &&
              rejoin_round_[static_cast<std::size_t>(to)] != kNeverRejoins) {
            ++round_faults_.crashed;
            continue;
          }
          if (!plan_.targeted_drops.empty() && targeted(round, h.from, to)) {
            ++round_faults_.dropped;
            continue;
          }

          Xoshiro256ss rng(stream_seed(
              stream_seed(plan_.seed, round,
                          static_cast<std::uint64_t>(h.from) + 1),
              static_cast<std::uint64_t>(to) + 1, occurrence));
          if (plan_.drop_rate > 0.0 && uniform_unit(rng) < plan_.drop_rate) {
            ++round_faults_.dropped;
            continue;
          }
          unsigned copies = 1;
          if (plan_.duplicate_rate > 0.0 &&
              uniform_unit(rng) < plan_.duplicate_rate) {
            copies = 2;
            ++round_faults_.duplicated;
          }
          for (unsigned copy = 0; copy < copies; ++copy) {
            std::uint32_t delay = 0;
            if (plan_.delay_rate > 0.0 &&
                uniform_unit(rng) < plan_.delay_rate) {
              delay = 1 + static_cast<std::uint32_t>(uniform_below(
                              rng, plan_.max_delay_rounds));
            }
            const bool reorder = plan_.reorder_rate > 0.0 &&
                                 uniform_unit(rng) < plan_.reorder_rate;
            emit(round, h.from, index, payload, reorder, delay);
          }
        }
      }
    }
  }

  // Seal this round's delivery: reorder-marked copies sink, stably,
  // behind every unmarked message of the shard's round. Restricted to
  // any single receiver this is a stable partition of its subsequence,
  // so per-receiver inbox order stays shard-count invariant.
  for (unsigned s = 0; s < geometry_.shards; ++s) {
    OutBucket& out = out_[parity][s];
    out.headers.insert(out.headers.end(), out.sunk.begin(), out.sunk.end());
    out.sunk.clear();
    out_slices_[s] =
        TransportSlice{std::span<const detail::MsgHeader>(out.headers),
                       out.words.data()};
  }
}

std::span<const TransportSlice> FaultyTransport::delivery(
    const unsigned s) const {
  return {&out_slices_[s], 1};
}

}  // namespace dsnd
