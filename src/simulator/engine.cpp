#include "simulator/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "support/assert.hpp"

namespace {

// Cap on the per-round metric reservations: safety-cap round budgets can
// be astronomically large (attempt-scaled n-proportional bounds at 10M
// vertices), and reserving them literally would dwarf the run itself.
// 64k rounds covers every real schedule by orders of magnitude; a run
// that legitimately outlives it merely amortizes a few regrowths.
constexpr std::size_t kRoundReserveCap = std::size_t{1} << 16;

// On an elided quiet round the collect stage only fires wakes and
// maintains active lists; below this many executed vertices that runs
// inline on the driving thread, which is cheaper than a pool barrier.
constexpr std::size_t kSerialQuietCollect = 2048;

}  // namespace

namespace dsnd {

void detail::rethrow_first_error(std::span<std::exception_ptr> errors) {
  for (std::exception_ptr& error : errors) {
    if (error) {
      const std::exception_ptr rethrown = error;
      std::fill(errors.begin(), errors.end(), nullptr);
      std::rethrow_exception(rethrown);
    }
  }
}

// ---------------------------------------------------------------------------
// Outbox
// ---------------------------------------------------------------------------

void Outbox::ensure_neighbors() {
  if (!neighbors_fetched_) {
    neighbors_ = engine_.graph().neighbors(sender_);
    neighbors_fetched_ = true;
  }
}

bool Outbox::is_neighbor(VertexId to) {
  ensure_neighbors();
  const std::size_t size = neighbors_.size();
  while (cursor_ < size && neighbors_[cursor_] < to) ++cursor_;
  if (cursor_ < size && neighbors_[cursor_] == to) return true;
  // Out-of-order send: binary-search the sorted row and repark the
  // cursor so a subsequent in-order run resumes in O(1) per send.
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), to);
  if (it != neighbors_.end() && *it == to) {
    cursor_ = static_cast<std::size_t>(it - neighbors_.begin());
    return true;
  }
  return false;
}

void Outbox::send(VertexId to, std::span<const std::uint64_t> words) {
  DSND_REQUIRE(is_neighbor(to), "protocol tried to send to a non-neighbor");
  detail::ShardBucket& bucket = staging_.buckets[engine_.shard_of(to)];
  const std::size_t begin = bucket.words.size();
  bucket.words.insert(bucket.words.end(), words.begin(), words.end());
  bucket.headers.push_back(detail::MsgHeader{
      sender_, static_cast<std::uint32_t>(words.size()), begin,
      neighbors_.data() + cursor_ - engine_.adjacency_, 1});
}

void Outbox::send_to_all_neighbors(std::span<const std::uint64_t> words) {
  ensure_neighbors();
  // The sorted row splits into one run per destination shard: one record
  // and one payload copy each. (s + 1) * width can pass INT32_MAX.
  const auto length = static_cast<std::uint32_t>(words.size());
  const VertexId* const row = neighbors_.data();
  const VertexId* const row_end = row + neighbors_.size();
  for (const VertexId* run = row; run != row_end;) {
    const unsigned s = engine_.shard_of(*run);
    const std::int64_t bound = (static_cast<std::int64_t>(s) + 1) *
                               engine_.shard_width_;
    const VertexId* const run_end = std::partition_point(
        run + 1, row_end, [bound](VertexId v) { return v < bound; });
    detail::ShardBucket& bucket = staging_.buckets[s];
    const std::size_t begin = bucket.words.size();
    bucket.words.insert(bucket.words.end(), words.begin(), words.end());
    bucket.headers.push_back(detail::MsgHeader{
        sender_, length, begin, run - engine_.adjacency_,
        static_cast<std::uint32_t>(run_end - run)});
    run = run_end;
  }
}

void Outbox::wake_self_in(std::size_t rounds) {
  DSND_REQUIRE(rounds >= 1, "wake_self_in needs a delay of at least 1 round");
  // The sender's shard is the one this thread is executing (its index is
  // the worker's), so the wake goes straight into its calendar.
  engine_.ring_insert(engine_.shards_[worker_],
                      engine_.current_round_ + rounds, sender_);
}

// ---------------------------------------------------------------------------
// SyncEngine
// ---------------------------------------------------------------------------

SyncEngine::SyncEngine(const Graph& g, EngineOptions options)
    : graph_(g), options_(options) {
  transport_ =
      options_.transport != nullptr ? options_.transport : &default_transport_;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  workers_ = options_.threads == 0
                 ? std::max(1u, std::thread::hardware_concurrency())
                 : std::max(1u, options_.threads);
  if (n > 0 && static_cast<std::size_t>(workers_) > n) {
    workers_ = static_cast<unsigned>(n);
  }
  shard_width_ = n == 0 ? 1
                        : static_cast<VertexId>(
                              (n + workers_ - 1) / workers_);

  adjacency_ = graph_.csr_adjacency().data();
  inbox_slot_.assign(n, 0);

  shards_.resize(workers_);
  for (unsigned s = 0; s < workers_; ++s) {
    detail::Shard& shard = shards_[s];
    shard.begin = std::min(graph_.num_vertices(),
                           static_cast<VertexId>(s) * shard_width_);
    shard.end = std::min(graph_.num_vertices(),
                         static_cast<VertexId>(shard.begin + shard_width_));
    const auto owned = static_cast<std::size_t>(shard.end - shard.begin);
    shard.marks.assign((owned + 63) / 64, 0);
    shard.mark_summary.assign((shard.marks.size() + 63) / 64, 0);
    shard.wake_ring.resize(64);
  }
  for (auto& parity : staging_) {
    parity.resize(workers_);
    for (detail::SendStaging& staging : parity) {
      staging.buckets.resize(workers_);
    }
  }
  worker_errors_.resize(workers_);
  if (workers_ > 1) pool_.emplace(workers_);
}

void SyncEngine::reset() {
  current_round_ = 0;
  metrics_ = SimMetrics{};
  round_messages_.clear();

  // A run stopped by finished(), the budget or a throw may leave mail
  // unread (and, mid-collect, marks set): start from the zeros every
  // round boundary assumes. Staging needs no reset: round 0 clears what
  // it stages into. Round 0 runs every vertex: each shard's active list
  // is its owned range.
  std::fill(inbox_slot_.begin(), inbox_slot_.end(), 0);
  for (detail::Shard& shard : shards_) {
    std::fill(shard.marks.begin(), shard.marks.end(), 0);
    std::fill(shard.mark_summary.begin(), shard.mark_summary.end(), 0);
    for (auto& bucket : shard.wake_ring) bucket.clear();
    shard.pending_wakes = 0;
    shard.active.resize(static_cast<std::size_t>(shard.end - shard.begin));
    std::iota(shard.active.begin(), shard.active.end(), shard.begin);
  }
  std::fill(worker_errors_.begin(), worker_errors_.end(), nullptr);

  transport_->begin_run(TransportGeometry{workers_, shard_width_,
                                          graph_.num_vertices(),
                                          graph_.csr_adjacency()});
}

void SyncEngine::execute_shard(Protocol& protocol, unsigned s,
                               unsigned parity) {
  detail::SendStaging& staging = staging_[parity][s];
  staging.clear_round();
  const detail::Shard& shard = shards_[s];
  // Inboxes are laid out in ascending id, the order vertices run in.
  const MessageView* const views = shard.inbox_views.data();
  std::uint32_t cursor = 0;
  for (const VertexId v : shard.active) {
    std::uint32_t& slot = inbox_slot_[static_cast<std::size_t>(v)];
    std::span<const MessageView> inbox;
    if (slot != 0) {
      inbox = {views + cursor, views + slot};
      cursor = slot;
      slot = 0;
    }
    Outbox out(*this, staging, v, s);
    protocol.on_round(v, current_round_, inbox, out);
  }
}

void SyncEngine::ring_insert(detail::Shard& shard, const std::uint64_t target,
                             const VertexId v) {
  const std::uint64_t delta = target - current_round_;
  if (delta >= shard.wake_ring.size()) {
    // Grow the calendar to a power of two covering the delta and rehome
    // the pending entries under the new mask.
    std::size_t size = shard.wake_ring.size();
    while (size <= delta) size *= 2;
    std::vector<std::vector<std::pair<std::uint64_t, VertexId>>> grown(size);
    for (const auto& bucket : shard.wake_ring) {
      for (const auto& entry : bucket) {
        grown[entry.first & (size - 1)].push_back(entry);
      }
    }
    shard.wake_ring = std::move(grown);
  }
  shard.wake_ring[target & (shard.wake_ring.size() - 1)].emplace_back(target,
                                                                      v);
  ++shard.pending_wakes;
}

void SyncEngine::collect_shard(unsigned s, bool deliver) {
  detail::Shard& shard = shards_[s];
  // Elided quiet rounds (!deliver) skip the transport reads outright:
  // nothing was exchanged, so delivery is empty by construction.
  const std::span<const TransportSlice> delivered =
      deliver ? transport_->delivery(s) : std::span<const TransportSlice>{};

  // Pass 1 over the delivered records (slots and marks are all zero
  // here): each receiver's message count and mark, and this shard's
  // slice of the message metrics (what was RECEIVED — a lossy
  // transport's drops are billed in the fault counters, not here).
  std::uint64_t messages = 0;
  std::uint64_t word_total = 0;
  std::size_t max_words = 0;
  for (const TransportSlice& slice : delivered) {
    for (const detail::MsgHeader& h : slice.headers) {
      messages += h.count;
      word_total += std::uint64_t{h.count} * h.length;
      max_words = std::max<std::size_t>(max_words, h.length);
      const VertexId* const receivers = adjacency_ + h.first;
      for (std::uint32_t i = 0; i < h.count; ++i) {
        ++inbox_slot_[static_cast<std::size_t>(receivers[i])];
        shard.mark(receivers[i]);
      }
    }
  }
  DSND_CHECK(messages <= std::numeric_limits<std::uint32_t>::max(),
             "one shard received 2^32 or more messages in a round");
  shard.round_messages = messages;
  shard.round_words = word_total;
  shard.round_max_words = max_words;

  // Fire the next round's calendar bucket. Self-wakes are local timers
  // that never pass through the transport, so a vertex whose expected
  // message was dropped still runs at its scheduled round.
  const std::uint64_t next = static_cast<std::uint64_t>(current_round_) + 1;
  auto& due = shard.wake_ring[next & (shard.wake_ring.size() - 1)];
  for (const auto& [target, v] : due) shard.mark(v);
  shard.pending_wakes -= due.size();
  due.clear();
  shard.active.clear();

  // One ascending walk of the marks, skipping unmarked 4096-vertex
  // blocks and clearing as it goes: each receiver's count becomes its
  // inbox's begin offset, and the next active list comes out sorted and
  // deduplicated (vertex-id order keeps execution, and hence every
  // inbox order, independent of which vertices run).
  std::uint32_t offset = 0;
  for (std::size_t block = 0; block < shard.mark_summary.size(); ++block) {
    for (std::uint64_t words = std::exchange(shard.mark_summary[block], 0);
         words != 0; words &= words - 1) {
      const std::size_t word =
          block * 64 + static_cast<std::size_t>(std::countr_zero(words));
      for (std::uint64_t bits = std::exchange(shard.marks[word], 0);
           bits != 0; bits &= bits - 1) {
        const VertexId v =
            shard.begin + static_cast<VertexId>(word * 64) +
            std::countr_zero(bits);
        if (std::uint32_t& slot = inbox_slot_[static_cast<std::size_t>(v)];
            slot != 0) {
          offset += std::exchange(slot, offset);
        }
        shard.active.push_back(v);
      }
    }
  }

  // Scatter in slice order, each record's receivers in row order: the
  // transport guarantees that order yields every receiver's inbox in a
  // shard-count-invariant order (the reliable transport's slices are the
  // source buckets in worker order — the serial vertex-order send
  // sequence). Views alias the delivering arenas directly — payload
  // words are never copied again.
  if (shard.inbox_views.size() < messages) shard.inbox_views.resize(messages);
  for (const TransportSlice& slice : delivered) {
    for (const detail::MsgHeader& h : slice.headers) {
      const MessageView view{h.from, {slice.words + h.word_begin, h.length}};
      const VertexId* const receivers = adjacency_ + h.first;
      for (std::uint32_t i = 0; i < h.count; ++i) {
        shard.inbox_views[inbox_slot_[static_cast<std::size_t>(
            receivers[i])]++] = view;
      }
    }
  }
}

SimMetrics SyncEngine::run(Protocol& protocol, std::size_t round_budget) {
  reset();
  protocol.begin(graph_);
  protocol.begin_workers(workers_);

  // Reserve the per-round series up to the budget (capped —
  // see kRoundReserveCap) so the round loop never reallocates mid-run;
  // the capacity persists across runs like every other engine buffer.
  round_messages_.reserve(std::min(round_budget, kRoundReserveCap));

  // The persistent parked pool (workers_ > 1 only): the driving thread
  // works as worker 0, runs the exchange, and rolls up the round.
  WorkerPool* const pool = pool_.has_value() ? &*pool_ : nullptr;
  RoundPool round_pool(pool, worker_errors_);

  bool quiescent = false;
  while (current_round_ < round_budget && !protocol.finished()) {
    std::size_t total = 0;
    std::size_t pending = 0;
    for (const detail::Shard& shard : shards_) {
      total += shard.active.size();
      pending += shard.pending_wakes;
    }
    if (total == 0 && pending == 0 && transport_->pending() == 0) {
      // Quiescent: no inbox, no pending wake, nothing in flight in the
      // transport — no future round can change state, so running to the
      // cap would only burn time.
      quiescent = true;
      break;
    }
    metrics_.vertex_activations += total;
    // Serial pre-round hook: workers are parked (or not yet dispatched),
    // so the protocol may fold per-worker accumulators and advance any
    // shared round-plan state race-free; round_pool lets it fan bulk
    // fills across the parked workers before the round proper starts.
    protocol.on_round_begin(current_round_, round_pool);

    const auto parity = static_cast<unsigned>(current_round_ & 1);
    // A round of fewer than two active vertices runs inline: waking the
    // pool would cost more than the work.
    WorkerPool* const round_workers = total < 2 ? nullptr : pool;
    detail::guarded_dispatch(round_workers, worker_errors_, [&](unsigned s) {
      execute_shard(protocol, s, parity);
    });
    // A quiet round — nothing staged, nothing in flight in the transport
    // — skips exchange+deliver outright.
    const bool deliver = !options_.elide_quiet_rounds ||
                         detail::staged_record_count(staging_[parity]) > 0 ||
                         transport_->pending() > 0;
    if (deliver) {
      // The exchange runs serially between the two stages: workers are
      // parked, so the transport may inspect every staging bucket (and
      // mutate its own delivery buffers) race-free.
      transport_->exchange(current_round_, staging_[parity]);
    }
    // See kSerialQuietCollect for when a quiet round collects inline.
    detail::guarded_dispatch(
        deliver || total > kSerialQuietCollect ? round_workers : nullptr,
        worker_errors_, [&](unsigned s) { collect_shard(s, deliver); });

    // Roll the shard accumulators, which every collect rewrites, into
    // the run metrics — O(S) per round on this thread, no shared
    // counters during the round.
    std::uint64_t round_total = 0;
    for (const detail::Shard& shard : shards_) {
      round_total += shard.round_messages;
      metrics_.words += shard.round_words;
      metrics_.max_message_words =
          std::max(metrics_.max_message_words, shard.round_max_words);
    }
    metrics_.messages += round_total;
    round_messages_.push_back(round_total);
    // A skipped exchange injected nothing, so an elided round adds no
    // faults rather than re-reading the transport's (stale) last-round
    // counters. A reliable transport reports zeros.
    if (deliver) metrics_.faults += transport_->round_faults();

    ++current_round_;
  }

  metrics_.rounds = current_round_;
  metrics_.messages_per_round = round_messages_;
  metrics_.status = protocol.finished() ? RunStatus::kFinished
                    : quiescent        ? RunStatus::kQuiescent
                                       : RunStatus::kRoundBudgetExhausted;
  return metrics_;
}

}  // namespace dsnd
