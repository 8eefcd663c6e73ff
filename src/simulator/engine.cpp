#include "simulator/engine.hpp"

#include <algorithm>
#include <thread>

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
      sender_, to, static_cast<std::uint32_t>(words.size()), begin});
}

void Outbox::send_to_all_neighbors(std::span<const std::uint64_t> words) {
  ensure_neighbors();
  if (neighbors_.empty()) return;
  // The neighbor row is sorted, so destinations group into runs per
  // shard: one arena copy of the payload per destination shard, shared
  // by every header addressed to it.
  const auto length = static_cast<std::uint32_t>(words.size());
  unsigned shard = ~0u;
  detail::ShardBucket* bucket = nullptr;
  std::size_t begin = 0;
  for (const VertexId to : neighbors_) {
    if (const unsigned s = engine_.shard_of(to); s != shard) {
      shard = s;
      bucket = &staging_.buckets[s];
      begin = bucket->words.size();
      bucket->words.insert(bucket->words.end(), words.begin(), words.end());
    }
    bucket->headers.push_back(detail::MsgHeader{sender_, to, length, begin});
  }
}

void Outbox::wake_self_in(std::size_t rounds) {
  DSND_REQUIRE(rounds >= 1, "wake_self_in needs a delay of at least 1 round");
  // The sender's shard is the one this thread is executing, so the wake
  // goes straight into its calendar. Run-every-vertex mode never reads
  // the calendar and drops the wake.
  if (engine_.scheduled_) {
    engine_.ring_insert(engine_.shards_[engine_.shard_of(sender_)],
                        engine_.current_round_ + rounds, sender_);
  }
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

  inbox_begin_.resize(n);
  inbox_fill_.resize(n);
  inbox_len_.assign(n, 0);
  inbox_count_.assign(n, 0);
  active_stamp_.assign(n, 0);

  shards_.resize(workers_);
  for (unsigned s = 0; s < workers_; ++s) {
    shards_[s].begin = std::min(graph_.num_vertices(),
                                static_cast<VertexId>(s) * shard_width_);
    shards_[s].end =
        std::min(graph_.num_vertices(),
                 static_cast<VertexId>(shards_[s].begin + shard_width_));
    shards_[s].wake_ring.resize(64);
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

void SyncEngine::reset(Protocol& protocol) {
  scheduled_ =
      options_.active_scheduling && !protocol.needs_spontaneous_rounds();
  current_round_ = 0;
  metrics_ = SimMetrics{};
  round_messages_.clear();

  for (auto& parity : staging_) {
    for (detail::SendStaging& staging : parity) staging.clear_round();
  }
  for (detail::Shard& shard : shards_) {
    for (const VertexId to : shard.touched) {
      inbox_len_[static_cast<std::size_t>(to)] = 0;
    }
    shard.touched.clear();
    shard.inbox_views.clear();
    shard.active.clear();
    for (auto& bucket : shard.wake_ring) bucket.clear();
    shard.pending_wakes = 0;
    shard.round_messages = 0;
    shard.round_words = 0;
    shard.round_max_words = 0;
  }
  std::fill(active_stamp_.begin(), active_stamp_.end(), 0);
  std::fill(worker_errors_.begin(), worker_errors_.end(), nullptr);

  transport_->begin_run(
      TransportGeometry{workers_, shard_width_, graph_.num_vertices()});
}

void SyncEngine::run_vertex(Protocol& protocol, VertexId v,
                            detail::SendStaging& staging, unsigned worker) {
  const auto vi = static_cast<std::size_t>(v);
  const std::uint32_t length = inbox_len_[vi];
  const std::span<const MessageView> inbox =
      length == 0
          ? std::span<const MessageView>{}
          : std::span<const MessageView>(
                shards_[shard_of(v)].inbox_views.data() + inbox_begin_[vi],
                length);
  Outbox out(*this, staging, v, worker);
  protocol.on_round(v, current_round_, inbox, out);
}

void SyncEngine::execute_shard(Protocol& protocol, unsigned s,
                               unsigned parity, bool use_active) {
  detail::SendStaging& staging = staging_[parity][s];
  staging.clear_round();
  const detail::Shard& shard = shards_[s];
  if (use_active) {
    for (const VertexId v : shard.active) {
      run_vertex(protocol, v, staging, s);
    }
  } else {
    for (VertexId v = shard.begin; v < shard.end; ++v) {
      run_vertex(protocol, v, staging, s);
    }
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

  // The inbox index consumed this round is dead; zero its slots so the
  // no-message default holds for next round.
  for (const VertexId to : shard.touched) {
    inbox_len_[static_cast<std::size_t>(to)] = 0;
  }
  shard.touched.clear();

  if (deliver) {
    // Pass 1 over the slices the transport delivered to this shard:
    // per-receiver counts and this shard's slice of the message metrics
    // (what was RECEIVED — a lossy transport's drops are billed in the
    // fault counters, not here).
    const std::span<const TransportSlice> delivered = transport_->delivery(s);
    std::uint64_t messages = 0;
    std::uint64_t word_total = 0;
    std::size_t max_words = 0;
    for (const TransportSlice& slice : delivered) {
      messages += slice.headers.size();
      for (const detail::MsgHeader& h : slice.headers) {
        word_total += h.length;
        if (h.length > max_words) max_words = h.length;
        std::uint32_t& count = inbox_count_[static_cast<std::size_t>(h.to)];
        if (count == 0) shard.touched.push_back(h.to);
        ++count;
      }
    }
    shard.round_messages = messages;
    shard.round_words = word_total;
    shard.round_max_words = max_words;

    // Pass 2: CSR offsets for the touched receivers only — a quiet round
    // costs O(active + messages), never O(n).
    std::size_t running = 0;
    for (const VertexId to : shard.touched) {
      const auto ti = static_cast<std::size_t>(to);
      inbox_begin_[ti] = running;
      inbox_fill_[ti] = running;
      inbox_len_[ti] = inbox_count_[ti];
      running += inbox_count_[ti];
      inbox_count_[ti] = 0;
    }

    // Pass 3: stable counting-sort scatter by receiver. The transport
    // guarantees scanning its slices in order yields every receiver's
    // inbox in a shard-count-invariant order (the reliable transport's
    // slices are the source buckets in worker order — the serial
    // vertex-order send sequence). Views alias the delivering arenas
    // directly — payload words are never copied again.
    shard.inbox_views.resize(messages);
    for (const TransportSlice& slice : delivered) {
      for (const detail::MsgHeader& h : slice.headers) {
        shard.inbox_views[inbox_fill_[static_cast<std::size_t>(h.to)]++] =
            MessageView{h.from, {slice.words + h.word_begin, h.length}};
      }
    }
  }
  // Elided quiet rounds (!deliver) skip the transport reads outright:
  // nothing was exchanged, so delivery is empty by construction and the
  // round accumulators keep the zeros the roll-up left them with.

  // Fire the next round's calendar bucket and build the next active
  // list: owned receivers with mail plus due wakes, deduplicated, in
  // vertex-id order (so execution — and hence every inbox order —
  // matches the run-every-vertex mode). Self-wakes are local timers that
  // never pass through the transport, so a vertex whose expected message
  // was dropped still runs at its scheduled round.
  if (scheduled_) {
    const std::uint64_t next = static_cast<std::uint64_t>(current_round_) + 1;
    const std::uint64_t stamp = next + 1;
    shard.active.clear();
    for (const VertexId to : shard.touched) {
      shard.active.push_back(to);
      active_stamp_[static_cast<std::size_t>(to)] = stamp;
    }
    auto& due = shard.wake_ring[next & (shard.wake_ring.size() - 1)];
    for (const auto& [target, v] : due) {
      if (active_stamp_[static_cast<std::size_t>(v)] != stamp) {
        active_stamp_[static_cast<std::size_t>(v)] = stamp;
        shard.active.push_back(v);
      }
    }
    shard.pending_wakes -= due.size();
    due.clear();
    // Vertex-id order keeps execution (and inbox) order identical to the
    // run-every-vertex mode. Dense lists are rebuilt by scanning the
    // owned slice of the stamp array — O(shard), cheaper than sorting a
    // large fraction of it; sparse lists are sorted directly.
    const auto owned =
        static_cast<std::size_t>(shard.end - shard.begin);
    if (shard.active.size() >= owned / 16) {
      shard.active.clear();
      for (VertexId v = shard.begin; v < shard.end; ++v) {
        if (active_stamp_[static_cast<std::size_t>(v)] == stamp) {
          shard.active.push_back(v);
        }
      }
    } else if (!std::is_sorted(shard.active.begin(), shard.active.end())) {
      std::sort(shard.active.begin(), shard.active.end());
    }
  }
}

SimMetrics SyncEngine::run(Protocol& protocol, std::size_t round_budget) {
  reset(protocol);
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
    const bool use_active = scheduled_ && current_round_ > 0;
    std::size_t total = 0;
    if (use_active) {
      std::size_t pending = 0;
      for (const detail::Shard& shard : shards_) {
        total += shard.active.size();
        pending += shard.pending_wakes;
      }
      if (total == 0 && pending == 0 && transport_->pending() == 0) {
        // Quiescent: no inbox, no pending wake, nothing in flight in the
        // transport — no future round can change state, so running to
        // the cap would only burn time.
        quiescent = true;
        break;
      }
    } else {
      total = static_cast<std::size_t>(graph_.num_vertices());
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
      execute_shard(protocol, s, parity, use_active);
    });
    // A quiet round — nothing staged, nothing in flight in the transport
    // — skips exchange+deliver outright.
    const bool deliver = !options_.elide_quiet_rounds ||
                         detail::staged_message_count(staging_[parity]) > 0 ||
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

    // Roll the shard accumulators into the run metrics — O(S) per round
    // on this thread, no shared counters during the round.
    std::uint64_t round_total = 0;
    for (detail::Shard& shard : shards_) {
      round_total += shard.round_messages;
      metrics_.words += shard.round_words;
      if (shard.round_max_words > metrics_.max_message_words) {
        metrics_.max_message_words = shard.round_max_words;
      }
      shard.round_messages = 0;
      shard.round_words = 0;
      shard.round_max_words = 0;
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
