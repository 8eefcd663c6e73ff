#include "decomposition/carving_protocol.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "decomposition/checkpoint.hpp"
#include "decomposition/validation.hpp"
#include "simulator/engine.hpp"
#include "support/assert.hpp"
#include "support/per_worker.hpp"
#include "support/rng.hpp"

namespace dsnd {

namespace {

constexpr std::uint64_t kTagEntry = 1;
constexpr std::uint64_t kTagLeave = 2;

std::uint64_t pack_double(double x) { return std::bit_cast<std::uint64_t>(x); }
double unpack_double(std::uint64_t w) { return std::bit_cast<double>(w); }

bool same_entry(const CarveEntry& a, const CarveEntry& b) {
  return a.center == b.center && a.dist == b.dist && a.radius == b.radius;
}

class CarvingProtocol final : public Protocol {
 public:
  /// `names` maps engine vertex ids to the ORIGINAL ids the algorithm is
  /// keyed on (radius streams, tie-breaks, the emitted clustering);
  /// empty = identity. A cache-aware relabeling (graph/relabel.hpp)
  /// passes its to_old map here, which is what makes relabeled runs
  /// bit-identical to unrelabeled ones.
  explicit CarvingProtocol(std::span<const VertexId> names)
      : names_(names) {}

  /// Binds the caller's schedule (borrowed: it must outlive the run) and
  /// the attempt seed, so one protocol object (and its warmed per-vertex
  /// arrays) serves many runs — the verify-and-recover loop's salted
  /// attempts and every CarveContext warm re-run go through here.
  void bind(const CarveSchedule& schedule, std::uint64_t seed) {
    schedule_ = &schedule;
    seed_ = seed;
  }

  /// Attaches (or detaches, with nullptr) the phase-boundary recovery
  /// arena. With an arena the protocol records each phase's joiners,
  /// validates every finalized phase incrementally, and captures a
  /// checkpoint at each validated boundary; an invalid phase ends the
  /// run early with recovery_invalid_phase() set instead of joining bad
  /// clusters into the output.
  void enable_recovery(RecoveryArena* arena) {
    arena_ = arena;
    restore_armed_ = false;
  }

  /// Makes the NEXT begin() restore from the arena's checkpoint instead
  /// of starting fresh: the validated prefix phases are reinstated and
  /// the run resumes at checkpoint.next_phase (one-shot; cleared by
  /// begin()). Requires an enabled arena with a restorable checkpoint.
  void arm_restore() { restore_armed_ = true; }

  /// True when the last run stopped because a finalized phase failed
  /// incremental validation (a fault-corrupted phase caught at its
  /// boundary rather than at whole-run validation).
  bool recovery_invalid_phase() const { return invalid_phase_; }

  void begin(const Graph& g) override {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    DSND_REQUIRE(names_.empty() || names_.size() == n,
                 "vertex-name map must cover the graph");
    graph_ = &g;
    alive_.assign(n, 1);
    best_.assign(n, CarveEntry{});
    second_.assign(n, CarveEntry{});
    sent_best_.assign(n, CarveEntry{});
    sent_second_.assign(n, CarveEntry{});
    chosen_center_.assign(n, -1);
    chosen_phase_.assign(n, -1);
    radii_.resize(n);
    unit_scratch_.resize(n);
    live_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      live_[v] = static_cast<VertexId>(v);
    }
    live_dirty_ = false;
    phase_ = 0;
    step_ = 0;
    retry_ = 0;
    retries_total_ = 0;
    abort_attempt_ = false;
    accepted_overflow_ = false;
    sampled_overflow_ = false;
    max_sampled_radius_ = 0.0;
    invalid_phase_ = false;
    restored_carved_ = 0;
    restored_phases_used_ = 0;
    if (arena_ != nullptr) {
      if (arena_->joiners.empty()) arena_->joiners.resize(1);
      for (std::vector<VertexId>& per_worker : arena_->joiners) {
        per_worker.clear();
      }
      arena_->joined.clear();
      if (restore_armed_) {
        // Rollback: overwrite the freshly initialized per-vertex arrays
        // with the last validated checkpoint and resume at its phase.
        // Nothing else needs restoring — best_/second_/sent_* are
        // rewritten at the attempt's step 0 and never read for carved
        // vertices, and round 0 runs EVERY vertex in scheduled mode, so
        // no wake-calendar snapshot is needed: carved vertices return
        // early via alive_, live ones re-arm their own wake chain.
        const PhaseCheckpoint& cp = arena_->checkpoint;
        DSND_CHECK(cp.restorable() && cp.alive.size() == n,
                   "restore armed without a matching checkpoint");
        std::copy(cp.alive.begin(), cp.alive.end(), alive_.begin());
        std::copy(cp.chosen_center.begin(), cp.chosen_center.end(),
                  chosen_center_.begin());
        std::copy(cp.chosen_phase.begin(), cp.chosen_phase.end(),
                  chosen_phase_.begin());
        live_.assign(cp.live.begin(), cp.live.end());
        phase_ = cp.next_phase;
        retries_total_ = cp.retries_total;
        max_sampled_radius_ = cp.max_sampled_radius;
        restored_carved_ = cp.carved;
        restored_phases_used_ = cp.phases_used;
      }
    }
    restore_armed_ = false;
    workers_ = 1;
    accum_.reset(1);
    accum_[0].carved = restored_carved_;
    accum_[0].phases_used = restored_phases_used_;
    chunk_stats_.assign(1, RadiusBatchStats{});
  }

  void begin_workers(unsigned workers) override {
    workers_ = workers == 0 ? 1 : workers;
    accum_.reset(workers);
    // The restored prefix's totals ride in worker slot 0, which exists
    // for every worker count — the fold stays shard-count invariant.
    accum_[0].carved = restored_carved_;
    accum_[0].phases_used = restored_phases_used_;
    chunk_stats_.assign(workers_, RadiusBatchStats{});
    if (arena_ != nullptr && arena_->joiners.size() < workers_) {
      arena_->joiners.resize(workers_);
    }
  }

  // The shared round plan. The engine's global round counter no longer
  // maps statically onto (phase, step): an attempt whose sampling round
  // raised Lemma 1's overflow bit is replayed, shifting every later
  // phase by one phase length. This hook — serial, between rounds —
  // advances the plan and is the simulation's stand-in for the CONGEST
  // aggregation of the overflow bit: real deployments would piggyback it
  // on the ceil(k)-round phase broadcast (Ghaffari–Portmann-style
  // detect-and-retry), which is why an aborted attempt is billed one
  // full phase of rounds rather than restarting the moment the bit is
  // known.
  void on_round_begin(std::size_t round, RoundPool& pool) override {
    if (round > 0) {
      if (step_ == 0) {
        // The sampling round just ran: fix this attempt's fate from the
        // overflow bit the batched sampler folded, before any joining
        // can happen.
        abort_attempt_ = sampled_overflow_ &&
                         schedule_->overflow_policy == OverflowPolicy::kRetry &&
                         retry_ < schedule_->max_retries_per_phase;
        if (sampled_overflow_ && !abort_attempt_) {
          // Truncated samples are being accepted (kTruncate, or a blown
          // retry budget): the output loses its validity certificate.
          accepted_overflow_ = true;
        }
        step_ = 1;
        return;
      }
      if (step_ < schedule_->phase_rounds) {
        ++step_;
        return;
      }
      // The deciding step just ran: start the next attempt — a salted
      // replay of the same phase if this one was aborted, phase t+1
      // otherwise.
      if (abort_attempt_) {
        ++retry_;
        ++retries_total_;
      } else {
        // Joiners left the live set; compact it lazily at the next
        // sampling pass (a replayed attempt keeps the set unchanged).
        live_dirty_ = true;
        if (arena_ != nullptr && !finalize_phase_boundary()) {
          // The finalized phase failed incremental validation: a fault
          // corrupted its join decisions. Stop the run here — finished()
          // now fires and the recovery loop rolls back to the last
          // validated checkpoint instead of carving on top of a bad
          // phase. The round about to run is a deterministic no-op.
          invalid_phase_ = true;
          return;
        }
        ++phase_;
        retry_ = 0;
      }
      step_ = 0;
      abort_attempt_ = false;
    }
    // The round about to run is an attempt's sampling step (round 0
    // included): batch-fill the live radii chunk-parallel on the parked
    // pool. Every value comes from the same per-(seed, phase, name,
    // retry) stream the scalar sampler draws, and the max/overflow fold
    // over chunks is order-independent, so the round's outputs are
    // bit-identical to per-vertex sampling for every worker count.
    if (step_ == 0) sample_attempt(pool);
  }

  void on_round(VertexId v, std::size_t /*round*/,
                std::span<const MessageView> inbox, Outbox& out) override {
    // The engine checks finished() before the pre-round hook, so the
    // round in which the hook flags an invalid phase still executes:
    // make it a no-op so the run's metrics stay deterministic.
    if (invalid_phase_) return;
    const auto vi = static_cast<std::size_t>(v);
    if (!alive_[vi]) return;
    Accum& accum = accum_[out.worker()];

    if (step_ == 0) {
      // Instrumentation only: the worker remembers the deepest phase any
      // of its vertices reached; the fold takes the max.
      accum.phases_used = std::max(accum.phases_used, phase_ + 1);
      // The radius was batch-sampled by on_round_begin (sample_attempt);
      // the vertex just reads its slot.
      const double r = radii_[vi];
      best_[vi] = CarveEntry{r, 0, name(v)};
      second_[vi] = CarveEntry{};
      sent_best_[vi] = CarveEntry{};
      sent_second_[vi] = CarveEntry{};
      send_changed(v, out);
      // The quiet broadcast steps run on inbox arrivals only; the
      // deciding step must run even with an empty inbox. The wake chain
      // survives a replay unchanged: an aborted attempt's deciding step
      // re-arms the next attempt exactly like a surviving vertex does.
      out.wake_self_in(static_cast<std::size_t>(schedule_->phase_rounds));
      return;
    }

    if (abort_attempt_) {
      // This attempt is already condemned (the overflow bit is global
      // knowledge by now); drop its broadcast on the floor and, at the
      // deciding step, re-arm for the salted replay instead of joining.
      if (step_ == schedule_->phase_rounds) out.wake_self_in(1);
      return;
    }

    for (const MessageView& msg : inbox) {
      if (msg.words.empty() || msg.words[0] != kTagEntry) continue;
      DSND_CHECK(msg.words.size() == 4, "malformed entry message");
      CarveEntry entry;
      entry.center = static_cast<VertexId>(msg.words[1]);
      entry.radius = unpack_double(msg.words[2]);
      entry.dist = static_cast<std::int32_t>(msg.words[3]);
      merge(vi, entry);
    }

    if (step_ < schedule_->phase_rounds) {
      send_changed(v, out);
      return;
    }

    // Deciding step: the paper's join rule, margin 1.
    if (phase_join_decision(best_[vi], second_[vi], 1.0)) {
      chosen_center_[vi] = best_[vi].center;
      chosen_phase_[vi] = phase_;
      alive_[vi] = 0;
      ++accum.carved;
      if (arena_ != nullptr) {
        // Record the joiner for the boundary validation. Per-worker
        // lists in shard execution (= ascending vertex id) order, so the
        // worker-order concatenation is ascending for any thread count.
        arena_->joiners[out.worker()].push_back(v);
      }
      out.send_to_all_neighbors({kTagLeave});
    } else {
      // Survivors sample again at the next attempt's step 0.
      out.wake_self_in(1);
    }
  }

  bool finished() const override {
    return invalid_phase_ || remaining() == 0;
  }

  CarveResult build_result() const {
    CarveResult result;
    const auto n = static_cast<std::size_t>(graph_->num_vertices());
    const std::int32_t phases_used = accum_.fold(
        0, [](std::int32_t acc, const Accum& a) {
          return std::max(acc, a.phases_used);
        });
    result.clustering = Clustering(graph_->num_vertices());
    result.target_phases = schedule_->target_phases();
    result.phases_used = phases_used;
    result.exhausted_within_target =
        remaining() == 0 && phases_used <= result.target_phases;
    result.radius_overflow = accepted_overflow_;
    result.max_sampled_radius = max_sampled_radius_;
    const auto phase_len =
        static_cast<std::int64_t>(schedule_->phase_rounds) + 1;
    result.retries = retries_total_;
    result.extra_rounds =
        static_cast<std::int64_t>(retries_total_) * phase_len;
    result.rounds = static_cast<std::int64_t>(phases_used) * phase_len +
                    result.extra_rounds;

    result.carved_per_phase.assign(
        static_cast<std::size_t>(phases_used), 0);
    // Clusters in the same deterministic order as carve_decomposition:
    // by phase, then by member ORIGINAL id at first appearance. The
    // members are walked in original-id order (via the inverse name map
    // when a relabeling is active), so a relabeled run builds the exact
    // same clustering object. O(n + phases) total.
    std::vector<VertexId> by_name;
    if (!names_.empty()) {
      by_name.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        by_name[static_cast<std::size_t>(names_[v])] =
            static_cast<VertexId>(v);
      }
    }
    std::vector<std::vector<VertexId>> members_per_phase(
        static_cast<std::size_t>(phases_used));
    for (std::size_t o = 0; o < n; ++o) {
      const std::size_t v =
          names_.empty() ? o : static_cast<std::size_t>(by_name[o]);
      if (chosen_phase_[v] >= 0) {
        members_per_phase[static_cast<std::size_t>(chosen_phase_[v])]
            .push_back(static_cast<VertexId>(o));
      }
    }
    // chosen_center_ already holds original ids (entries carry names).
    std::vector<ClusterId> cluster_of_center(n, kNoCluster);
    for (std::int32_t phase = 0; phase < phases_used; ++phase) {
      for (const VertexId o : members_per_phase[static_cast<std::size_t>(
               phase)]) {
        ++result.carved_per_phase[static_cast<std::size_t>(phase)];
        const std::size_t v =
            names_.empty() ? static_cast<std::size_t>(o)
                           : static_cast<std::size_t>(
                                 by_name[static_cast<std::size_t>(o)]);
        const auto center = static_cast<std::size_t>(chosen_center_[v]);
        if (cluster_of_center[center] == kNoCluster ||
            result.clustering.color_of(cluster_of_center[center]) !=
                phase) {
          cluster_of_center[center] = result.clustering.add_cluster(
              static_cast<VertexId>(center), phase);
        }
        result.clustering.assign(o, cluster_of_center[center]);
      }
    }
    return result;
  }

  VertexId remaining() const {
    const VertexId carved = accum_.fold(
        VertexId{0},
        [](VertexId acc, const Accum& a) { return acc + a.carved; });
    return graph_->num_vertices() - carved;
  }

 private:
  /// Per-worker aggregate slice; all fields monotone under the fold, so
  /// totals are independent of which worker ran which vertex. (The
  /// overflow bit and radius max moved out: they are folded serially by
  /// the batched sampler in on_round_begin, which owns sampling now.)
  struct Accum {
    VertexId carved = 0;
    std::int32_t phases_used = 0;
  };

  VertexId name(VertexId v) const {
    return names_.empty() ? v : names_[static_cast<std::size_t>(v)];
  }

  /// Drops carved vertices from the live list when it is stale.
  void compact_live() {
    if (!live_dirty_) return;
    live_.erase(
        std::remove_if(live_.begin(), live_.end(),
                       [&](VertexId v) {
                         return alive_[static_cast<std::size_t>(v)] == 0;
                       }),
        live_.end());
    live_dirty_ = false;
  }

  /// Runs at the boundary of a completed (non-aborted) phase, before the
  /// plan advances: validates the phase's clusters incrementally and, on
  /// success, captures the post-phase state as the rollback checkpoint.
  /// Returns false when the phase is invalid (the caller stops the run).
  /// Serial — called from the pre-round hook only.
  bool finalize_phase_boundary() {
    arena_->joined.clear();
    for (std::vector<VertexId>& per_worker : arena_->joiners) {
      arena_->joined.insert(arena_->joined.end(), per_worker.begin(),
                            per_worker.end());
      per_worker.clear();
    }
    if (!arena_->joined.empty() &&
        !arena_->validator.validate_phase(*graph_, arena_->joined,
                                          chosen_center_, chosen_phase_,
                                          phase_)) {
      return false;
    }
    if (!accepted_overflow_) {
      // Checkpoint the validated prefix. An overflow-tainted run is not
      // checkpointed: restoring it would silently launder the voided
      // validity certificate into a later attempt.
      compact_live();
      const VertexId carved = accum_.fold(
          VertexId{0},
          [](VertexId acc, const Accum& a) { return acc + a.carved; });
      const std::int32_t phases_used = accum_.fold(
          0, [](std::int32_t acc, const Accum& a) {
            return std::max(acc, a.phases_used);
          });
      arena_->checkpoint.capture(alive_, live_, chosen_center_,
                                 chosen_phase_, phase_ + 1, retries_total_,
                                 max_sampled_radius_, carved, phases_used);
    }
    return true;
  }

  /// Fills radii_ for every live vertex for attempt (phase_, retry_) in
  /// one chunk-parallel batched pass and folds the Lemma 1 overflow bit
  /// and the radius max. Runs on the serial pre-round hook, so the live
  /// list (compacted here after a phase advance — alive_ flips happened
  /// under the previous round's barrier) and the per-chunk stats need no
  /// synchronization.
  void sample_attempt(RoundPool& pool) {
    compact_live();
    const std::vector<double>& betas = schedule_->betas;
    const double beta =
        phase_ < schedule_->target_phases()
            ? betas[static_cast<std::size_t>(phase_)]
            : betas.back();
    for (RadiusBatchStats& stats : chunk_stats_) stats = RadiusBatchStats{};
    const std::span<const VertexId> live(live_);
    const std::span<double> scratch(unit_scratch_);
    pool.for_chunks(live_.size(), [&](std::size_t chunk_begin,
                                      std::size_t chunk_end, unsigned w) {
      chunk_stats_[w] = carve_radius_sample_batch(
          seed_, phase_, beta, retry_,
          live.subspan(chunk_begin, chunk_end - chunk_begin), names_,
          scratch.subspan(chunk_begin, chunk_end - chunk_begin), radii_,
          schedule_->radius_overflow_at);
    });
    RadiusBatchStats stats;
    for (const RadiusBatchStats& chunk : chunk_stats_) stats.merge(chunk);
    sampled_overflow_ = stats.overflow;
    max_sampled_radius_ = std::max(max_sampled_radius_, stats.max_radius);
  }

  void merge(std::size_t vi, const CarveEntry& entry) {
    CarveEntry& best = best_[vi];
    CarveEntry& second = second_[vi];
    if (best.valid() && best.center == entry.center) {
      if (entry.beats(best)) best = entry;
      return;
    }
    if (second.valid() && second.center == entry.center) {
      if (entry.beats(second)) {
        second = entry;
        if (second.beats(best)) std::swap(best, second);
      }
      return;
    }
    if (entry.beats(best)) {
      second = best;
      best = entry;
    } else if (entry.beats(second)) {
      second = entry;
    }
  }

  /// Forwards each of the current top-2 entries that (a) still has
  /// broadcast budget and (b) was not already transmitted by this vertex
  /// (receivers merge idempotently, so one transmission suffices).
  void send_changed(VertexId v, Outbox& out) {
    const auto vi = static_cast<std::size_t>(v);
    for (const CarveEntry* entry : {&best_[vi], &second_[vi]}) {
      if (!entry->valid()) continue;
      if (same_entry(*entry, sent_best_[vi]) ||
          same_entry(*entry, sent_second_[vi])) {
        continue;
      }
      const std::int32_t next_dist = entry->dist + 1;
      const bool in_range =
          static_cast<double>(next_dist) <= std::floor(entry->radius);
      if (in_range) {
        // Dead neighbors discard silently; a vertex does not learn
        // which neighbor left, only that someone did.
        out.send_to_all_neighbors(
            {kTagEntry, static_cast<std::uint64_t>(entry->center),
             pack_double(entry->radius),
             static_cast<std::uint64_t>(next_dist)});
      }
    }
    // Mirror the whole top-2 so an entry (transmitted, or skipped as out
    // of range) is never reconsidered while it stays in the top-2. The
    // mirror must hold both slots at once: remembering only the last two
    // *transmissions* can evict a still-current entry and trigger a
    // redundant rebroadcast on a later quiet step, which would also make
    // message counts depend on which quiet rounds the vertex runs in.
    sent_best_[vi] = best_[vi];
    sent_second_[vi] = second_[vi];
  }

  // Rebound between runs via bind(); the schedule is the caller's.
  const CarveSchedule* schedule_ = nullptr;
  std::uint64_t seed_ = 0;
  const std::span<const VertexId> names_;
  const Graph* graph_ = nullptr;
  // Shared round plan, advanced only by the serial on_round_begin hook
  // and read-only during rounds (so every worker sees one consistent
  // (phase, step, retry, abort) view per round).
  std::int32_t phase_ = 0;
  std::int32_t step_ = 0;
  std::int32_t retry_ = 0;
  std::int32_t retries_total_ = 0;
  bool abort_attempt_ = false;
  bool accepted_overflow_ = false;
  // Fold of the batched sampling passes (serial state: sampling happens
  // in the pre-round hook).
  bool sampled_overflow_ = false;
  double max_sampled_radius_ = 0.0;
  bool live_dirty_ = false;
  // Phase-boundary recovery (null = disabled): the arena is owned by the
  // CarveContext so its buffers outlive and warm across runs.
  RecoveryArena* arena_ = nullptr;
  bool restore_armed_ = false;
  bool invalid_phase_ = false;
  // Totals of the restored prefix, folded into worker slot 0's accum so
  // build_result()/remaining() see the whole run, not just the suffix.
  VertexId restored_carved_ = 0;
  std::int32_t restored_phases_used_ = 0;
  unsigned workers_ = 1;
  std::vector<char> alive_;
  std::vector<double> radii_;
  std::vector<double> unit_scratch_;
  std::vector<VertexId> live_;
  std::vector<RadiusBatchStats> chunk_stats_;
  std::vector<CarveEntry> best_;
  std::vector<CarveEntry> second_;
  std::vector<CarveEntry> sent_best_;
  std::vector<CarveEntry> sent_second_;
  std::vector<VertexId> chosen_center_;
  std::vector<std::int32_t> chosen_phase_;
  PerWorker<Accum> accum_;
};

/// One engine run of the protocol on `schedule` with the attempt seed,
/// under `round_budget`, with the outcome named.
DistributedRun run_carve_attempt(SyncEngine& engine, CarvingProtocol& protocol,
                                 const CarveSchedule& schedule,
                                 std::uint64_t seed,
                                 std::size_t round_budget) {
  protocol.bind(schedule, seed);
  DistributedRun result;
  result.sim = engine.run(protocol, round_budget);
  CarveResult& carve = result.run.carve;
  carve = protocol.build_result();
  if (protocol.remaining() != 0) {
    // A reliable run cannot legitimately fall short — that is a bug in
    // this library, so the internal-invariant check stays. Under a lossy
    // transport it is an expected outcome (dropped traffic stalled the
    // carve, or the round budget named the hang), reported as a status
    // for the verify-and-recover loop to act on.
    DSND_CHECK(engine.transport().lossy(),
               "distributed carving failed to exhaust the graph");
    // An invalid-phase stop ends the engine run via finished() (status
    // kFinished) with the graph not exhausted; name it kRejected — the
    // same verdict whole-run validation would have reached, just caught
    // at the phase boundary.
    carve.status = protocol.recovery_invalid_phase()
                       ? CarveStatus::kRejected
                       : (result.sim.status == RunStatus::kQuiescent
                              ? CarveStatus::kStalled
                              : CarveStatus::kRoundBudgetExhausted);
  }
  carve.faults = result.sim.faults;
  return result;
}

/// Shared driver behind every run_schedule_distributed overload, running
/// on a (possibly reused) engine + protocol pair. `original_graph` is
/// what the emitted clustering is keyed to and what faulted attempts are
/// validated against (the protocol's name map translates; identity for
/// unrelabeled runs).
///
/// Reliable transports take the single-attempt fast path unchanged.
/// Lossy transports get the verify-and-recover loop, now phase-granular:
/// every attempt that claims success is checked with
/// validate_decomposition_fast; a failed attempt (rejected clustering,
/// invalid phase caught at its boundary, or a named engine failure)
/// first ROLLS BACK to the last validated phase-boundary checkpoint and
/// replays only the suffix phases on a rollback-salted seed —
/// stream_seed(seed, 2, rollback), the a = 2 channel — up to
/// schedule.max_rollbacks times, then falls back to whole-run retries on
/// the a = 1 channel — stream_seed(seed, 1, attempt) — up to
/// schedule.max_run_retries times (both disjoint from the a = 0 channel
/// PR 5's per-phase resamples use). The result is the never-silently-
/// invalid contract: kOk means externally validated, anything else is a
/// named failure with its fault accounting attached. Every recovery run
/// reuses the engine's pool and arenas outright — rollbacks restore from
/// the context-retained checkpoint with zero steady-state allocation.
DistributedRun run_schedule_distributed_with(SyncEngine& engine,
                                             CarvingProtocol& protocol,
                                             const Graph& original_graph,
                                             const CarveSchedule& schedule,
                                             std::uint64_t seed,
                                             RecoveryArena* arena) {
  DSND_REQUIRE(engine.graph().num_vertices() >= 1, "graph must be nonempty");
  schedule.require_runnable();
  const bool lossy = engine.transport().lossy();
  // One round budget per attempt: the caller's EngineOptions::max_rounds
  // when set, else the schedule-derived named-failure budget.
  const std::size_t round_budget =
      engine.options().max_rounds != 0
          ? engine.options().max_rounds
          : schedule.round_budget(engine.graph().num_vertices());

  const std::int32_t run_budget = lossy ? schedule.max_run_retries : 0;
  const std::int32_t rollback_budget =
      lossy && arena != nullptr ? schedule.max_rollbacks : 0;
  protocol.enable_recovery(rollback_budget > 0 ? arena : nullptr);
  if (rollback_budget > 0) arena->checkpoint.invalidate();

  DistributedRun run;
  FaultCounters total_faults;
  std::int32_t attempt = 0;    // whole-run retries spent (a = 1)
  std::int32_t rollbacks = 0;  // checkpoint rollbacks spent (a = 2)
  std::int64_t replayed = 0;   // phases re-executed by recovery runs
  std::int32_t restore_base = 0;
  bool recovery_run = false;
  std::uint64_t run_seed = seed;
  for (;;) {
    run = run_carve_attempt(engine, protocol, schedule, run_seed,
                            round_budget);
    total_faults += run.sim.faults;
    if (recovery_run) {
      // Recovery cost in phases: a rollback bills only the suffix past
      // its restored checkpoint, a whole-run retry bills every phase it
      // ran (restore_base 0) — the A/B metric the benches report.
      replayed += std::max<std::int64_t>(
          0, run.run.carve.phases_used - restore_base);
    }
    run.run.carve.run_retries = attempt;
    run.run.carve.rollbacks = rollbacks;
    run.run.carve.replayed_phases = replayed;
    if (!lossy) break;
    if (run.run.carve.status == CarveStatus::kOk) {
      if (run.run.carve.radius_overflow) {
        // A blown per-phase retry budget accepted truncated samples: the
        // validity certificate is void, treat like a failed validation.
        run.run.carve.status = CarveStatus::kRejected;
      } else {
        const FastDecompositionReport report = validate_decomposition_fast(
            original_graph, run.run.carve.clustering);
        if (report.complete && report.proper_phase_coloring &&
            report.all_clusters_connected) {
          break;  // validated under faults: genuinely kOk
        }
        run.run.carve.status = CarveStatus::kRejected;
      }
    }
    // Recovery: prefer the checkpoint (replay the failed suffix only).
    // The checkpoint survives across attempts — last-validated-wins is
    // sound because a validated prefix stays valid regardless of which
    // seed lineage produced it.
    if (rollbacks < rollback_budget && arena->checkpoint.restorable()) {
      ++rollbacks;
      protocol.arm_restore();
      restore_base = arena->checkpoint.next_phase;
      recovery_run = true;
      run_seed = stream_seed(seed, 2, static_cast<std::uint64_t>(rollbacks));
      continue;
    }
    if (attempt < run_budget) {
      ++attempt;
      restore_base = 0;
      recovery_run = true;
      run_seed = stream_seed(seed, 1, static_cast<std::uint64_t>(attempt));
      continue;
    }
    break;  // both budgets exhausted: named failure stands
  }
  run.run.carve.faults = total_faults;
  run.run.carve.rejoins = total_faults.rejoined;
  run.run.bounds = schedule.bounds;
  run.run.k = schedule.k;
  run.run.c = schedule.c;
  return run;
}

}  // namespace

// ---------------------------------------------------------------------------
// CarveContext
// ---------------------------------------------------------------------------

struct CarveContext::Impl {
  // Reconstructed original graph for lossy layout runs (validation is
  // keyed to original ids); otherwise original_graph borrows the input.
  std::optional<Graph> original_storage;
  const Graph* original_graph = nullptr;
  SyncEngine engine;
  CarvingProtocol protocol;
  // Checkpoint/rollback buffers, retained so warm runs checkpoint and
  // restore with zero steady-state allocation.
  RecoveryArena arena;

  Impl(const Graph& engine_graph, const EngineOptions& options,
       std::span<const VertexId> names)
      : engine(engine_graph, options), protocol(names) {}
};

CarveContext::CarveContext(const Graph& g, const EngineOptions& options)
    : impl_(std::make_unique<Impl>(g, options,
                                   std::span<const VertexId>{})) {
  impl_->original_graph = &g;
}

CarveContext::CarveContext(const LayoutGraph& lg, const EngineOptions& options)
    : impl_(std::make_unique<Impl>(lg.graph, options, lg.layout.to_old)) {
  if (impl_->engine.transport().lossy()) {
    // Faulted attempts are validated against the ORIGINAL graph (the
    // clustering is keyed to original ids). LayoutGraph does not carry
    // it, so reconstruct it by undoing the relabeling — paid once per
    // context, and only on the lossy path.
    impl_->original_storage.emplace(
        apply_layout(lg.graph, lg.layout.inverse()));
    impl_->original_graph = &*impl_->original_storage;
  } else {
    impl_->original_graph = &lg.graph;
  }
}

CarveContext::~CarveContext() = default;

SyncEngine& CarveContext::engine() { return impl_->engine; }
const SyncEngine& CarveContext::engine() const { return impl_->engine; }

DistributedRun run_schedule_distributed(CarveContext& context,
                                        const CarveSchedule& schedule,
                                        std::uint64_t seed) {
  return run_schedule_distributed_with(
      context.impl_->engine, context.impl_->protocol,
      *context.impl_->original_graph, schedule, seed, &context.impl_->arena);
}

// ---------------------------------------------------------------------------
// Context-free overloads (cold path: one engine per call)
// ---------------------------------------------------------------------------

DistributedRun run_schedule_distributed(const Graph& g,
                                        const CarveSchedule& schedule,
                                        std::uint64_t seed,
                                        const EngineOptions& engine_options) {
  CarveContext context(g, engine_options);
  return run_schedule_distributed(context, schedule, seed);
}

DistributedRun run_schedule_distributed(const LayoutGraph& lg,
                                        const CarveSchedule& schedule,
                                        std::uint64_t seed,
                                        const EngineOptions& engine_options) {
  CarveContext context(lg, engine_options);
  return run_schedule_distributed(context, schedule, seed);
}

}  // namespace dsnd
