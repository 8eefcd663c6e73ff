#include "decomposition/carving_protocol.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
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
  /// arena. With an arena the protocol validates every finalized phase
  /// incrementally and captures a checkpoint at each validated boundary;
  /// an invalid phase ends the run early with recovery_invalid_phase()
  /// set instead of joining bad clusters into the output.
  void enable_recovery(RecoveryArena* arena) {
    arena_ = arena;
    restore_armed_ = false;
  }

  /// Makes the NEXT begin() restore from the arena's checkpoint instead
  /// of starting fresh: the validated prefix phases are reinstated and
  /// the run resumes at the checkpoint's phase (one-shot; cleared by
  /// begin()). Requires an enabled arena with a captured checkpoint.
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
    best_.assign(n, CarveEntry{});
    second_.assign(n, CarveEntry{});
    sent_best_.assign(n, CarveEntry{});
    sent_second_.assign(n, CarveEntry{});
    radii_.resize(n);
    unit_scratch_.resize(n);
    step_ = 0;
    retry_ = 0;
    abort_attempt_ = false;
    accepted_overflow_ = false;
    sampled_overflow_ = false;
    invalid_phase_ = false;
    if (restore_armed_) {
      // Rollback: resume from the last validated checkpoint, a copy of
      // the record into retained buffers. Nothing else needs restoring —
      // best_/second_/sent_* are rewritten at the attempt's step 0 and
      // never read for carved vertices, and round 0 runs EVERY vertex,
      // so no wake-calendar snapshot is needed: carved vertices return
      // early via alive, live ones re-arm their own wake chain.
      DSND_CHECK(arena_ != nullptr && arena_->checkpoint.captured &&
                     arena_->checkpoint.progress.alive.size() == n,
                 "restore armed without a matching checkpoint");
      progress_ = arena_->checkpoint.progress;
      restore_armed_ = false;
    } else {
      progress_.reset(g.num_vertices());
    }
    begin_workers(1);
  }

  void begin_workers(unsigned workers) override {
    workers_ = workers == 0 ? 1 : workers;
    joined_.reset(workers_);
    chunk_stats_.assign(workers_, RadiusBatchStats{});
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
        abort_attempt_ = sampled_overflow_ && schedule_->replays(retry_);
        // Accepted overflowed samples void the output's validity
        // certificate (a spent retry budget).
        if (sampled_overflow_ && !abort_attempt_) accepted_overflow_ = true;
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
        ++progress_.retries;
      } else {
        if (arena_ != nullptr && !phase_validates()) {
          // The finalized phase failed incremental validation: a fault
          // corrupted its join decisions. Stop the run here — finished()
          // now fires and the recovery loop rolls back to the last
          // validated checkpoint instead of carving on top of a bad
          // phase. The round about to run is a deterministic no-op.
          invalid_phase_ = true;
          return;
        }
        progress_.advance_phase();
        joined_.reset(workers_);
        retry_ = 0;
        if (arena_ != nullptr && !accepted_overflow_) {
          // Checkpoint the validated prefix. An overflow-tainted run is
          // not checkpointed: restoring it would silently launder the
          // voided validity certificate into a later attempt.
          arena_->checkpoint.progress = progress_;
          arena_->checkpoint.captured = true;
        }
      }
      step_ = 0;
      abort_attempt_ = false;
    }
    // The round about to run is an attempt's sampling step (round 0
    // included).
    if (step_ == 0) sample_attempt(pool);
  }

  void on_round(VertexId v, std::size_t /*round*/,
                std::span<const MessageView> inbox, Outbox& out) override {
    // The engine checks finished() before the pre-round hook, so the
    // round in which the hook flags an invalid phase still executes:
    // make it a no-op so the run's metrics stay deterministic.
    if (invalid_phase_) return;
    const auto vi = static_cast<std::size_t>(v);
    if (!progress_.alive[vi]) return;

    if (step_ == 0) {
      // The radius was batch-sampled by on_round_begin (sample_attempt);
      // the vertex just reads its slot.
      best_[vi] = CarveEntry{radii_[vi], 0, name(v)};
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
      merge_entry(best_[vi], second_[vi],
                  CarveEntry{unpack_double(msg.words[2]),
                             static_cast<std::int32_t>(msg.words[3]),
                             static_cast<VertexId>(msg.words[1])});
    }

    if (step_ < schedule_->phase_rounds) {
      send_changed(v, out);
      return;
    }

    // Deciding step: the paper's join rule, margin 1.
    if (phase_join_decision(best_[vi], second_[vi], 1.0)) {
      progress_.join(v, best_[vi].center);
      ++joined_[out.worker()];
      out.send_to_all_neighbors({kTagLeave});
    } else {
      // Survivors sample again at the next attempt's step 0.
      out.wake_self_in(1);
    }
  }

  bool finished() const override {
    return invalid_phase_ || remaining() == 0;
  }

  CarveResult result() const {
    return carve_result(schedule_->target_phases(), schedule_->phase_rounds,
                        progress_, names_, accepted_overflow_);
  }

  /// The live list, less this phase's joiners (the list is compacted only
  /// at the phase advance).
  VertexId remaining() const {
    return joined_.fold(static_cast<VertexId>(progress_.live.size()),
                        [](VertexId acc, VertexId joined) {
                          return acc - joined;
                        });
  }

 private:
  VertexId name(VertexId v) const {
    return names_.empty() ? v : names_[static_cast<std::size_t>(v)];
  }

  /// Validates the clusters the just-decided phase finalized (serial —
  /// called from the pre-round hook only). `live` is compacted only at
  /// the phase advance, so its entries no longer alive are exactly this
  /// phase's joiners, ascending for any thread count.
  bool phase_validates() {
    arena_->joined.clear();
    for (const VertexId v : progress_.live) {
      if (!progress_.alive[static_cast<std::size_t>(v)]) {
        arena_->joined.push_back(v);
      }
    }
    return arena_->joined.empty() ||
           arena_->validator.validate_phase(
               *graph_, arena_->joined, progress_.chosen_center,
               progress_.chosen_phase, progress_.phase);
  }

  /// Fills radii_ for every live vertex for attempt (phase, retry_) in
  /// one chunk-parallel batched pass on the parked pool and folds the
  /// Lemma 1 overflow bit and the radius max. Every value comes from the
  /// same per-(seed, phase, name, retry) stream the scalar sampler
  /// draws, and the max/overflow fold over chunks is order-independent,
  /// so the outputs are bit-identical for every worker count. Serial
  /// (the pre-round hook), so the per-chunk stats need no
  /// synchronization.
  void sample_attempt(RoundPool& pool) {
    const std::int32_t phase = progress_.phase;
    const double beta = schedule_->beta_at(phase);
    progress_.phases_used = phase + 1;
    for (RadiusBatchStats& stats : chunk_stats_) stats = RadiusBatchStats{};
    const std::span<const VertexId> live(progress_.live);
    const std::span<double> scratch(unit_scratch_);
    pool.for_chunks(live.size(), [&](std::size_t chunk_begin,
                                     std::size_t chunk_end, unsigned w) {
      chunk_stats_[w] = carve_radius_sample_batch(
          seed_, phase, beta, retry_,
          live.subspan(chunk_begin, chunk_end - chunk_begin), names_,
          scratch.subspan(chunk_begin, chunk_end - chunk_begin), radii_,
          schedule_->radius_overflow_at);
    });
    RadiusBatchStats stats;
    for (const RadiusBatchStats& chunk : chunk_stats_) stats.merge(chunk);
    sampled_overflow_ = stats.overflow;
    progress_.max_sampled_radius =
        std::max(progress_.max_sampled_radius, stats.max_radius);
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
  // The run's record: workers write their own vertices' slots during the
  // deciding step; everything else moves only in the serial pre-round
  // hook.
  CarveProgress progress_;
  // Shared round plan, advanced only by the serial on_round_begin hook
  // and read-only during rounds (so every worker sees one consistent
  // (phase, step, retry, abort) view per round).
  std::int32_t step_ = 0;
  std::int32_t retry_ = 0;
  bool abort_attempt_ = false;
  bool accepted_overflow_ = false;
  // Fold of the batched sampling pass (serial state).
  bool sampled_overflow_ = false;
  // Phase-boundary recovery (null = disabled): the arena is owned by the
  // CarveContext so its buffers outlive and warm across runs.
  RecoveryArena* arena_ = nullptr;
  bool restore_armed_ = false;
  bool invalid_phase_ = false;
  unsigned workers_ = 1;
  // This phase's joiners per worker; folded by remaining(), zeroed at
  // the phase advance.
  PerWorker<VertexId> joined_;
  std::vector<double> radii_;
  std::vector<double> unit_scratch_;
  std::vector<RadiusBatchStats> chunk_stats_;
  std::vector<CarveEntry> best_;
  std::vector<CarveEntry> second_;
  std::vector<CarveEntry> sent_best_;
  std::vector<CarveEntry> sent_second_;
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
  carve = protocol.result();
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
/// every attempt that claims success must pass the library gate —
/// FastDecompositionReport::is_strong_decomposition at the schedule's
/// diameter bound; a failed attempt (rejected clustering,
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
  const std::size_t round_budget =
      schedule.round_budget(engine.graph().num_vertices());

  const std::int32_t run_budget = lossy ? schedule.max_run_retries : 0;
  const std::int32_t rollback_budget =
      lossy && arena != nullptr ? schedule.max_rollbacks : 0;
  protocol.enable_recovery(rollback_budget > 0 ? arena : nullptr);
  if (rollback_budget > 0) arena->checkpoint.captured = false;

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
        if (validate_decomposition_fast(original_graph,
                                        run.run.carve.clustering)
                .is_strong_decomposition(schedule.bounds.strong_diameter)) {
          break;  // validated under faults: genuinely kOk
        }
        run.run.carve.status = CarveStatus::kRejected;
      }
    }
    // Recovery: prefer the checkpoint (replay the failed suffix only).
    // The checkpoint survives across attempts — last-validated-wins is
    // sound because a validated prefix stays valid regardless of which
    // seed lineage produced it.
    if (rollbacks < rollback_budget && arena->checkpoint.captured) {
      ++rollbacks;
      protocol.arm_restore();
      restore_base = arena->checkpoint.progress.phase;
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

DecompositionRun run_schedule(const Graph& g, const CarveSchedule& schedule,
                              std::uint64_t seed) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  return run_schedule_distributed(g, schedule, seed).run;
}

}  // namespace dsnd
