// The beta-schedule abstraction at the heart of the decomposition layer.
//
// All three theorems of the paper are ONE carving process (carving.hpp)
// instantiated with different beta schedules:
//
//   - Theorem 1: lambda phases at constant beta = ln(cn)/k;
//   - Theorem 2: stage-decaying beta_i = ln(cn/e^i)/k, s_i phases each;
//   - Theorem 3: lambda phases at beta = (cn)^{-1/lambda} with a
//     real-valued radius parameter k = (cn)^{1/lambda} ln(cn).
//
// CarveSchedule captures everything a run needs *except* the seed: the
// per-phase betas, the per-phase broadcast round budget (ceil(k)), the
// Lemma 1 overflow threshold, and the bounds the theorem promises. One
// implementation runs it, the CONGEST protocol on the simulator
// (carving_protocol.hpp):
//
//   run_schedule(g, schedule, seed)              the carve and its bounds
//   run_schedule_distributed(g, schedule, seed)  the same carve, plus the
//                                                simulator's accounting
//                                                and engine options
//
// so the bounds and parameters are derived exactly once per theorem. The
// theorem factories theorem{1,2,3}_schedule() (elkin_neiman.hpp,
// multistage.hpp, high_radius.hpp) plus a seed are the one way to ask
// for a carve. The E9 ablations (join margin, top-1 forwarding) are not
// served: they run on the dense reference carver the tests hold the
// protocol against (tests/reference_carver.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "decomposition/carving.hpp"
#include "decomposition/partition.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// Bounds promised by whichever theorem parameterized the run; benches
/// print measured-vs-bound and tests assert the measured side.
struct TheoremBounds {
  double strong_diameter = 0.0;
  double colors = 0.0;
  /// The theorem's whp round bound. Under the Las Vegas recarve loop
  /// (max_retries_per_phase > 0) a run may additionally spend
  /// CarveResult::extra_rounds replaying overflowed phases; compare
  /// measured rounds against rounds_with_retries(run.extra_rounds) so
  /// the round-complexity claim stays honest.
  double rounds = 0.0;
  double success_probability = 0.0;

  /// The bound a specific Las Vegas run must meet: the whp bound plus
  /// the rounds its recarve retries actually consumed.
  double rounds_with_retries(std::int64_t extra_rounds) const {
    return rounds + static_cast<double>(extra_rounds);
  }
};

/// A fully derived carving schedule: the per-phase betas plus everything
/// the theorems promise about running them. Seed-independent, so one
/// schedule can drive many runs.
struct CarveSchedule {
  /// Human-readable tag ("theorem1(k=4)") for traces and benches.
  std::string name;
  /// beta for phase t; overtime phases past the schedule (a run always
  /// carves to completion) reuse betas.back().
  std::vector<double> betas;
  /// Broadcast rounds per phase: ceil(k). Together with the membership
  /// announcement each phase occupies phase_rounds + 1 simulated rounds.
  std::int32_t phase_rounds = 1;
  /// Lemma 1's bad-event threshold (the paper's k + 1).
  double radius_overflow_at = 2.0;
  /// Lemma 1 resample budget per phase (see kDefaultMaxRetriesPerPhase):
  /// a positive budget makes every run's output valid unconditionally
  /// (Las Vegas) unless it is spent; 0 keeps the flag-and-proceed
  /// behavior for ablations.
  std::int32_t max_retries_per_phase = kDefaultMaxRetriesPerPhase;
  /// Whole-run restart budget for run_schedule_distributed's
  /// verify-and-recover loop under a LOSSY transport: an attempt whose
  /// output fails validation (or ends in a named engine failure) is
  /// retried with a run-salted seed up to this many times. Irrelevant —
  /// and never consulted — on reliable transports.
  std::int32_t max_run_retries = 4;
  /// Checkpoint-rollback budget for the same recovery loop: a failed
  /// attempt first restores the last validated phase-boundary checkpoint
  /// and replays only the suffix phases on a rollback-salted seed
  /// (stream_seed(seed, 2, rollback)), falling back to whole-run retries
  /// only when this budget is exhausted or no checkpoint exists yet.
  /// 0 disables rollback recovery entirely (the PR 7 retry-only loop).
  /// Never consulted on reliable transports.
  std::int32_t max_rollbacks = 8;
  /// Effective radius parameter (integer k for Theorems 1-2; the derived
  /// real k = (cn)^{1/lambda} ln(cn) for Theorem 3).
  double k = 0.0;
  /// Failure parameter; success probability is 1 - O(1)/c.
  double c = 0.0;
  TheoremBounds bounds;

  /// The scheduled number of phases (the theorem's color budget lambda).
  std::int32_t target_phases() const {
    return static_cast<std::int32_t>(betas.size());
  }

  /// beta for `phase`; overtime phases reuse the last one.
  double beta_at(std::int32_t phase) const {
    return phase < target_phases() ? betas[static_cast<std::size_t>(phase)]
                                   : betas.back();
  }

  /// Lemma 1's replay rule: an attempt whose samples overflowed, at
  /// per-phase retry index `retry`, is resampled rather than accepted.
  bool replays(std::int32_t retry) const {
    return retry < max_retries_per_phase;
  }

  /// Throws std::invalid_argument unless the schedule is runnable:
  /// betas nonempty, every beta > 0, phase_rounds >= 1 and every retry
  /// budget >= 0. Both runners call it on the caller's thread before
  /// any phase runs.
  void require_runnable() const;

  /// The round budget run_schedule_distributed gives each attempt of an
  /// n-vertex run: the theorem's whp bound with a full per-phase retry
  /// budget, plus overtime slack for phases past the schedule (at worst
  /// one carved vertex per phase). Generous enough that no legitimate run
  /// ever hits it; a run that does gets RunStatus::kRoundBudgetExhausted
  /// instead of spinning.
  std::size_t round_budget(VertexId num_vertices) const;
};

struct DecompositionRun {
  CarveResult carve;
  TheoremBounds bounds;
  /// Copied from the schedule (see CarveSchedule::k / ::c).
  double k = 0.0;
  double c = 0.0;

  const Clustering& clustering() const { return carve.clustering; }
};

/// The CarveResult of a run whose state is `progress`, for every backend
/// (the carve protocol, the reference carver, and Linial–Saks): clusters
/// ordered by phase, then by first member in name order (`names` maps
/// vertex ids to names; empty = identity), plus the round accounting at
/// phase_rounds + 1 rounds per attempt. target_phases is the scheduled
/// phase count; radius_overflow: the run accepted overflowed samples.
CarveResult carve_result(std::int32_t target_phases,
                         std::int32_t phase_rounds,
                         const CarveProgress& progress,
                         std::span<const VertexId> names,
                         bool radius_overflow);

/// Carves g with the schedule and seed and attaches the schedule's
/// bounds: run_schedule_distributed(g, schedule, seed).run on a default
/// engine (one thread, reliable transport), for callers that want the
/// decomposition and not the simulator's accounting. Throws
/// std::invalid_argument on an empty graph or an unrunnable schedule.
/// Defined with the protocol in carving_protocol.cpp.
DecompositionRun run_schedule(const Graph& g, const CarveSchedule& schedule,
                              std::uint64_t seed);

}  // namespace dsnd
