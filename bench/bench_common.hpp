// Shared plumbing for the experiment harnesses (bench_theorem1 ... ).
// Each binary prints the tables of its experiment in the "Experiment
// index" of docs/ARCHITECTURE.md. Setting DSND_BENCH_SCALE=N (integer,
// default 1) multiplies problem sizes/seed counts for longer,
// higher-confidence runs.
//
// Machine-readable output: every bench that constructs a JsonWriter
// accepts `--json <path>` and then also writes its results as a JSON
// array of flat records — the format BENCH_*.json perf-trajectory files
// are built from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/relabel.hpp"
#include "graph/validator.hpp"
#include "simulator/transport.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace dsnd::bench {

/// Graph::fingerprint as the zero-padded hex string the JSON records
/// carry (a bare uint64 would overflow doubles in lax JSON parsers).
/// Matches chkgraph's "fingerprint:" line and the service cache key.
inline std::string fingerprint_hex(const Graph& g) {
  std::ostringstream hex;
  hex << std::hex << g.fingerprint();
  std::string digits = hex.str();
  return std::string(16 - digits.size(), '0') + digits;
}

inline int scale() {
  if (const char* env = std::getenv("DSND_BENCH_SCALE")) {
    const int value = std::atoi(env);
    if (value >= 1) return value;
  }
  return 1;
}

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

/// Renders kInfiniteDiameter as "inf" for table cells.
inline std::string diameter_cell(std::int32_t diameter) {
  return diameter == kInfiniteDiameter ? "inf" : std::to_string(diameter);
}

/// The families every experiment sweeps unless stated otherwise.
inline const std::vector<std::string>& default_families() {
  static const std::vector<std::string> kNames = {"gnp-sparse", "grid",
                                                  "random-tree"};
  return kNames;
}

/// Las Vegas overflow accounting shared by the theorem benches. Under
/// the default per-phase retry budget every run's output is valid
/// unconditionally, so the benches no longer skip "overflow rows" — they
/// validate everything and report what the recovery cost (retries /
/// extra rounds). The one case a validator may still legitimately flag
/// is a run that ACCEPTED truncated samples (max_retries_per_phase = 0
/// ablations, or a blown retry budget), which
/// accepted_truncated_samples() detects; all six theorem benches consult
/// it the same way round (bench_theorem1 historically inverted the test).
inline bool accepted_truncated_samples(const CarveResult& carve) {
  return carve.radius_overflow;
}

/// Sweep-level tally of the Lemma 1 recovery machinery; one per table
/// row (or per bench), printed as a summary line or table cells.
struct RetryStats {
  std::int64_t retries = 0;
  std::int64_t extra_rounds = 0;
  int truncated_runs = 0;
  /// Runs where Lemma 1's event fired at least once (recovered or not) —
  /// the quantity the paper bounds by 2/c per run.
  int event_runs = 0;

  void observe(const CarveResult& carve) {
    retries += carve.retries;
    extra_rounds += carve.extra_rounds;
    if (accepted_truncated_samples(carve)) ++truncated_runs;
    if (carve.retries > 0 || accepted_truncated_samples(carve)) ++event_runs;
  }

  void print_line(std::ostream& out) const {
    out << "Lemma 1 recoveries: retries=" << retries
        << " extra_rounds=" << extra_rounds
        << " truncated_runs=" << truncated_runs << "\n";
  }
};

/// Returns true iff `flag` appears verbatim in argv.
inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Value of `--flag <int>`; fallback when absent or malformed. "0" is a
/// valid value (EngineOptions::threads = 0 means hardware concurrency).
inline int int_flag(int argc, char** argv, const std::string& flag,
                    int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) {
      char* end = nullptr;
      const long value = std::strtol(argv[i + 1], &end, 10);
      if (end == argv[i + 1] || *end != '\0' || value < 0) return fallback;
      return static_cast<int>(value);
    }
  }
  return fallback;
}

/// Collects flat records and writes them as a JSON array on flush().
/// Construct via from_args: inactive (records discarded) unless the
/// bench was invoked with `--json <path>`.
class JsonWriter {
 public:
  /// One flat JSON object; values are rendered as they are added.
  class Record {
   public:
    Record& field(const std::string& key, const std::string& value) {
      std::string escaped;
      for (const char c : value) {
        if (c == '"' || c == '\\') escaped.push_back('\\');
        escaped.push_back(c);
      }
      entries_.emplace_back(key, '"' + escaped + '"');
      return *this;
    }

    Record& field(const std::string& key, const char* value) {
      return field(key, std::string(value));
    }

    Record& field(const std::string& key, double value) {
      std::ostringstream out;
      out.precision(6);
      out << std::fixed << value;
      entries_.emplace_back(key, out.str());
      return *this;
    }

    template <typename T,
              typename std::enable_if_t<std::is_integral_v<T>, int> = 0>
    Record& field(const std::string& key, T value) {
      entries_.emplace_back(key, std::to_string(value));
      return *this;
    }

   private:
    friend class JsonWriter;
    std::vector<std::pair<std::string, std::string>> entries_;
  };

  static JsonWriter from_args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") return JsonWriter(argv[i + 1]);
    }
    return JsonWriter("");
  }

  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  Record& record() {
    records_.emplace_back();
    return records_.back();
  }

  /// Writes all records; called automatically at destruction.
  void flush() {
    if (!enabled() || flushed_) return;
    flushed_ = true;
    std::ofstream out(path_);
    out << "[\n";
    for (std::size_t r = 0; r < records_.size(); ++r) {
      out << "  {";
      const auto& entries = records_[r].entries_;
      for (std::size_t e = 0; e < entries.size(); ++e) {
        out << '"' << entries[e].first << "\": " << entries[e].second;
        if (e + 1 < entries.size()) out << ", ";
      }
      out << (r + 1 < records_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    std::cout << "\nwrote " << records_.size() << " JSON records to "
              << path_ << "\n";
  }

  ~JsonWriter() { flush(); }

 private:
  std::string path_;
  std::deque<Record> records_;  // deque: record() references stay valid
  bool flushed_ = false;
};

/// One engine-scaling measurement case: which theorem schedule to run,
/// how to run it (threads, layout), and whether to batch-validate the
/// resulting clustering.
struct EngineCaseOptions {
  int theorem = 1;
  /// k for Theorems 1-2 (0 = ceil(ln n)); lambda for Theorem 3
  /// (0 = the default lambda of 3).
  std::int32_t param = 0;
  /// Run validate_decomposition_fast on the output and report its wall
  /// time and verdict (complete + proper coloring + connected clusters).
  bool validate = false;
  /// Engine worker threads (EngineOptions::threads; 1 = serial).
  unsigned threads = 1;
  /// When set, run on this relabeled graph instead of `g` (the
  /// clustering comes back in original ids and is validated against the
  /// original `g`); layout_name labels the row.
  const LayoutGraph* layout = nullptr;
  std::string layout_name = "none";
  /// Graph construction wall time to report alongside the run (excluded
  /// from wall_ms as always); < 0 = not measured, field omitted.
  double construct_ms = -1.0;
  /// Carving seed. The theorems are probabilistic (success with
  /// probability 1 - O(1)/c); since PR 5 a seed that hits Lemma 1's
  /// radius-overflow event is recovered by the Las Vegas recarve loop —
  /// the row reports the cost via the retries / extra_rounds JSON fields
  /// and stays valid. Only a spent retry budget can still produce a
  /// legitimately INVALID row, flagged via radius_overflow.
  std::uint64_t seed = 42;
  /// When > 0, overrides the schedule's Lemma 1 threshold. The CI
  /// overflow smoke lowers it below k + 1 so the recarve loop triggers
  /// (radii in [override, k+1) would not even truncate — the point is
  /// to exercise the retry machinery, not to produce invalid output).
  double radius_overflow_at = 0.0;
  /// When > 0, overrides the schedule's per-phase retry budget. The
  /// overflow smoke raises it so a lowered threshold can never fall
  /// back to accepting overflowed samples.
  std::int32_t max_retries_per_phase = 0;
  /// Record the degree-distribution summary (min/mean/p90/p99/max,
  /// isolated count, MLE power-law alpha) in the JSON record. The
  /// scale-free sweeps set this so carve quality on heavy-tailed
  /// graphs can be read next to how heavy the tail actually was.
  bool degree_stats = false;
  /// When set, run the case through a FaultyTransport driven by this
  /// plan. The row then also reports the carve status, the whole-run
  /// retries the verify-and-recover loop spent, and the aggregated
  /// fault counters. The valid column distinguishes a NAMED failure
  /// (status string, counters nonzero) from a true contract violation
  /// ("INVALID": the run claimed ok but external validation failed) —
  /// only the latter is CI-grep bait.
  const FaultPlan* faults = nullptr;
  /// Checkpoint-rollback budget override (CarveSchedule::max_rollbacks):
  /// -1 keeps the schedule default, 0 disables rollback recovery (the
  /// whole-run-retry-only baseline of the recovery-cost A/B rows).
  std::int32_t max_rollbacks = -1;
  /// When non-null, filled with the row's outcome so sweep drivers can
  /// aggregate validity rates without re-validating.
  struct EngineCaseOutcome* outcome = nullptr;
  /// When > 1, run the case this many times on ONE reusable CarveContext:
  /// the first (cold) run pays context construction — engine, worker
  /// pool, protocol arrays — and runs 2..N are warm re-runs on the
  /// parked pool. wall_ms then reports the cold run, and the JSON record
  /// gains cold_ms / warm_ms (minimum over the warm runs) / warm_speedup.
  /// Every repeat must reproduce the cold run bit for bit — the whole
  /// CarveResult (every cluster_of, center and color, every counter) and
  /// the simulator's rounds, messages, words and activations; a divergent
  /// warm run flags the row INVALID (that IS a contract violation).
  int repeat = 1;
  /// EngineOptions::elide_quiet_rounds for the row — the barrier-elision
  /// A/B knob. Results are identical either way; only wall time may
  /// move. Rows with the fast path disabled mark their JSON record with
  /// "elide_quiet_rounds": 0 so the split is visible in BENCH files.
  bool elide_quiet_rounds = true;
};

/// What one engine_scaling_case actually did — the valid-column string
/// plus the chaos accounting, for drivers that summarize across rows.
struct EngineCaseOutcome {
  std::string valid;
  CarveStatus status = CarveStatus::kOk;
  std::int32_t run_retries = 0;
  std::int32_t rollbacks = 0;
  std::int64_t replayed_phases = 0;
  FaultCounters faults;
  /// repeat > 1 only: the cold/warm wall times (reported, never gated)
  /// and whether any warm run diverged from the cold one.
  double cold_ms = -1.0;
  double warm_ms = -1.0;
  bool warm_mismatch = false;
};

/// Shared engine-scaling measurement (bench_congest E8d and
/// bench_headline_scaling E4c): runs the selected theorem schedule as a
/// CONGEST protocol (seed 42) on `g`, appends one table row and one JSON
/// record, and returns the wall time in ms. Graph construction is
/// excluded from the timing. The columns for the table are
/// {schedule, family, n, m, threads, rounds, messages, words,
/// activations, wall_ms, validate_ms, valid}.
inline double engine_scaling_case(const std::string& family, const Graph& g,
                                  Table& table, JsonWriter& json,
                                  const EngineCaseOptions& options = {}) {
  const VertexId n = g.num_vertices();
  CarveSchedule schedule =
      options.theorem == 1 ? theorem1_schedule(n, options.param, 4.0)
      : options.theorem == 2
          ? theorem2_schedule(n, options.param, 6.0)
          : theorem3_schedule(n, options.param == 0 ? 3 : options.param,
                              4.0);
  if (options.radius_overflow_at > 0.0) {
    schedule.radius_overflow_at = options.radius_overflow_at;
  }
  if (options.max_retries_per_phase > 0) {
    schedule.max_retries_per_phase = options.max_retries_per_phase;
  }
  if (options.max_rollbacks >= 0) {
    schedule.max_rollbacks = options.max_rollbacks;
  }
  EngineOptions engine;
  engine.threads = options.threads;
  engine.elide_quiet_rounds = options.elide_quiet_rounds;
  std::optional<FaultyTransport> chaos;
  if (options.faults) {
    chaos.emplace(*options.faults);
    engine.transport = &*chaos;
  }
  DistributedRun run;
  double wall_ms = 0.0;
  double cold_ms = -1.0;
  double warm_ms = -1.0;
  bool warm_mismatch = false;
  if (options.repeat > 1) {
    // Cold = context construction (engine, worker pool, protocol arrays)
    // plus the first run; warm = re-runs on the same context, whose pool
    // stayed parked and whose buffers kept their capacity. Warm runs
    // must reproduce the cold clustering bit for bit.
    Timer cold_timer;
    std::optional<CarveContext> context;
    if (options.layout) {
      context.emplace(*options.layout, engine);
    } else {
      context.emplace(g, engine);
    }
    run = run_schedule_distributed(*context, schedule, options.seed);
    cold_ms = cold_timer.elapsed_millis();
    wall_ms = cold_ms;
    for (int rep = 1; rep < options.repeat; ++rep) {
      Timer warm_timer;
      const DistributedRun warm =
          run_schedule_distributed(*context, schedule, options.seed);
      const double ms = warm_timer.elapsed_millis();
      if (warm_ms < 0.0 || ms < warm_ms) warm_ms = ms;
      warm_mismatch |= warm.run.carve != run.run.carve ||
                       warm.sim.rounds != run.sim.rounds ||
                       warm.sim.messages != run.sim.messages ||
                       warm.sim.words != run.sim.words ||
                       warm.sim.vertex_activations !=
                           run.sim.vertex_activations;
    }
  } else {
    Timer timer;
    run = options.layout
              ? run_schedule_distributed(*options.layout, schedule,
                                         options.seed, engine)
              : run_schedule_distributed(g, schedule, options.seed, engine);
    wall_ms = timer.elapsed_millis();
  }

  double validate_ms = 0.0;
  std::string valid_cell = "-";
  std::int32_t diameter_upper = 0;
  if (options.validate) {
    Timer validate_timer;
    const FastDecompositionReport report =
        validate_decomposition_fast(g, run.run.clustering());
    validate_ms = validate_timer.elapsed_millis();
    const bool valid =
        report.is_strong_decomposition(schedule.bounds.strong_diameter);
    if (run.run.carve.status != CarveStatus::kOk) {
      // A named failure is the chaos contract holding, not a violation:
      // report the status string so the row reads as flagged, and keep
      // "INVALID" reserved for the silent case below.
      valid_cell = carve_status_name(run.run.carve.status);
    } else {
      valid_cell = valid ? "ok" : "INVALID";
    }
    diameter_upper = report.strong_diameter_upper;
  }
  if (warm_mismatch) {
    // A warm run that diverges from its cold twin violates the
    // bit-identity contract outright — that IS grep bait.
    valid_cell = "INVALID";
  }

  table.row()
      .cell(schedule.name)
      .cell(family)
      .cell(static_cast<std::int64_t>(n))
      .cell(g.num_edges())
      .cell(static_cast<std::uint64_t>(options.threads))
      .cell(static_cast<std::uint64_t>(run.sim.rounds))
      .cell(run.sim.messages)
      .cell(run.sim.words)
      .cell(run.sim.vertex_activations)
      .cell(wall_ms, 1)
      .cell(options.validate ? format_double(validate_ms, 1) : "-")
      .cell(valid_cell);
  auto& record = json.record()
                     .field("section", "engine_scaling")
                     .field("schedule", schedule.name)
                     .field("family", family)
                     .field("n", static_cast<std::int64_t>(n))
                     .field("m", g.num_edges())
                     .field("fingerprint", fingerprint_hex(g))
                     .field("threads", static_cast<std::uint64_t>(
                                           options.threads))
                     .field("layout", options.layout_name)
                     .field("rounds", static_cast<std::uint64_t>(run.sim.rounds))
                     .field("messages", run.sim.messages)
                     .field("words", run.sim.words)
                     .field("activations", run.sim.vertex_activations)
                     .field("wall_ms", wall_ms);
  if (options.seed != 42) {
    record.field("seed", options.seed);
  }
  if (options.construct_ms >= 0.0) {
    record.field("construct_ms", options.construct_ms);
  }
  if (options.repeat > 1) {
    record.field("repeat", options.repeat)
        .field("cold_ms", cold_ms)
        .field("warm_ms", warm_ms)
        .field("warm_speedup", cold_ms / std::max(warm_ms, 1e-6));
  }
  if (!options.elide_quiet_rounds) {
    record.field("elide_quiet_rounds", std::uint64_t{0});
  }
  // Las Vegas recovery cost, always recorded (zero = Lemma 1 never
  // fired) so the CI overflow smoke can grep for a nonzero count.
  record.field("retries", run.run.carve.retries)
      .field("extra_rounds", run.run.carve.extra_rounds);
  if (accepted_truncated_samples(run.run.carve)) {
    record.field("radius_overflow", std::uint64_t{1});
  }
  if (options.validate) {
    record.field("validate_ms", validate_ms)
        .field("valid", valid_cell)
        .field("strong_diameter_upper", diameter_upper);
  }
  if (options.faults) {
    const FaultCounters& faults = run.run.carve.faults;
    record.field("status", carve_status_name(run.run.carve.status))
        .field("run_retries", run.run.carve.run_retries)
        .field("rollbacks", run.run.carve.rollbacks)
        .field("replayed_phases", run.run.carve.replayed_phases)
        .field("dropped", faults.dropped)
        .field("delayed", faults.delayed)
        .field("duplicated", faults.duplicated)
        .field("crashed", faults.crashed)
        .field("drop_rate", options.faults->drop_rate);
    if (faults.rejoined != 0) {
      record.field("rejoined", faults.rejoined);
    }
  }
  if (options.outcome) {
    options.outcome->valid = valid_cell;
    options.outcome->status = run.run.carve.status;
    options.outcome->run_retries = run.run.carve.run_retries;
    options.outcome->rollbacks = run.run.carve.rollbacks;
    options.outcome->replayed_phases = run.run.carve.replayed_phases;
    options.outcome->faults = run.run.carve.faults;
    options.outcome->cold_ms = cold_ms;
    options.outcome->warm_ms = warm_ms;
    options.outcome->warm_mismatch = warm_mismatch;
  }
  if (options.degree_stats) {
    const DegreeStats degrees = dsnd::degree_stats(g);
    record.field("deg_min", degrees.min_degree)
        .field("deg_mean", degrees.mean_degree)
        .field("deg_p90", degrees.p90_degree)
        .field("deg_p99", degrees.p99_degree)
        .field("deg_max", degrees.max_degree)
        .field("deg_isolated", degrees.isolated_vertices)
        .field("powerlaw_alpha", degrees.powerlaw_alpha);
  }
  return wall_ms;
}

}  // namespace dsnd::bench
