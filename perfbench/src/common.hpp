// Shared vocabulary of the benchmark workloads: run options, what a
// workload reports back, order statistics, and the output checks every
// carve goes through.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/validation.hpp"
#include "trace.hpp"

namespace perfbench {

/// Engine threads per carve. The engine runs on the calling thread alone:
/// with more, its WorkerPool can lose a parked driver's wake-up and hang
/// (README.md, "Known hazard"). Restoring parallel engines is a change of
/// this constant alone; service-mixed gives each of its two clients' pooled
/// contexts half of it.
constexpr unsigned kEngineThreads = 1;
/// Set-up is made this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run hands back to main(), which turns it into the
/// end-to-end metrics and, on traced runs, the per-layer metrics.
struct WorkloadReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  /// Wall time of each set-up repetition (the last one's state is used).
  std::vector<double> setup_s;
  /// Latency of every timed operation.
  std::vector<double> op_ms;
  /// The denominator of ops_per_s: the summed operation time, so time
  /// spent on checks between operations is left out.
  double busy_s = 0.0;
  /// Per-layer values that do not come from span durations (counters,
  /// ratios, service statistics), keyed by per-layer metric name.
  std::map<std::string, double> layer;
  /// (input name, Graph::fingerprint) of every generated input.
  std::vector<std::pair<std::string, std::uint64_t>> inputs;
  /// Extra human-readable result lines.
  std::vector<std::string> notes;

  void fail(const std::string& what);
};

double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. With fewer than 11 samples no percentile qualifies and
/// the maximum (percentile 100) is reported instead.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values);

inline double millis_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}


/// Sums the counters a distributed carve returns (SimMetrics and
/// CarveResult) into the per-layer simulator.* / decomposition.* values.
struct CarveCounters {
  std::uint64_t carves = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t activations = 0;
  std::uint64_t phases = 0;
  std::uint64_t retries = 0;

  void add(const dsnd::DistributedRun& run);
  CarveCounters& operator+=(const CarveCounters& other);
  /// Per-carve means, plus messages per second of the time the tracer's
  /// "decomposition.carve" spans cover. Only traced runs report layers.
  void report(std::map<std::string, double>& layer,
              const Tracer& tracer) const;
};

/// Empty when `run` is a valid decomposition by `report` (complete,
/// properly phase-colored, connected, every cluster holding its center,
/// within the schedule's strong-diameter bound, status ok); otherwise
/// the reason it is not.
std::string judge_decomposition(const dsnd::FastDecompositionReport& report,
                                const dsnd::DistributedRun& run);

/// Bit-for-bit equality of two carves: clustering, centers, colors and
/// every counter.
bool same_clustering(const dsnd::Clustering& a, const dsnd::Clustering& b);
bool same_run(const dsnd::DistributedRun& a, const dsnd::DistributedRun& b);

WorkloadReport run_pipeline(const Options& options, Tracer& tracer);
WorkloadReport run_service_mixed(const Options& options, Tracer& tracer);

}  // namespace perfbench
