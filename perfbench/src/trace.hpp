// Benchmark-side span tracing.
//
// Every span the benchmark records wraps one call it makes into a layer
// of the library (or a whole operation, set-up step or output check), so
// the trace measures the library from outside. Spans are kept in memory
// until the run ends, then written as Chrome trace-event JSON and folded
// into a per-name self-time table. When tracing is off a Span neither
// reads the clock nor allocates.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t request = -1;  // operation the span belongs to; -1 = none
  int lane = 0;               // client / thread lane in the trace viewer

  double millis() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// Aggregate of all spans sharing a name.
struct SelfTimeRow {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  // total minus the time covered by child spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Thread-safe; ids are unique and nonzero.
  std::uint64_t next_id();
  void record(SpanRecord span);

  /// Durations (ms) of every span with this name, in record order.
  std::vector<double> durations(const std::string& name) const;

  std::map<std::string, SelfTimeRow> self_times() const;
  void write_chrome_trace(std::ostream& out) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: opened on construction, recorded on close() or
/// destruction. A no-op when the tracer is disabled (id() is then 0).
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0,
       std::int64_t request = -1, int lane = 0);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  /// Ends the span now and returns its length in ms; 0 when it was
  /// already closed or tracing is off.
  double close();

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::int64_t request_;
  int lane_;
  Clock::time_point start_{};
  bool open_ = false;
};

}  // namespace perfbench
