#include "trace.hpp"

#include <iomanip>
#include <unordered_map>

namespace perfbench {

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(span.millis());
  }
  return out;
}

std::map<std::string, SelfTimeRow> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, double> child_ms;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) child_ms[span.parent] += span.millis();
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const SpanRecord& span : spans_) {
    SelfTimeRow& row = rows[span.name];
    const double ms = span.millis();
    ++row.count;
    row.total_ms += ms;
    const auto it = child_ms.find(span.id);
    row.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  return rows;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << std::fixed << std::setprecision(3);
  bool first = true;
  for (const SpanRecord& span : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.lane << ",\"ts\":" << micros(span.start)
        << ",\"dur\":" << micros(span.end) - micros(span.start)
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}}";
  }
  out << "\n]}\n";
}

Span::Span(Tracer& tracer, const char* name, std::uint64_t parent,
           std::int64_t request, int lane)
    : tracer_(tracer),
      name_(name),
      parent_(parent),
      request_(request),
      lane_(lane) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.next_id();
  open_ = true;
  start_ = Clock::now();
}

double Span::close() {
  if (!open_) return 0.0;
  open_ = false;
  SpanRecord span{name_, start_, Clock::now(), id_, parent_, request_, lane_};
  const double ms = span.millis();
  tracer_.record(std::move(span));
  return ms;
}

}  // namespace perfbench
