// The repository benchmark program. Runs one workload for a fixed time,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last stdout line:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// The line before it is {"detail": {...}}: input fingerprints, the
// workload-level metric names, the tail's percentile, each set-up time,
// failures, notes and (traced) the per-layer metrics and self times, from
// which perfbench/run.py writes the stamped record. Exits 1 when any
// output check fails. See perfbench/README.md for the workloads and
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  /// Per-layer metrics measured as the median length of this span name;
  /// nullptr when the value comes from WorkloadReport::layer.
  const char* span = nullptr;
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_ms", "ms", "graph.generate"},
    {"graph.relabel_ms", "ms", "graph.relabel"},
    {"graph.power_ms", "ms", "graph.power"},
    {"simulator.rounds", "count"},
    {"simulator.messages", "count"},
    {"simulator.words", "count"},
    {"simulator.activations", "count"},
    {"simulator.messages_per_s", "1/s"},
    {"decomposition.context_build_ms", "ms", "decomposition.context_build"},
    {"decomposition.carve_ms", "ms", "decomposition.carve"},
    {"decomposition.validate_ms", "ms", "decomposition.validate"},
    {"decomposition.cover_expand_ms", "ms", "decomposition.cover_expand"},
    {"decomposition.phases", "count"},
    {"decomposition.lemma1_retries", "count"},
    {"decomposition.attempt_yield", "ratio"},
    {"apps.mis_ms", "ms", "apps.mis"},
    {"apps.coloring_ms", "ms", "apps.coloring"},
    {"apps.spanner_ms", "ms", "apps.spanner"},
    {"service.requests", "count"},
    {"service.cache_hits", "count"},
    {"service.hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.contexts_created", "count"},
    {"service.warm_acquires", "count"},
    {"service.hit_us.p50", "us"},
    {"service.miss_ms.p50", "ms"},
    {"service.unaccounted_ms", "ms"},
};

struct Value {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest text that reads back as the same double.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof escape, "\\u%04x", c);
      out += escape;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A JSON object of (key, JSON text) fields.
std::string object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i > 0 ? ", " : "") + quoted(fields[i].first) + ": " +
           fields[i].second;
  }
  return out + "}";
}

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

std::string metrics_object(const std::vector<Value>& values) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const Value& v : values) {
    fields.emplace_back(v.name, object({{"value", number(v.value)},
                                        {"unit", quoted(v.unit)}}));
  }
  return object(fields);
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  Options options;
  std::string trace_file;
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.options.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

void print_self_times(const Tracer& tracer, double run_ms) {
  const auto rows = tracer.self_times();
  std::vector<std::pair<std::string, SelfTimeRow>> sorted(rows.begin(),
                                                          rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::cout << "self time by span (" << number(run_ms / 1e3)
            << " s measured in the run):\n"
            << "  " << std::left << std::setw(32) << "span" << std::right
            << std::setw(8) << "count" << std::setw(14) << "total_ms"
            << std::setw(14) << "self_ms" << std::setw(9) << "self%"
            << '\n';
  for (const auto& [name, row] : sorted) {
    std::cout << "  " << std::left << std::setw(32) << name << std::right
              << std::setw(8) << row.count << std::setw(14) << std::fixed
              << std::setprecision(1) << row.total_ms << std::setw(14)
              << row.self_ms << std::setw(8)
              << 100.0 * row.self_ms / std::max(run_ms, 1e-9) << "%\n";
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
}

int run(const Args& args) {
  const Options& options = args.options;
  const Clock::time_point process_start = Clock::now();
  Tracer tracer(options.trace);
  WorkloadReport report;
  if (options.workload == "pipeline-rgg-1m") {
    report = run_pipeline(options, tracer);
  } else if (options.workload == "service-mixed") {
    report = run_service_mixed(options, tracer);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  const double run_ms = millis_since(process_start);
  if (report.op_ms.empty()) report.fail("no operation completed");
  const std::uint64_t attempted = std::max<std::uint64_t>(report.attempted, 1);
  const double fail_rate =
      static_cast<double>(report.failed) / static_cast<double>(attempted);

  const Tail tail = tail_of(report.op_ms);
  const std::vector<Value> end_to_end = {
      {"op_ms.p50", median(report.op_ms), "ms"},
      {"op_ms.tail", tail.value, "ms"},
      {"ops_per_s",
       report.busy_s > 0.0
           ? static_cast<double>(report.op_ms.size()) / report.busy_s
           : 0.0,
       "1/s"},
      {"setup_s", median(report.setup_s), "s"},
  };
  // Printed and recorded, but not in the result line: on service-mixed it
  // follows how many graphs a run happens to re-register.
  const Value peak_rss{"peak_rss_mb", peak_rss_mb(), "MB"};
  // The same numbers under the names the workload's users think in.
  std::vector<Value> named;
  if (options.workload == "pipeline-rgg-1m") {
    named = {{"pipeline_s", end_to_end[0].value / 1e3, "s"}};
  } else {
    named = {{"requests_per_s", end_to_end[2].value, "1/s"},
             {"request_ms.p50", end_to_end[0].value, "ms"},
             {"request_ms.tail", end_to_end[1].value, "ms"}};
  }
  std::ostringstream tail_label;
  tail_label << "p" << number(std::round(tail.percentile * 100) / 100)
             << " of " << tail.samples << " samples";

  std::vector<Value> per_layer;
  for (const MetricSpec& spec : kPerLayer) {
    double value = 0.0;
    if (spec.span != nullptr) {
      value = median(tracer.durations(spec.span));
    } else if (const auto it = report.layer.find(spec.name);
               it != report.layer.end()) {
      value = it->second;
    }
    per_layer.push_back({spec.name, value, spec.unit});
  }

  std::cout << "workload " << options.workload << "  seed " << options.seed
            << "  seconds " << number(options.seconds) << "  trace "
            << (options.trace ? 1 : 0) << '\n';
  for (const auto& [name, fingerprint] : report.inputs) {
    std::cout << "  input " << name << ": " << hex(fingerprint) << '\n';
  }
  std::cout << "attempted " << report.attempted << "  failed " << report.failed
            << "  fail_rate " << number(fail_rate) << '\n';
  for (const std::string& why : report.failures) {
    std::cout << "  FAILED: " << why << '\n';
  }
  for (const Value& v : end_to_end) {
    std::cout << "  " << v.name << " = " << number(v.value) << ' ' << v.unit
              << (v.name == "op_ms.tail" ? "  (" + tail_label.str() + ")" : "")
              << '\n';
  }
  for (const Value& v : named) {
    std::cout << "  " << v.name << " = " << number(v.value) << ' ' << v.unit
              << '\n';
  }
  std::cout << "  " << peak_rss.name << " = " << number(peak_rss.value) << ' '
            << peak_rss.unit << '\n';
  for (const std::string& note : report.notes) {
    std::cout << "  " << note << '\n';
  }

  std::vector<std::pair<std::string, std::string>> self_time;
  if (options.trace) {
    std::cout << "per-layer metrics:\n";
    for (const Value& v : per_layer) {
      std::cout << "  " << v.name << " = " << number(v.value) << ' ' << v.unit
                << '\n';
    }
    const auto self = tracer.self_times();
    if (const auto it = self.find("op.pipeline"); it != self.end()) {
      std::cout << "  layer spans cover "
                << number(100.0 *
                          (1.0 - it->second.self_ms / it->second.total_ms))
                << "% of op.pipeline time\n";
    }
    print_self_times(tracer, run_ms);
    for (const auto& [name, row] : self) {
      self_time.emplace_back(
          name, object({{"count", std::to_string(row.count)},
                        {"total", number(row.total_ms)},
                        {"self", number(row.self_ms)}}));
    }
    if (!args.trace_file.empty()) {
      std::ofstream trace_file(args.trace_file);
      tracer.write_chrome_trace(trace_file);
      std::cout << "chrome trace: " << args.trace_file << '\n';
    }
  }

  std::vector<std::pair<std::string, std::string>> inputs;
  for (const auto& [name, fingerprint] : report.inputs) {
    inputs.emplace_back(name, quoted(hex(fingerprint)));
  }
  const auto strings = [](const std::vector<std::string>& items) {
    std::vector<std::string> out;
    for (const std::string& item : items) out.push_back(quoted(item));
    return array(out);
  };
  std::vector<std::string> setup_each;
  for (const double s : report.setup_s) setup_each.push_back(number(s));
  std::vector<std::pair<std::string, std::string>> detail = {
      {"compiler", quoted(PERFBENCH_COMPILER)},
      {"build_type", quoted(PERFBENCH_BUILD_TYPE)},
      {"inputs", object(inputs)},
      {"fail_rate", number(fail_rate)},
      {"failures", strings(report.failures)},
      {"named", metrics_object(named)},
      {"unbounded", metrics_object({peak_rss})},
      {"tail", object({{"percentile", number(tail.percentile)},
                       {"samples", std::to_string(tail.samples)}})},
      {"setup_s_each", array(setup_each)},
      {"notes", strings(report.notes)},
  };
  if (options.trace) {
    detail.emplace_back("per_layer", metrics_object(per_layer));
    detail.emplace_back("self_time_ms", object(self_time));
  }
  std::cout << object({{"detail", object(detail)}}) << '\n';

  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << std::min(report.failed, attempted)
            << ", \"metrics\": "
            << metrics_object(options.trace ? per_layer : end_to_end) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
