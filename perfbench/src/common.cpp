#include "common.hpp"

#include <algorithm>

namespace perfbench {

void WorkloadReport::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    tail.value = values.back();
    return tail;
  }
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n);
  return tail;
}

void CarveCounters::add(const dsnd::DistributedRun& run) {
  ++carves;
  rounds += run.sim.rounds;
  messages += run.sim.messages;
  words += run.sim.words;
  activations += run.sim.vertex_activations;
  phases += static_cast<std::uint64_t>(run.run.carve.phases_used);
  retries += static_cast<std::uint64_t>(run.run.carve.retries);
}

CarveCounters& CarveCounters::operator+=(const CarveCounters& other) {
  carves += other.carves;
  rounds += other.rounds;
  messages += other.messages;
  words += other.words;
  activations += other.activations;
  phases += other.phases;
  retries += other.retries;
  return *this;
}

void CarveCounters::report(std::map<std::string, double>& layer,
                           const Tracer& tracer) const {
  if (carves == 0 || !tracer.enabled()) return;
  double carve_ms = 0.0;
  for (const double ms : tracer.durations("decomposition.carve")) {
    carve_ms += ms;
  }
  const auto mean = [&](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(carves);
  };
  layer["simulator.rounds"] = mean(rounds);
  layer["simulator.messages"] = mean(messages);
  layer["simulator.words"] = mean(words);
  layer["simulator.activations"] = mean(activations);
  if (carve_ms > 0.0) {
    layer["simulator.messages_per_s"] =
        static_cast<double>(messages) / (carve_ms / 1e3);
  }
  layer["decomposition.phases"] = mean(phases);
  layer["decomposition.lemma1_retries"] = mean(retries);
  layer["decomposition.attempt_yield"] =
      static_cast<double>(phases) / static_cast<double>(phases + retries);
}

std::string judge_decomposition(const dsnd::FastDecompositionReport& report,
                                const dsnd::DistributedRun& run) {
  if (run.run.carve.status != dsnd::CarveStatus::kOk) {
    return std::string("status ") +
           dsnd::carve_status_name(run.run.carve.status);
  }
  if (!report.complete) return "incomplete partition";
  if (!report.proper_phase_coloring) return "improper phase coloring";
  if (!report.all_clusters_connected) return "disconnected cluster";
  if (report.centerless_clusters != 0) return "cluster without its center";
  if (report.strong_diameter_upper >
      static_cast<std::int32_t>(run.run.bounds.strong_diameter)) {
    return "strong diameter above the theorem's bound";
  }
  return {};
}

bool same_clustering(const dsnd::Clustering& a, const dsnd::Clustering& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_clusters() != b.num_clusters()) {
    return false;
  }
  for (dsnd::VertexId v = 0; v < a.num_vertices(); ++v) {
    if (a.cluster_of(v) != b.cluster_of(v)) return false;
  }
  for (dsnd::ClusterId c = 0; c < a.num_clusters(); ++c) {
    if (a.center_of(c) != b.center_of(c) || a.color_of(c) != b.color_of(c)) {
      return false;
    }
  }
  return true;
}

bool same_run(const dsnd::DistributedRun& a, const dsnd::DistributedRun& b) {
  const dsnd::CarveResult& x = a.run.carve;
  const dsnd::CarveResult& y = b.run.carve;
  return a.sim.rounds == b.sim.rounds && a.sim.messages == b.sim.messages &&
         a.sim.words == b.sim.words &&
         a.sim.vertex_activations == b.sim.vertex_activations &&
         x.phases_used == y.phases_used && x.retries == y.retries &&
         x.rounds == y.rounds && x.carved_per_phase == y.carved_per_phase &&
         x.max_sampled_radius == y.max_sampled_radius &&
         same_clustering(x.clustering, y.clustering);
}

}  // namespace perfbench
