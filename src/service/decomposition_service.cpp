#include "service/decomposition_service.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "decomposition/validation.hpp"
#include "graph/power.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace dsnd {

const char* deliverable_name(Deliverable deliverable) {
  switch (deliverable) {
    case Deliverable::kDecomposition:
      return "decomposition";
    case Deliverable::kMis:
      return "mis";
    case Deliverable::kColoring:
      return "coloring";
    case Deliverable::kSpanner:
      return "spanner";
    case Deliverable::kCover:
      return "cover";
  }
  DSND_CHECK(false, "unreachable deliverable");
  return "?";
}

Deliverable deliverable_by_name(const std::string& name) {
  for (const Deliverable d :
       {Deliverable::kDecomposition, Deliverable::kMis,
        Deliverable::kColoring, Deliverable::kSpanner, Deliverable::kCover}) {
    if (name == deliverable_name(d)) return d;
  }
  DSND_REQUIRE(false, "unknown deliverable: " + name);
  return Deliverable::kDecomposition;  // unreachable
}

DecompositionService::DecompositionService(const ServiceOptions& options)
    : options_(options),
      pool_(options.engine),
      cache_(options.cache_capacity) {}

DecompositionService::~DecompositionService() = default;

std::uint64_t DecompositionService::register_graph(
    const std::string& graph_id, Graph graph) {
  auto registered = std::make_shared<RegisteredGraph>();
  registered->fingerprint = graph.fingerprint();
  registered->graph = std::move(graph);
  const std::uint64_t fingerprint = registered->fingerprint;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  graphs_[graph_id] = std::move(registered);
  return fingerprint;
}

bool DecompositionService::has_graph(const std::string& graph_id) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return graphs_.contains(graph_id);
}

std::uint64_t DecompositionService::graph_fingerprint(
    const std::string& graph_id) const {
  return lookup(graph_id)->fingerprint;
}

std::shared_ptr<const DecompositionService::RegisteredGraph>
DecompositionService::lookup(const std::string& graph_id) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = graphs_.find(graph_id);
  DSND_REQUIRE(it != graphs_.end(),
               "unknown graph_id: " + graph_id +
                   " (register_graph it first)");
  // Shared ownership: a concurrent re-registration of the id swaps the
  // map entry but retires the old registration only after every caller
  // holding this pointer has drained.
  return it->second;
}

std::shared_ptr<const ServiceResult> DecompositionService::execute(
    const ServiceRequest& request,
    const std::shared_ptr<const RegisteredGraph>& registered,
    bool& valid, std::string& status) {
  const Graph& g = registered->graph;
  auto result = std::make_shared<ServiceResult>();
  // The graph the base clustering lives on (G^{2W+1} for covers).
  const Graph* carved_graph = &g;
  std::optional<Graph> power_storage;

  if (request.deliverable == Deliverable::kCover) {
    // Covers carve the power graph. Its topology differs from the
    // registered graph, so the pooled context does not apply: run_schedule
    // carves it on a cold one-thread engine and keeps no sim accounting.
    power_storage.emplace(graph_power(g, 2 * request.cover_radius + 1));
    carved_graph = &*power_storage;
    result->run.run =
        run_schedule(*carved_graph, request.schedule, request.seed);
  } else {
    ContextPool::Lease lease =
        pool_.acquire(registered->fingerprint, g, registered);
    result->run =
        run_schedule_distributed(lease.context(), request.schedule,
                                 request.seed);
  }

  status = carve_status_name(result->run.run.carve.status);
  const bool clustering_ok =
      validate_decomposition_fast(*carved_graph, result->run.run.clustering())
          .is_strong_decomposition(request.schedule.bounds.strong_diameter);
  if (result->run.run.carve.status == CarveStatus::kOk && !clustering_ok) {
    // The never-silently-invalid contract: a run that claimed ok but
    // fails external validation is flagged, never served as good and
    // never cached. (Named failures keep their status string.)
    valid = false;
    status = "INVALID";
    return result;
  }
  valid = true;

  const Clustering& clustering = result->run.run.clustering();
  switch (request.deliverable) {
    case Deliverable::kDecomposition:
      break;
    case Deliverable::kMis:
      result->mis = mis_by_decomposition(g, clustering);
      break;
    case Deliverable::kColoring:
      result->coloring = coloring_by_decomposition(g, clustering);
      break;
    case Deliverable::kSpanner:
      result->spanner = spanner_by_decomposition(g, clustering);
      break;
    case Deliverable::kCover: {
      NeighborhoodCover cover;
      cover.radius = request.cover_radius;
      cover.base = result->run.run;
      cover.num_colors = clustering.num_colors();
      cover.clusters =
          expand_clusters_to_cover(g, clustering, request.cover_radius);
      result->cover = std::move(cover);
      break;
    }
  }
  return result;
}

ServiceResponse DecompositionService::submit(const ServiceRequest& request) {
  Timer timer;
  const std::shared_ptr<const RegisteredGraph> registered =
      lookup(request.graph_id);

  const bool is_cover = request.deliverable == Deliverable::kCover;
  DSND_REQUIRE(!is_cover || request.cover_radius >= 1,
               "cover radius must be positive");
  DSND_REQUIRE(!is_cover || request.cover_radius <= kMaxCoverRadius,
               "cover radius must be at most 2^30 - 1");

  ResultCacheKey key;
  key.graph_fingerprint = registered->fingerprint;
  key.schedule = schedule_signature(request.schedule);
  key.seed = request.seed;
  key.deliverable = static_cast<std::int32_t>(request.deliverable);
  key.cover_radius = is_cover ? request.cover_radius : 0;

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++requests_;
  }

  ServiceResponse response;
  if (auto cached = cache_.find(key)) {
    response.result = std::move(cached);
    response.cache_hit = true;
    response.status =
        carve_status_name(response.result->run.run.carve.status);
    response.wall_ms = timer.elapsed_millis();
    return response;
  }

  response.result =
      execute(request, registered, response.valid, response.status);
  if (response.valid &&
      response.result->run.run.carve.status == CarveStatus::kOk) {
    cache_.insert(key, response.result);
  }
  if (!response.valid) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++invalid_responses_;
  }
  response.wall_ms = timer.elapsed_millis();
  return response;
}

std::vector<ServiceResponse> DecompositionService::submit_batch(
    const std::vector<ServiceRequest>& requests) {
  std::vector<ServiceResponse> responses(requests.size());
  // Group indices by graph_id, preserving submission order within each
  // group: one worker per distinct graph drains its group sequentially
  // (same-graph requests share one warm context anyway), distinct
  // graphs run in parallel.
  std::vector<std::pair<std::string, std::vector<std::size_t>>> groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& e) {
      return e.first == requests[i].graph_id;
    });
    if (it == groups.end()) {
      groups.emplace_back(requests[i].graph_id,
                          std::vector<std::size_t>{i});
    } else {
      it->second.push_back(i);
    }
  }
  if (groups.size() <= 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      responses[i] = submit(requests[i]);
    }
    return responses;
  }
  std::vector<std::exception_ptr> errors(requests.size());
  std::vector<std::thread> workers;
  workers.reserve(groups.size());
  for (const auto& [graph_id, indices] : groups) {
    workers.emplace_back([this, &requests, &responses, &errors, &indices] {
      for (const std::size_t i : indices) {
        try {
          responses[i] = submit(requests[i]);
        } catch (...) {
          // Captured, not propagated: an exception escaping a worker
          // thread would std::terminate the whole process, turning one
          // bad request in a batch into a fatal event that the same
          // request submitted serially survives.
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return responses;
}

ServiceStats DecompositionService::stats() const {
  ServiceStats stats;
  const ResultCacheStats cache = cache_.stats();
  const ContextPoolStats pool = pool_.stats();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats.requests = requests_;
  stats.invalid_responses = invalid_responses_;
  stats.cache_hits = cache.hits;
  stats.cache_misses = cache.misses;
  stats.cache_evictions = cache.evictions;
  stats.cache_entries = cache.entries;
  stats.contexts_created = pool.contexts_created;
  stats.warm_acquires = pool.warm_acquires;
  return stats;
}

}  // namespace dsnd
