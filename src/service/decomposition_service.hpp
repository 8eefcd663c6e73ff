// Decomposition-as-a-service: a long-lived scheduler + cache on top of
// the warm CarveContexts of decomposition/carving_protocol.hpp. It is
// one client of the carving core among several — the examples, benches
// and tests call run_schedule / run_schedule_distributed directly — and
// the layering runs one way: service/ depends on decomposition/, never
// the reverse.
//
// Request lifecycle:
//
//   submit(request)
//     -> registry lookup (graph_id -> Graph + fingerprint)
//     -> cache probe        key = (fingerprint, schedule signature,
//                                  seed, deliverable, cover radius)
//        hit  -> shared_ptr to the cached result, zero recarve
//        miss -> execute:
//                  cover -> carve G^{2W+1} with run_schedule (a cold
//                           one-thread engine: the power graph's topology
//                           has no pooled context), expand W hops via
//                           expand_clusters_to_cover
//                  other -> ContextPool::acquire(fingerprint): the
//                           graph's warm context (same-graph requests
//                           serialize on it; distinct graphs run in
//                           parallel), run_schedule_distributed on it
//             -> validate_decomposition_fast gate (never-silently-
//                invalid: a run that fails external validation is
//                reported "INVALID", never cached)
//             -> deliverable post-pass (mis/coloring/spanner/cover over
//                the clustering)
//             -> cache insert (validated kOk results only)
//
// The service serves the paper's exact rules only; the E9 ablations (join
// margin, top-1 forwarding) run on the tests' reference carver. Results
// are bit-identical to a standalone run_schedule_distributed (or, for
// covers, build_neighborhood_cover) for every (graph, schedule, seed),
// every thread count, every submission order, and every warm/cold state
// — the engine contract that makes caching and warm scheduling sound in
// the first place.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/coloring.hpp"
#include "apps/mis.hpp"
#include "apps/spanner.hpp"
#include "decomposition/carve_schedule.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/covers.hpp"
#include "service/context_pool.hpp"
#include "service/result_cache.hpp"
#include "simulator/engine.hpp"

namespace dsnd {

/// What the caller wants computed from the carve.
enum class Deliverable : std::int32_t {
  kDecomposition = 0,
  kMis = 1,
  kColoring = 2,
  kSpanner = 3,
  kCover = 4,
};

const char* deliverable_name(Deliverable deliverable);
/// Inverse of deliverable_name; throws on unknown names (dsnd_serve's
/// request parser).
Deliverable deliverable_by_name(const std::string& name);

struct ServiceRequest {
  std::string graph_id;
  CarveSchedule schedule;
  std::uint64_t seed = 1;
  Deliverable deliverable = Deliverable::kDecomposition;
  /// kCover only: the cover radius W. The schedule is carved on
  /// G^{2W+1} (same vertex count, so schedules derived from n apply).
  std::int32_t cover_radius = 2;
};

/// The immutable result a response points at (shared: cache hits alias
/// the original). run.sim is all-zero for cover requests, which carve
/// through run_schedule and keep only its DecompositionRun.
struct ServiceResult {
  DistributedRun run;
  std::optional<MisResult> mis;
  std::optional<ColoringResult> coloring;
  std::optional<SpannerResult> spanner;
  std::optional<NeighborhoodCover> cover;
};

struct ServiceResponse {
  std::shared_ptr<const ServiceResult> result;
  bool cache_hit = false;
  /// False only when the validation gate failed (status "INVALID").
  bool valid = true;
  /// "ok", a named CarveStatus, or "INVALID".
  std::string status = "ok";
  double wall_ms = 0.0;
};

struct ServiceOptions {
  /// Forwarded to every pooled context; a borrowed transport must
  /// outlive the service.
  EngineOptions engine;
  /// Result-cache entries to retain (LRU); 0 disables caching.
  std::size_t cache_capacity = 64;
};

struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t contexts_created = 0;
  std::uint64_t warm_acquires = 0;
  std::uint64_t invalid_responses = 0;
};

class DecompositionService {
 public:
  explicit DecompositionService(const ServiceOptions& options = {});
  ~DecompositionService();

  DecompositionService(const DecompositionService&) = delete;
  DecompositionService& operator=(const DecompositionService&) = delete;

  /// Registers an owned graph under graph_id (replacing any previous
  /// registration of that id; the retired registration stays alive —
  /// shared ownership — until every in-flight submit and warm context
  /// built on it lets go, so replacement is race-free). Returns its
  /// fingerprint.
  std::uint64_t register_graph(const std::string& graph_id, Graph graph);

  bool has_graph(const std::string& graph_id) const;
  /// Fingerprint of a registered graph; throws if unknown.
  std::uint64_t graph_fingerprint(const std::string& graph_id) const;

  /// Executes (or serves from cache) one request. Blocking and
  /// thread-safe: any number of threads may submit concurrently;
  /// requests sharing a graph serialize on its warm context, distinct
  /// graphs run in parallel. Throws std::invalid_argument for an
  /// unknown graph_id or a cover radius outside [1, kMaxCoverRadius].
  ServiceResponse submit(const ServiceRequest& request);

  /// Submits a batch, scheduling same-graph runs onto one context in
  /// submission order and distinct graphs onto parallel workers.
  /// Responses are returned in request order. A request that fails
  /// (unknown graph_id, bad cover radius) makes the whole call throw
  /// that request's exception — the first such in request order, after
  /// the remaining work finishes — matching serial submission instead
  /// of letting it escape a worker thread.
  std::vector<ServiceResponse> submit_batch(
      const std::vector<ServiceRequest>& requests);

  ServiceStats stats() const;

 private:
  struct RegisteredGraph {
    Graph graph;
    std::uint64_t fingerprint = 0;
  };

  std::shared_ptr<const RegisteredGraph> lookup(
      const std::string& graph_id) const;
  std::shared_ptr<const ServiceResult> execute(
      const ServiceRequest& request,
      const std::shared_ptr<const RegisteredGraph>& registered,
      bool& valid, std::string& status);

  ServiceOptions options_;
  ContextPool pool_;
  ResultCache cache_;

  mutable std::mutex registry_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const RegisteredGraph>>
      graphs_;

  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t invalid_responses_ = 0;
};

}  // namespace dsnd
