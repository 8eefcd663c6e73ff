// The DecompositionService contract: service responses are bit-identical
// to the standalone carve entry points for every engine thread count and
// every submission order (serial, batched, concurrent soak); repeated
// requests are served from the cache (shared_ptr identity, hit/miss/
// eviction accounting exact, cold >> cached latency); one warm context
// per graph is created and reused; deliverables equal their standalone
// constructions; and bad requests throw instead of degrading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/coloring.hpp"
#include "apps/mis.hpp"
#include "apps/spanner.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/covers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "service/decomposition_service.hpp"
#include "service/result_cache.hpp"

namespace dsnd {
namespace {

void expect_identical(const DistributedRun& a, const DistributedRun& b,
                      const std::string& label) {
  ASSERT_EQ(a.sim.rounds, b.sim.rounds) << label;
  EXPECT_EQ(a.sim.messages, b.sim.messages) << label;
  EXPECT_EQ(a.sim.words, b.sim.words) << label;
  EXPECT_EQ(a.sim.vertex_activations, b.sim.vertex_activations) << label;
  EXPECT_EQ(a.run.carve.phases_used, b.run.carve.phases_used) << label;
  EXPECT_EQ(a.run.carve.retries, b.run.carve.retries) << label;
  EXPECT_EQ(a.run.carve.rounds, b.run.carve.rounds) << label;
  const Clustering& ca = a.run.clustering();
  const Clustering& cb = b.run.clustering();
  ASSERT_EQ(ca.num_clusters(), cb.num_clusters()) << label;
  for (VertexId v = 0; v < ca.num_vertices(); ++v) {
    ASSERT_EQ(ca.cluster_of(v), cb.cluster_of(v)) << label << " v=" << v;
  }
  for (ClusterId c = 0; c < ca.num_clusters(); ++c) {
    ASSERT_EQ(ca.center_of(c), cb.center_of(c)) << label << " c=" << c;
    ASSERT_EQ(ca.color_of(c), cb.color_of(c)) << label << " c=" << c;
  }
}

ServiceRequest decomposition_request(const std::string& graph_id,
                                     VertexId n, std::uint64_t seed) {
  ServiceRequest request;
  request.graph_id = graph_id;
  request.schedule = theorem1_schedule(n, 4, 4.0);
  request.seed = seed;
  return request;
}

TEST(Service, SubmitMatchesStandaloneAcrossEngineThreadCounts) {
  const VertexId n = 2000;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 1);
  const CarveSchedule schedule = theorem1_schedule(n, 4, 4.0);
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    EngineOptions engine;
    engine.threads = threads;
    const DistributedRun standalone =
        run_schedule_distributed(g, schedule, 9, engine);

    ServiceOptions options;
    options.engine = engine;
    DecompositionService service(options);
    service.register_graph("g", g);
    const ServiceResponse response =
        service.submit(decomposition_request("g", n, 9));
    ASSERT_TRUE(response.valid);
    ASSERT_EQ(response.status, "ok");
    expect_identical(response.result->run, standalone,
                     "threads=" + std::to_string(threads));
  }
}

TEST(Service, ConcurrentSubmissionSoakIsOrderAndRaceInvariant) {
  const VertexId n = 1000;
  struct Entry {
    std::string id;
    Graph graph;
  };
  const std::vector<Entry> graphs = {
      {"gnp", make_gnp(n, 8.0 / (n - 1), 1)},
      {"ring", make_cycle(n)},
      {"hyp", make_hyperbolic(n, 8.0, 2.8, 1)},
  };

  // The ground truth: standalone carves, one per (graph, seed).
  std::vector<ServiceRequest> requests;
  std::vector<DistributedRun> expected;
  for (const Entry& e : graphs) {
    for (const std::uint64_t seed : {3ULL, 5ULL, 8ULL, 13ULL}) {
      requests.push_back(decomposition_request(e.id, n, seed));
      expected.push_back(
          run_schedule_distributed(e.graph, requests.back().schedule, seed));
    }
  }

  // Soak: shuffled submission orders, submitted from several threads at
  // once against one service (cache off, so every submission really
  // carves — races in the pool, not the cache, are under test).
  std::mt19937 shuffle_rng(7);
  for (int round = 0; round < 3; ++round) {
    ServiceOptions options;
    options.cache_capacity = 0;
    DecompositionService service(options);
    for (const Entry& e : graphs) {
      service.register_graph(e.id, e.graph);
    }
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), shuffle_rng);

    std::vector<ServiceResponse> responses(requests.size());
    const unsigned submitters = 4;
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < submitters; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = w; i < order.size(); i += submitters) {
          responses[order[i]] = service.submit(requests[order[i]]);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(responses[i].valid);
      expect_identical(responses[i].result->run, expected[i],
                       "round=" + std::to_string(round) + " " +
                           requests[i].graph_id + " seed=" +
                           std::to_string(requests[i].seed));
    }
  }
}

TEST(Service, SubmitBatchMatchesSerialSubmission) {
  const VertexId n = 1000;
  const Graph a = make_gnp(n, 8.0 / (n - 1), 1);
  const Graph b = make_cycle(n);

  ServiceOptions options;
  options.cache_capacity = 0;
  DecompositionService serial_service(options);
  DecompositionService batch_service(options);
  for (DecompositionService* s : {&serial_service, &batch_service}) {
    s->register_graph("a", a);
    s->register_graph("b", b);
  }

  std::vector<ServiceRequest> requests;
  for (const std::uint64_t seed : {2ULL, 4ULL, 6ULL}) {
    requests.push_back(decomposition_request("a", n, seed));
    requests.push_back(decomposition_request("b", n, seed));
  }
  const std::vector<ServiceResponse> batched =
      batch_service.submit_batch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceResponse serial = serial_service.submit(requests[i]);
    expect_identical(batched[i].result->run, serial.result->run,
                     "i=" + std::to_string(i));
  }
}

TEST(Service, CacheHitsMissesAndEvictionsAreAccountedExactly) {
  const VertexId n = 400;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 1);
  ServiceOptions options;
  options.cache_capacity = 2;
  DecompositionService service(options);
  service.register_graph("g", g);

  const ServiceRequest a = decomposition_request("g", n, 1);
  const ServiceRequest b = decomposition_request("g", n, 2);
  const ServiceRequest c = decomposition_request("g", n, 3);

  const ServiceResponse a_cold = service.submit(a);  // miss -> {a}
  EXPECT_FALSE(a_cold.cache_hit);
  const ServiceResponse a_hot = service.submit(a);  // hit
  EXPECT_TRUE(a_hot.cache_hit);
  // A hit aliases the cached result, it does not recompute it.
  EXPECT_EQ(a_hot.result.get(), a_cold.result.get());

  service.submit(b);                                 // miss -> {b, a}
  service.submit(c);                                 // miss -> {c, b}, evicts a
  const ServiceResponse a_again = service.submit(a);  // miss again
  EXPECT_FALSE(a_again.cache_hit);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_evictions, 2u);  // a (by c), then b (by a_again)
  EXPECT_EQ(stats.cache_entries, 2u);

  // The evicted-and-recomputed run is still the same run.
  expect_identical(a_again.result->run, a_cold.result->run, "a recomputed");
}

TEST(Service, WarmContextIsCreatedOncePerGraphAndReused) {
  const VertexId n = 600;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 1);
  const Graph h = make_cycle(n);
  ServiceOptions options;
  options.cache_capacity = 0;  // every submission must reach the pool
  DecompositionService service(options);
  service.register_graph("g", g);
  service.register_graph("h", h);

  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    service.submit(decomposition_request("g", n, seed));
  }
  service.submit(decomposition_request("h", n, 7));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.contexts_created, 2u);  // one per graph, not per request
  EXPECT_EQ(stats.warm_acquires, 2u);     // g's 2nd and 3rd submission
}

TEST(Service, CachedResponsesAreMuchFasterThanColdOnes) {
  const VertexId n = 5000;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 1);
  DecompositionService service;
  service.register_graph("g", g);
  const ServiceRequest request = decomposition_request("g", n, 11);
  const ServiceResponse cold = service.submit(request);
  const ServiceResponse cached = service.submit(request);
  ASSERT_FALSE(cold.cache_hit);
  ASSERT_TRUE(cached.cache_hit);
  // A hit is a map probe + shared_ptr copy; the cold run simulated a
  // full CONGEST execution. 10x is a deliberately loose floor for CI.
  EXPECT_LT(cached.wall_ms * 10.0, cold.wall_ms);
}

TEST(Service, DeliverablesMatchTheirStandaloneConstructions) {
  const VertexId n = 500;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 2);
  DecompositionService service;
  service.register_graph("g", g);

  ServiceRequest request = decomposition_request("g", n, 5);
  const DistributedRun standalone_run =
      run_schedule_distributed(g, request.schedule, 5);
  const Clustering& clustering = standalone_run.run.clustering();

  request.deliverable = Deliverable::kMis;
  const ServiceResponse mis = service.submit(request);
  ASSERT_TRUE(mis.result->mis.has_value());
  const MisResult standalone = mis_by_decomposition(g, clustering);
  EXPECT_EQ(mis.result->mis->in_mis, standalone.in_mis);
  EXPECT_EQ(mis.result->mis->cost.rounds, standalone.cost.rounds);

  request.deliverable = Deliverable::kColoring;
  const ServiceResponse coloring = service.submit(request);
  ASSERT_TRUE(coloring.result->coloring.has_value());
  const ColoringResult standalone_coloring =
      coloring_by_decomposition(g, clustering);
  EXPECT_EQ(coloring.result->coloring->colors, standalone_coloring.colors);
  EXPECT_EQ(coloring.result->coloring->cost.rounds,
            standalone_coloring.cost.rounds);

  request.deliverable = Deliverable::kSpanner;
  const ServiceResponse spanner = service.submit(request);
  ASSERT_TRUE(spanner.result->spanner.has_value());
  const SpannerResult standalone_spanner =
      spanner_by_decomposition(g, clustering);
  EXPECT_EQ(spanner.result->spanner->spanner, standalone_spanner.spanner);
  EXPECT_EQ(spanner.result->spanner->stretch, standalone_spanner.stretch);
  EXPECT_EQ(spanner.result->spanner->stretch,
            measure_stretch(g, spanner.result->spanner->spanner));

  // The cover deliverable must reproduce build_neighborhood_cover bit
  // for bit: same power-graph carve (the headline k = ln n schedule),
  // same expansion.
  const Graph small = make_gnp(200, 0.04, 3);
  service.register_graph("small", small);
  ServiceRequest cover_request;
  cover_request.graph_id = "small";
  cover_request.schedule = theorem1_schedule(200, 0, 4.0);
  cover_request.seed = 5;
  cover_request.deliverable = Deliverable::kCover;
  cover_request.cover_radius = 2;
  const ServiceResponse cover = service.submit(cover_request);
  ASSERT_TRUE(cover.result->cover.has_value());

  CoverOptions cover_options;
  cover_options.radius = 2;
  cover_options.seed = 5;
  const NeighborhoodCover expected =
      build_neighborhood_cover(small, cover_options);
  const NeighborhoodCover& got = *cover.result->cover;
  EXPECT_EQ(got.num_colors, expected.num_colors);
  ASSERT_EQ(got.clusters.size(), expected.clusters.size());
  for (std::size_t i = 0; i < got.clusters.size(); ++i) {
    EXPECT_EQ(got.clusters[i].members, expected.clusters[i].members)
        << "cluster " << i;
    EXPECT_EQ(got.clusters[i].color, expected.clusters[i].color);
  }
  const CoverReport report = validate_cover(small, got);
  EXPECT_TRUE(report.all_balls_covered);
  EXPECT_TRUE(report.color_classes_disjoint);
}

TEST(Service, RegisterGraphOwnsItsCopy) {
  DecompositionService service;
  std::uint64_t fingerprint = 0;
  {
    const Graph g = make_gnp(300, 0.03, 1);
    fingerprint = service.register_graph("g", g);  // copy, then drop g
  }
  EXPECT_TRUE(service.has_graph("g"));
  EXPECT_EQ(service.graph_fingerprint("g"), fingerprint);
  const ServiceResponse response =
      service.submit(decomposition_request("g", 300, 4));
  EXPECT_TRUE(response.valid);
  EXPECT_EQ(response.status, "ok");
}

TEST(Service, FingerprintDistinguishesGraphsAndPinsEquality) {
  const Graph a = make_gnp(500, 0.02, 1);
  const Graph b = make_gnp(500, 0.02, 2);
  EXPECT_EQ(a.fingerprint(), make_gnp(500, 0.02, 1).fingerprint());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Service, ScheduleSignaturePinned) {
  // The result cache keys on this value: a change to the fold
  // (mix_word) or to the fields it reads changes every key.
  EXPECT_EQ(schedule_signature(theorem1_schedule(1000, 4)),
            0xd09d310b8766532fULL);
}

TEST(Service, ReRegisteringAGraphIdIsSafeAndServesTheNewGraph) {
  const VertexId n = 400;
  const Graph first = make_gnp(n, 8.0 / (n - 1), 1);
  const Graph second = make_cycle(n);
  DecompositionService service;
  const std::uint64_t old_fingerprint = service.register_graph("g", first);
  const ServiceResponse before =
      service.submit(decomposition_request("g", n, 3));
  ASSERT_TRUE(before.valid);

  // Replacing the registration must not leave the warm context (built
  // on the old graph) reachable under the id: the slot is keyed by
  // fingerprint and the retired registration stays shared-owned, so the
  // next submit carves the NEW graph on a fresh context.
  const std::uint64_t new_fingerprint = service.register_graph("g", second);
  ASSERT_NE(old_fingerprint, new_fingerprint);
  EXPECT_EQ(service.graph_fingerprint("g"), new_fingerprint);
  const ServiceResponse after =
      service.submit(decomposition_request("g", n, 3));
  ASSERT_TRUE(after.valid);
  const CarveSchedule schedule = theorem1_schedule(n, 4, 4.0);
  expect_identical(after.result->run,
                   run_schedule_distributed(second, schedule, 3),
                   "after re-registration");
  expect_identical(before.result->run,
                   run_schedule_distributed(first, schedule, 3),
                   "before re-registration");
  // ...and the result carved on the old graph is not served for the new
  // one: fingerprints separate the cache entries.
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(service.stats().contexts_created, 2u);
}

TEST(Service, SubmitBatchSurfacesBadRequestsAsExceptions) {
  const VertexId n = 300;
  const Graph a = make_gnp(n, 8.0 / (n - 1), 1);
  const Graph b = make_cycle(n);
  DecompositionService service;
  service.register_graph("a", a);
  service.register_graph("b", b);

  // Three distinct graph ids force the multi-group (worker-thread)
  // path; the unknown id must throw the same std::invalid_argument it
  // does under serial submission instead of escaping its thread and
  // terminating the process.
  const std::vector<ServiceRequest> requests = {
      decomposition_request("a", n, 1),
      decomposition_request("missing", n, 1),
      decomposition_request("b", n, 1),
  };
  EXPECT_THROW(service.submit_batch(requests), std::invalid_argument);
}

TEST(Service, IdenticalCoverRequestsHitTheCache) {
  const Graph g = make_gnp(200, 0.04, 1);
  DecompositionService service;
  service.register_graph("g", g);

  ServiceRequest cover;
  cover.graph_id = "g";
  cover.schedule = theorem1_schedule(200, 0, 4.0);
  cover.seed = 5;
  cover.deliverable = Deliverable::kCover;
  cover.cover_radius = 2;
  const ServiceResponse cold = service.submit(cover);
  ASSERT_TRUE(cold.valid);
  // The repeat is served from the cache, not a second carve of G^5.
  const ServiceResponse hot = service.submit(cover);
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.result.get(), cold.result.get());
}

TEST(Service, ClusteringOverTheDiameterBoundIsInvalidAndNotCached) {
  // The 20x20 grid carve is complete, properly colored and connected,
  // and its 2 * radius certificate is 4. With the schedule's bound set
  // to 0 the gate must refuse it instead of serving it as ok.
  const Graph g = make_grid2d(20, 20);
  DecompositionService service;
  service.register_graph("grid", g);
  ServiceRequest request;
  request.graph_id = "grid";
  request.schedule = theorem1_schedule(g.num_vertices(), 3);
  request.schedule.bounds.strong_diameter = 0.0;
  const ServiceResponse response = service.submit(request);
  EXPECT_FALSE(response.valid);
  EXPECT_EQ(response.status, "INVALID");
  EXPECT_FALSE(service.submit(request).cache_hit);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.invalid_responses, 2u);
}

TEST(Service, BadRequestsThrowInsteadOfDegrading) {
  const Graph g = make_gnp(200, 0.04, 1);
  DecompositionService service;
  service.register_graph("g", g);

  EXPECT_THROW(service.submit(decomposition_request("nope", 200, 1)),
               std::invalid_argument);

  ServiceRequest cover = decomposition_request("g", 200, 1);
  cover.deliverable = Deliverable::kCover;
  cover.cover_radius = 0;
  EXPECT_THROW(service.submit(cover), std::invalid_argument);
  // 2W + 1 must fit in 32 bits: a larger W is rejected by name before
  // the power graph's exponent can overflow.
  for (const std::int32_t radius :
       {std::int32_t{1} << 30, std::numeric_limits<std::int32_t>::max()}) {
    cover.cover_radius = radius;
    try {
      service.submit(cover);
      ADD_FAILURE() << "cover radius " << radius << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("cover radius"),
                std::string::npos)
          << error.what();
    }
  }
  // W = 2^30 - 1 is the largest valid radius (2W + 1 = INT32_MAX).
  cover.cover_radius = (std::int32_t{1} << 30) - 1;
  EXPECT_TRUE(service.submit(cover).valid);

  EXPECT_EQ(deliverable_by_name("spanner"), Deliverable::kSpanner);
  EXPECT_STREQ(deliverable_name(Deliverable::kCover), "cover");
  EXPECT_THROW(deliverable_by_name("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
