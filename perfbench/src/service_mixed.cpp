// service-mixed: a closed loop of two clients sharing one
// DecompositionService. Each client sends its next request only after the
// previous reply, replaying its own deterministic trace over four graph
// ids: G(n, p), hyperbolic and random geometric graphs of 5k vertices
// (average degree 8) and a 2k-vertex ring. The trace is made of shuffled rounds of 20 requests
// with exact shares of each kind, so a run's mix does not depend on how
// many requests it gets through. Repeats of the client's own earlier
// requests are cache hits; fresh seeds are misses that carve and compute
// a deliverable. About every 50 requests a client
// re-registers one of its graph ids with new contents: a new fingerprint,
// a cold context and stranded cache entries. The only workload where the
// apps and service layers do work.
//
// Each client registers its own ids ("c0.gnp", ...), so its trace never
// depends on the other client's timing and the planned hit count is
// exact; version 0 of every id has the same contents for both clients,
// so until a re-registration their requests share (and queue on) one
// pooled context.
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "apps/checkers.hpp"
#include "common.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "service/decomposition_service.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 2;
/// Engine threads per pooled context: the clients share kEngineThreads.
constexpr unsigned kContextThreads =
    kEngineThreads / kClients > 0 ? kEngineThreads / kClients : 1;
/// Large enough that a repeat's entry cannot be evicted before it is
/// named (repeats look back at most kRepeatWindow own requests), small
/// enough that stranded entries are evicted within a run.
constexpr std::size_t kCacheCapacity = 128;
constexpr std::size_t kRepeatWindow = 8;
constexpr std::int32_t kCoverRadius = 1;
/// Seed of the set-up warm-up requests, the same for every workload seed.
constexpr std::uint64_t kWarmupSeed = 0x5eed;

enum Family : int { kGnp = 0, kHyperbolic = 1, kRgg = 2, kRing = 3 };
constexpr std::size_t kFamilies = 4;
constexpr std::array<Family, kFamilies> kAllFamilies = {kGnp, kHyperbolic,
                                                        kRgg, kRing};
constexpr std::array<const char*, kFamilies> kFamilyNames = {
    "gnp", "hyperbolic", "rgg", "ring"};

/// Graph ids per client and family.
constexpr std::array<std::array<const char*, kFamilies>, kClients> kGraphIds =
    {{{"c0.gnp", "c0.hyperbolic", "c0.rgg", "c0.ring"},
      {"c1.gnp", "c1.hyperbolic", "c1.rgg", "c1.ring"}}};

enum class Kind { kRepeat, kDecomposition, kMis, kColoring, kSpanner, kCover };

/// One round of each client's trace, shuffled anew every round: 30%
/// repeats, 40% decomposition misses (half on each small-world graph), 10%
/// MIS, 10% coloring, 5% spanners and 5% covers. Hits cost microseconds,
/// the other misses tens of ms and spanners about a second, so the median
/// sits inside the decomposition misses and the tail inside the spanners.
/// MIS and coloring run on the geometric graph: on the small-world graphs
/// the schedule can leave one cluster with most of the vertices, and the
/// exact diameter of every cluster that both compute then made one MIS
/// take 50 ms to 1.9 s depending on the carve seed. Spanners run on
/// G(n, p), where measuring the stretch (a BFS from every vertex) costs
/// the same for every carve, and covers on the ring.
struct RoundEntry {
  Kind kind;
  Family family;
  int count;
};
constexpr std::array<RoundEntry, 7> kRound = {
    {{Kind::kRepeat, kGnp, 6},
     {Kind::kDecomposition, kGnp, 4},
     {Kind::kDecomposition, kHyperbolic, 4},
     {Kind::kMis, kRgg, 2},
     {Kind::kColoring, kRgg, 2},
     {Kind::kSpanner, kGnp, 1},
     {Kind::kCover, kRing, 1}}};

dsnd::Deliverable deliverable_of(Kind kind) {
  switch (kind) {
    case Kind::kMis:
      return dsnd::Deliverable::kMis;
    case Kind::kColoring:
      return dsnd::Deliverable::kColoring;
    case Kind::kSpanner:
      return dsnd::Deliverable::kSpanner;
    case Kind::kCover:
      return dsnd::Deliverable::kCover;
    default:
      return dsnd::Deliverable::kDecomposition;
  }
}

/// Contents of `version` of a family's graph for `client`. Version 0 is
/// the same for every client; later versions are client-specific.
dsnd::Graph family_graph(Family family, std::uint64_t seed, int client,
                         int version) {
  const std::uint64_t key =
      version == 0 ? 0
                   : static_cast<std::uint64_t>(client + 1) * 1000003u +
                         static_cast<std::uint64_t>(version);
  switch (family) {
    case kGnp:
      return dsnd::make_gnp(5000, 8.0 / 4999.0,
                            dsnd::stream_seed(seed, 20, key));
    case kHyperbolic:
      return dsnd::make_hyperbolic(5000, 8.0, 2.8,
                                   dsnd::stream_seed(seed, 21, key));
    case kRgg:
      // Radius for an expected average degree of 8.
      return dsnd::make_rgg(20000,
                            std::sqrt(8.0 / (3.14159265358979 * 20000)),
                            dsnd::stream_seed(seed, 22, key));
    case kRing:
      break;
  }
  return dsnd::make_cycle(2000 +
                          (version == 0 ? 0 : 2 * version + client));
}

/// One request as issued and answered.
struct Served {
  std::int64_t id = 0;
  Kind kind = Kind::kDecomposition;  // of the original for a repeat
  bool repeat = false;
  std::size_t original = 0;  // log index a repeat names
  Family family = kGnp;
  std::shared_ptr<const dsnd::Graph> graph;
  dsnd::ServiceRequest request;
  dsnd::ServiceResponse response;
  double ms = 0.0;
  bool answered = false;
};

struct Registration {
  std::shared_ptr<const dsnd::Graph> graph;
  int version = 0;
};

/// A benchmark-owned warm context (traced runs replay misses on it).
struct ReplayContext {
  std::shared_ptr<const dsnd::Graph> graph;
  std::unique_ptr<dsnd::CarveContext> context;
};

/// A carve served from a warm pooled context, kept to be re-run cold.
struct ColdSample {
  std::int64_t id = 0;
  std::shared_ptr<const dsnd::Graph> graph;
  dsnd::ServiceRequest request;
  dsnd::DistributedRun run;
};

struct Client {
  int index = 0;
  dsnd::Xoshiro256ss rng{0};
  std::array<std::string, kFamilies> ids;
  std::array<Registration, kFamilies> current;
  std::vector<Served> log;
  std::deque<std::size_t> recent;  // log indices a repeat may name
  std::vector<std::pair<Kind, Family>> round;  // rest of the current round
  int until_reregister = 0;
  std::uint64_t next_seed = 0;
  std::uint64_t planned_hits = 0;
  CarveCounters counters;
  std::vector<double> unaccounted_ms;
  std::map<std::uint64_t, ReplayContext> replay_contexts;
  std::array<ColdSample, 2> cold_samples;  // the first and the last carve
  std::vector<std::pair<std::string, std::uint64_t>> inputs;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

class ServiceMixed {
 public:
  ServiceMixed(const Options& options, Tracer& tracer)
      : options_(options), tracer_(tracer) {}

  WorkloadReport run();

 private:
  void setup();
  void client_loop(Client& client, Clock::time_point deadline);
  void step(Client& client);
  void reregister(Client& client);
  std::pair<Kind, Family> draw(Client& client);
  void replay(Client& client, const Served& served);
  dsnd::CarveContext& replay_context(Client& client,
                                     const std::shared_ptr<const dsnd::Graph>&
                                         graph,
                                     std::uint64_t parent,
                                     std::int64_t request, double& build_ms);
  void check(Client& client, const Served& served);

  const Options& options_;
  Tracer& tracer_;
  std::unique_ptr<dsnd::DecompositionService> service_;
  std::array<Client, kClients> clients_;
};

void ServiceMixed::setup() {
  // Stream tags: 20/21/22 = graph contents, 30 = client traces, 100 + client
  // = request seeds.
  service_.reset();
  Span setup_span(tracer_, "setup");
  dsnd::ServiceOptions service_options;
  service_options.engine.threads = kContextThreads;
  service_options.cache_capacity = kCacheCapacity;
  service_ = std::make_unique<dsnd::DecompositionService>(service_options);
  std::array<std::shared_ptr<const dsnd::Graph>, kFamilies> initial;
  for (const Family family : kAllFamilies) {
    Span span(tracer_, "graph.generate", setup_span.id());
    initial[family] = std::make_shared<const dsnd::Graph>(
        family_graph(family, options_.seed, 0, 0));
  }
  for (int c = 0; c < kClients; ++c) {
    Client& client = clients_[static_cast<std::size_t>(c)];
    client = Client{};
    client.index = c;
    client.rng = dsnd::Xoshiro256ss(
        dsnd::stream_seed(options_.seed, 30, static_cast<std::uint64_t>(c)));
    client.until_reregister = 40 + static_cast<int>(
        dsnd::uniform_below(client.rng, 21));
    for (const Family family : kAllFamilies) {
      client.ids[family] = kGraphIds[static_cast<std::size_t>(c)][family];
      client.current[family] = Registration{initial[family], 0};
      const std::uint64_t fingerprint =
          service_->register_graph(client.ids[family], *initial[family]);
      if (c == 0) {
        client.inputs.emplace_back(
            std::string(kFamilyNames[family]) + "@v0", fingerprint);
      }
    }
  }
  // Warm the pooled contexts the version-0 carves will use (covers carve
  // centralized, so the ring needs none).
  for (const Family family : {kGnp, kHyperbolic, kRgg}) {
    Span span(tracer_, "setup.warmup_request", setup_span.id());
    dsnd::ServiceRequest request;
    request.graph_id = clients_[0].ids[family];
    request.schedule =
        dsnd::theorem1_schedule(initial[family]->num_vertices(), 0, 4.0);
    request.seed = kWarmupSeed + static_cast<std::uint64_t>(family);
    service_->submit(request);
    if (tracer_.enabled()) {
      for (Client& client : clients_) {
        double ignored = 0.0;
        replay_context(client, initial[family], setup_span.id(), -1, ignored);
      }
    }
  }
}

std::pair<Kind, Family> ServiceMixed::draw(Client& client) {
  if (client.round.empty()) {
    for (const RoundEntry& entry : kRound) {
      client.round.insert(client.round.end(),
                          static_cast<std::size_t>(entry.count),
                          {entry.kind, entry.family});
    }
    for (std::size_t i = client.round.size() - 1; i > 0; --i) {
      std::swap(client.round[i],
                client.round[dsnd::uniform_below(client.rng, i + 1)]);
    }
  }
  const std::pair<Kind, Family> next = client.round.back();
  client.round.pop_back();
  return next;
}

void ServiceMixed::reregister(Client& client) {
  const auto family =
      static_cast<Family>(dsnd::uniform_below(client.rng, kFamilies));
  Registration& registration = client.current[family];
  ++registration.version;
  {
    Span span(tracer_, "graph.generate", 0, -1, client.index);
    registration.graph = std::make_shared<const dsnd::Graph>(family_graph(
        family, options_.seed, client.index, registration.version));
  }
  {
    Span span(tracer_, "service.register", 0, -1, client.index);
    const std::uint64_t fingerprint =
        service_->register_graph(client.ids[family], *registration.graph);
    client.inputs.emplace_back(client.ids[family] + "@v" +
                                   std::to_string(registration.version),
                               fingerprint);
  }
  // Repeats only name requests made since the id's last registration.
  std::erase_if(client.recent, [&](std::size_t i) {
    Served& served = client.log[i];
    if (served.family != family) return false;
    served.response.result.reset();
    return true;
  });
  client.until_reregister =
      40 + static_cast<int>(dsnd::uniform_below(client.rng, 21));
}

void ServiceMixed::step(Client& client) {
  if (--client.until_reregister <= 0) reregister(client);
  Served served;
  served.id = static_cast<std::int64_t>(client.index) * 1000000 +
              static_cast<std::int64_t>(client.log.size());
  std::tie(served.kind, served.family) = draw(client);
  if (served.kind == Kind::kRepeat && client.recent.empty()) {
    served.kind = Kind::kDecomposition;
  }
  if (served.kind == Kind::kRepeat) {
    served.repeat = true;
    served.original = client.recent[dsnd::uniform_below(
        client.rng, client.recent.size())];
    const Served& original = client.log[served.original];
    served.kind = original.kind;
    served.family = original.family;
    served.graph = original.graph;
    served.request = original.request;
    ++client.planned_hits;
  } else {
    served.graph = client.current[served.family].graph;
    served.request.graph_id = client.ids[served.family];
    served.request.schedule =
        dsnd::theorem1_schedule(served.graph->num_vertices(), 0, 4.0);
    served.request.seed = dsnd::stream_seed(
        options_.seed, 100 + static_cast<std::uint64_t>(client.index),
        client.next_seed++);
    served.request.deliverable = deliverable_of(served.kind);
    served.request.cover_radius = kCoverRadius;
  }

  {
    Span span(tracer_, "service.submit", 0, served.id, client.index);
    const Clock::time_point start = Clock::now();
    try {
      served.response = service_->submit(served.request);
      served.answered = served.response.result != nullptr;
    } catch (const std::exception& e) {
      client.fail("request " + std::to_string(served.id) +
                  " threw: " + e.what());
    }
    served.ms = millis_since(start);
  }
  client.log.push_back(std::move(served));
  Served& done = client.log.back();
  // Checks run between requests, outside the submit clock. A result is
  // released once no later repeat can name it, so memory does not grow
  // with the number of requests.
  check(client, done);
  if (done.repeat || !done.answered) {
    done.response.result.reset();
    return;
  }
  if (!done.response.cache_hit && done.kind != Kind::kCover) {
    client.counters.add(done.response.result->run);
    const std::size_t slot = client.cold_samples[0].graph ? 1 : 0;
    client.cold_samples[slot] = ColdSample{done.id, done.graph, done.request,
                                           done.response.result->run};
  }
  if (tracer_.enabled() && !done.response.cache_hit) replay(client, done);
  client.recent.push_back(client.log.size() - 1);
  if (client.recent.size() > kRepeatWindow) {
    client.log[client.recent.front()].response.result.reset();
    client.recent.pop_front();
  }
}

dsnd::CarveContext& ServiceMixed::replay_context(
    Client& client, const std::shared_ptr<const dsnd::Graph>& graph,
    std::uint64_t parent, std::int64_t request, double& build_ms) {
  ReplayContext& slot = client.replay_contexts[graph->fingerprint()];
  if (!slot.context) {
    Span span(tracer_, "decomposition.context_build", parent, request,
              client.index);
    dsnd::EngineOptions engine;
    engine.threads = kContextThreads;
    slot.graph = graph;
    slot.context = std::make_unique<dsnd::CarveContext>(*graph, engine);
    build_ms = span.close();
  }
  return *slot.context;
}

void ServiceMixed::replay(Client& client, const Served& served) {
  // Re-runs the layer calls a miss made inside submit, each under its own
  // span, and checks every output equals what the service served. The
  // submit time these spans do not account for is registry, cache,
  // locking and lease wait.
  Span root(tracer_, "service.replay", 0, served.id, client.index);
  const auto span = [&](const char* name) {
    return std::make_unique<Span>(tracer_, name, root.id(), served.id,
                                  client.index);
  };
  const dsnd::Graph& g = *served.graph;
  const dsnd::ServiceResult& result = *served.response.result;
  const dsnd::ServiceRequest& request = served.request;
  const std::string label = "request " + std::to_string(served.id);
  double layers_ms = 0.0;

  if (served.kind == Kind::kCover) {
    auto s = span("graph.power");
    const dsnd::Graph power = dsnd::graph_power(g, 2 * kCoverRadius + 1);
    layers_ms += s->close();
    s = span("decomposition.cover_carve");
    const dsnd::DecompositionRun base =
        dsnd::run_schedule(power, request.schedule, request.seed);
    layers_ms += s->close();
    s = span("decomposition.validate");
    dsnd::validate_decomposition_fast(power, base.clustering());
    layers_ms += s->close();
    s = span("decomposition.cover_expand");
    const std::vector<dsnd::CoverCluster> clusters =
        dsnd::expand_clusters_to_cover(g, base.clustering(), kCoverRadius);
    layers_ms += s->close();
    bool same = result.cover.has_value() &&
                same_clustering(base.clustering(),
                                result.cover->base.clustering()) &&
                clusters.size() == result.cover->clusters.size();
    for (std::size_t i = 0; same && i < clusters.size(); ++i) {
      const dsnd::CoverCluster& a = clusters[i];
      const dsnd::CoverCluster& b = result.cover->clusters[i];
      same = a.members == b.members && a.center == b.center &&
             a.color == b.color;
    }
    if (!same) client.fail(label + ": replayed cover differs from served");
  } else {
    double build_ms = 0.0;
    dsnd::CarveContext& context =
        replay_context(client, served.graph, root.id(), served.id, build_ms);
    layers_ms += build_ms;
    auto s = span("decomposition.carve");
    const dsnd::DistributedRun run = dsnd::run_schedule_distributed(
        context, request.schedule, request.seed);
    layers_ms += s->close();
    if (!same_run(run, result.run)) {
      client.fail(label + ": replayed carve differs from served");
    }
    s = span("decomposition.validate");
    dsnd::validate_decomposition_fast(g, run.run.clustering());
    layers_ms += s->close();
    const dsnd::Clustering& clustering = run.run.clustering();
    bool same = true;
    switch (served.kind) {
      case Kind::kMis: {
        s = span("apps.mis");
        const dsnd::MisResult mis = dsnd::mis_by_decomposition(g, clustering);
        layers_ms += s->close();
        same = result.mis && result.mis->in_mis == mis.in_mis;
        break;
      }
      case Kind::kColoring: {
        s = span("apps.coloring");
        const dsnd::ColoringResult coloring =
            dsnd::coloring_by_decomposition(g, clustering);
        layers_ms += s->close();
        same = result.coloring && result.coloring->colors == coloring.colors;
        break;
      }
      case Kind::kSpanner: {
        s = span("apps.spanner");
        const dsnd::SpannerResult spanner =
            dsnd::spanner_by_decomposition(g, clustering);
        layers_ms += s->close();
        same = result.spanner && result.spanner->spanner == spanner.spanner &&
               result.spanner->stretch == spanner.stretch;
        break;
      }
      default:
        break;
    }
    if (!same) client.fail(label + ": replayed deliverable differs");
    // The suspected hot spot inside each deliverable, timed on its own
    // (its work is already inside the deliverable's span above).
    if (served.kind == Kind::kMis || served.kind == Kind::kColoring) {
      s = span("decomposition.cluster_diameters");
      dsnd::cluster_strong_diameters(g, clustering);
    } else if (served.kind == Kind::kSpanner && result.spanner) {
      s = span("apps.measure_stretch");
      if (dsnd::measure_stretch(g, result.spanner->spanner) !=
          result.spanner->stretch) {
        client.fail(label + ": re-measured stretch differs");
      }
    }
  }
  client.unaccounted_ms.push_back(served.ms - layers_ms);
}

void ServiceMixed::check(Client& client, const Served& served) {
  const std::string label = "request " + std::to_string(served.id);
  if (!served.answered) return;  // already failed when it threw
  const dsnd::ServiceResponse& response = served.response;
  if (!response.valid || response.status != "ok") {
    client.fail(label + ": status " + response.status);
    return;
  }
  if (response.cache_hit != served.repeat) {
    client.fail(label + (served.repeat ? ": planned hit missed the cache"
                                       : ": unplanned cache hit"));
    return;
  }
  if (served.repeat) {
    if (response.result != client.log[served.original].response.result) {
      client.fail(label + ": hit differs from the response it repeats");
    }
    return;
  }
  const dsnd::Graph& g = *served.graph;
  const dsnd::ServiceResult& result = *response.result;
  if (served.kind == Kind::kCover) {
    const dsnd::CoverReport report = dsnd::validate_cover(g, *result.cover);
    if (!report.all_balls_covered || !report.color_classes_disjoint ||
        !report.all_clusters_connected) {
      client.fail(label + ": invalid neighborhood cover");
    }
    return;
  }
  const std::string why = judge_decomposition(
      dsnd::validate_decomposition_fast(g, result.run.run.clustering()),
      result.run);
  if (!why.empty()) client.fail(label + ": " + why);
  switch (served.kind) {
    case Kind::kMis:
      if (!result.mis ||
          !dsnd::is_maximal_independent_set(g, result.mis->in_mis)) {
        client.fail(label + ": not a maximal independent set");
      }
      break;
    case Kind::kColoring:
      if (!result.coloring ||
          !dsnd::is_proper_vertex_coloring(g, result.coloring->colors)) {
        client.fail(label + ": improper vertex coloring");
      }
      break;
    case Kind::kSpanner:
      if (!result.spanner ||
          result.spanner->stretch == dsnd::kInfiniteDiameter) {
        client.fail(label + ": spanner with infinite stretch");
      }
      break;
    default:
      break;
  }
}

void ServiceMixed::client_loop(Client& client, Clock::time_point deadline) {
  while (Clock::now() < deadline) {
    try {
      step(client);
    } catch (const std::exception& e) {
      client.fail(std::string("client step threw: ") + e.what());
    }
  }
}

WorkloadReport ServiceMixed::run() {
  WorkloadReport report;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    report.setup_s.push_back(millis_since(start) / 1e3);
  }
  const dsnd::ServiceStats before = service_->stats();

  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point deadline =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options_.seconds));
  {
    std::vector<std::jthread> threads;
    for (Client& client : clients_) {
      threads.emplace_back([this, &client, deadline] {
        client_loop(client, deadline);
      });
    }
  }
  const dsnd::ServiceStats after = service_->stats();

  // The first and the last carve each client was served, re-run on a
  // fresh (cold) context, must match bit for bit.
  for (Client& client : clients_) {
    for (const ColdSample& sample : client.cold_samples) {
      if (!sample.graph) continue;
      Span check(tracer_, "check.cold_rerun", 0, sample.id, client.index);
      dsnd::EngineOptions engine;
      engine.threads = kContextThreads;
      dsnd::CarveContext cold(*sample.graph, engine);
      if (!same_run(dsnd::run_schedule_distributed(
                        cold, sample.request.schedule, sample.request.seed),
                    sample.run)) {
        client.fail("request " + std::to_string(sample.id) +
                    ": warm result differs from a cold re-run");
      }
    }
  }

  std::uint64_t planned_hits = 0;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::map<std::string, std::vector<double>> class_ms;
  std::vector<double> unaccounted;
  CarveCounters counters;
  // Requests per second with the clients' own time between requests
  // (checks, and replays on traced runs) left out: the sum over clients
  // of requests over time spent inside submit.
  double requests_per_s = 0.0;
  for (Client& client : clients_) {
    double submit_ms = 0.0;
    for (const Served& served : client.log) {
      report.op_ms.push_back(served.ms);
      submit_ms += served.ms;
      const bool hit = served.answered && served.response.cache_hit;
      (hit ? hit_ms : miss_ms).push_back(served.ms);
      std::string name = hit ? "hit" : dsnd::deliverable_name(
                                           deliverable_of(served.kind));
      if (!hit && served.kind == Kind::kDecomposition) {
        name += std::string("/") + kFamilyNames[served.family];
      }
      class_ms[name].push_back(served.ms);
    }
    if (submit_ms > 0.0) {
      requests_per_s +=
          static_cast<double>(client.log.size()) / (submit_ms / 1e3);
    }
    counters += client.counters;
    report.attempted += client.log.size();
    planned_hits += client.planned_hits;
    report.failed += client.failed;
    for (const std::string& why : client.failures) {
      if (report.failures.size() < 8) report.failures.push_back(why);
    }
    unaccounted.insert(unaccounted.end(), client.unaccounted_ms.begin(),
                       client.unaccounted_ms.end());
    report.inputs.insert(report.inputs.end(), client.inputs.begin(),
                         client.inputs.end());
  }
  if (requests_per_s > 0.0) {
    report.busy_s = static_cast<double>(report.op_ms.size()) / requests_per_s;
  }
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  if (hits != planned_hits) {
    report.fail("cache hits " + std::to_string(hits) + " != planned " +
                std::to_string(planned_hits));
  }

  std::ostringstream classes;
  classes << "request_ms p50 by class:";
  for (const auto& [name, values] : class_ms) {
    classes << ' ' << name << '=' << median(values) << " (n=" << values.size()
            << ')';
  }
  report.notes.push_back(classes.str());

  if (tracer_.enabled()) {
    const auto requests =
        static_cast<double>(after.requests - before.requests);
    report.layer["service.requests"] = requests;
    report.layer["service.cache_hits"] = static_cast<double>(hits);
    report.layer["service.hit_ratio"] =
        requests > 0 ? static_cast<double>(hits) / requests : 0.0;
    report.layer["service.cache_evictions"] =
        static_cast<double>(after.cache_evictions - before.cache_evictions);
    report.layer["service.contexts_created"] =
        static_cast<double>(after.contexts_created - before.contexts_created);
    report.layer["service.warm_acquires"] =
        static_cast<double>(after.warm_acquires - before.warm_acquires);
    report.layer["service.hit_us.p50"] = median(hit_ms) * 1e3;
    report.layer["service.miss_ms.p50"] = median(miss_ms);
    report.layer["service.unaccounted_ms"] = median(unaccounted);
  }
  counters.report(report.layer, tracer_);
  return report;
}

}  // namespace

WorkloadReport run_service_mixed(const Options& options, Tracer& tracer) {
  ServiceMixed workload(options, tracer);
  return workload.run();
}

}  // namespace perfbench
