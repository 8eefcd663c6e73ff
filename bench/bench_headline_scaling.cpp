// E4 — The headline result: with k = ceil(ln n), a strong
// (O(log n), O(log n)) network decomposition computed in O(log^2 n)
// rounds. Sweeping n over powers of two and fitting the measured
// quantities against ln n (diameter, colors) and ln^2 n (rounds) checks
// the asymptotic *shape*: near-linear fits (r^2 close to 1) with modest
// constants.
#include <cmath>
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/io.hpp"
#include "service/decomposition_service.hpp"
#include "support/stats.hpp"

namespace {

using namespace dsnd;

/// The radius giving expected average degree ~8 for the rgg family at n.
double rgg_radius(VertexId n) {
  return std::min(1.0, std::sqrt(8.0 / (3.14159265358979323846 *
                                        static_cast<double>(
                                            std::max<VertexId>(n, 2)))));
}

/// E4c — the distributed engine at scale: wall-clock of the full CONGEST
/// runs on the sharded engine, all three theorem schedules through the
/// one carving core. `--engine-smoke` runs only this section with the
/// large instances (the CI perf-smoke entry point, and how
/// BENCH_engine.json records are produced with --json); `--threads N`
/// runs the cases with N engine workers and `--no-large` skips the
/// million-vertex instances (the budgeted 2-thread CI step uses both);
/// `--repeat N` measures the warm path (see main()).
/// The default bench run keeps the quicker sizes. Every case
/// batch-validates its output with validate_decomposition_fast — at 1M
/// vertices the O(n + m) validator is what makes checking the run (not
/// just timing it) affordable.
/// `--overflow-smoke` — the Las Vegas recarve loop under CI: a tiny
/// Theorem 1 engine case whose Lemma 1 threshold is lowered far below
/// k + 1, so the overflow event (and hence at least one phase replay)
/// fires on every run. The emitted JSON must show valid rows with a
/// nonzero `retries` field — the perf-smoke job greps for both, which
/// pins the end-to-end property this bench once disproved at 10M
/// vertices: overflow is recovered, not reported.
void overflow_smoke(dsnd::bench::JsonWriter& json, unsigned threads) {
  bench::print_header(
      "E4e / overflow-forced recarve smoke",
      "radius_overflow_at lowered so Lemma 1 fires every run; the "
      "recarve loop must keep every clustering valid and bill the "
      "retries");
  Table table({"schedule", "family", "n", "m", "threads", "rounds",
               "messages", "words", "activations", "wall_ms", "validate_ms",
               "valid"});
  bench::EngineCaseOptions options{1, 0, /*validate=*/true};
  options.threads = threads;
  // n = 20000, k = ceil(ln n) = 10, beta = ln(4n)/k ~ 1.13. A threshold
  // of 8.5 puts n * Pr[r >= 8.5] ~ 1.4, so an early-phase sampling
  // attempt overflows with probability ~3/4 (retries near-certain
  // across the three rows below) while each retry still succeeds with
  // probability ~1/4 — and the raised per-phase budget makes falling
  // back to accepted overflow samples (0.74^65) astronomically
  // unlikely, so validity is guaranteed by construction rather than by
  // seed luck: radii below k + 1 = 11 never truncate, and radii above
  // are always resampled away. Rows are fully seeded (graph seed 1,
  // carve seed 42), so the retry counts are reproducible.
  options.radius_overflow_at = 8.5;
  options.max_retries_per_phase = 64;
  const VertexId n = 20000;
  bench::engine_scaling_case("gnp-deg8", make_gnp(n, 8.0 / (n - 1), 1),
                             table, json, options);
  bench::engine_scaling_case("ring", make_cycle(n), table, json, options);
  bench::engine_scaling_case("rgg-deg8", family_by_name("rgg").make(n, 1),
                             table, json, options);
  table.print(std::cout);
}

/// Returns the number of rows that read INVALID: a clustering that failed
/// validation or, when `repeat > 1`, a warm run that differs from its cold
/// twin in the clustering or any carve counter — so the CI steps fail
/// straight from the exit code. Cold and warm wall times land in the
/// JSON (cold_ms, warm_ms, warm_speedup) but set no exit code: at one
/// engine thread they differ by less than the box's noise. That a warm
/// run pays no setup is pinned by the allocation tests instead.
int engine_scaling(dsnd::bench::JsonWriter& json, bool smoke,
                   unsigned threads, bool no_large, int repeat) {
  bench::print_header(
      "E4c / distributed engine scaling (Theorems 1-3)",
      "wall time of the full message-passing execution; the sharded "
      "engine's zero-allocation rounds and active-vertex scheduling are "
      "what make the 100k-1M instances routine; every clustering is "
      "checked by the O(n+m) batch validator (validate_ms)");
  Table table({"schedule", "family", "n", "m", "threads", "rounds",
               "messages", "words", "activations", "wall_ms", "validate_ms",
               "valid"});
  int failures = 0;
  const auto run_row = [&](const std::string& family, const Graph& g,
                           bench::EngineCaseOptions options) {
    bench::EngineCaseOutcome outcome;
    options.threads = threads;
    options.repeat = repeat;
    options.outcome = &outcome;
    bench::engine_scaling_case(family, g, table, json, options);
    if (outcome.warm_mismatch) {
      std::cout << "WARM/COLD MISMATCH: " << family << " n="
                << g.num_vertices() << "\n";
    }
    if (outcome.valid == "INVALID") ++failures;
  };
  bench::EngineCaseOptions t1{1, 0, /*validate=*/true};
  std::vector<VertexId> sizes = smoke ? std::vector<VertexId>{100000}
                                      : std::vector<VertexId>{10000, 100000};
  for (const VertexId n : sizes) {
    run_row("gnp-deg8", make_gnp(n, 8.0 / (n - 1), 1), t1);
    run_row("ring", make_cycle(n), t1);
    run_row("rgg-deg8", family_by_name("rgg").make(n, 1), t1);
  }
  // Theorems 2 and 3 as engine workloads (the budgeted CI cases): the
  // multistage schedule at the same 100k gnp instance, and the
  // high-radius schedule — long phases, few colors — at a size where its
  // ceil(k)-round phases stay inside the smoke budget.
  {
    const VertexId n = smoke ? 100000 : 10000;
    run_row("gnp-deg8", make_gnp(n, 8.0 / (n - 1), 1),
            bench::EngineCaseOptions{2, 0, true});
  }
  {
    const VertexId n = smoke ? 20000 : 5000;
    run_row("gnp-deg8", make_gnp(n, 8.0 / (n - 1), 1),
            bench::EngineCaseOptions{3, 3, true});
  }
  if ((smoke || bench::scale() >= 2) && !no_large) {
    // The million-vertex instances: a ring (worst case for per-round
    // sweeps — long quiet phases) and an RGG (KaGen-style geometric
    // instance). The fast-validation pass over these runs is the
    // acceptance gate for validate_decomposition_fast at engine scale.
    run_row("ring", make_cycle(1000000), t1);
    run_row("rgg-deg8", family_by_name("rgg").make(1000000, 1), t1);
  }
  if (repeat > 1) {
    // Barrier-elision A/B: the same ring case with the quiet-round fast
    // path disabled. The clustering and every count are identical by
    // contract (only wall time may move); the row lands in the JSON with
    // "elide_quiet_rounds": 0 so BENCH files carry both sides.
    bench::EngineCaseOptions ab{1, 0, /*validate=*/true};
    ab.elide_quiet_rounds = false;
    run_row("ring", make_cycle(no_large ? 100000 : 1000000), ab);
  }
  table.print(std::cout);
  return failures;
}

/// E4d — the pr4 headline: thread scaling of the sharded engine at
/// n = 1M (threads 1/2/4/8, rgg additionally under its grid-bucket
/// layout) and the first n = 10M rows, construction time included in
/// the JSON. `bench_headline_scaling --threads-sweep [--json <path>]`.
void threads_sweep(dsnd::bench::JsonWriter& json, bool with_ten_million) {
  bench::print_header(
      "E4d / sharded engine thread scaling (Theorem 1)",
      "same schedule, same clustering (bit-identical for every thread "
      "count and layout) — only the wall clock may move; rgg rows run "
      "on the grid-bucket cache layout, construction chunk-parallel");
  Table table({"schedule", "family", "n", "m", "threads", "rounds",
               "messages", "words", "activations", "wall_ms", "validate_ms",
               "valid"});
  const std::vector<unsigned> thread_counts{1, 2, 4, 8};

  for (const VertexId n : with_ten_million
                              ? std::vector<VertexId>{1000000, 10000000}
                              : std::vector<VertexId>{1000000}) {
    // Seed 42 everywhere except n=10M, where it hits Lemma 1's
    // radius-overflow event (max r = 18.78 >= k+1 = 18 at k = 17).
    // Before PR 5 that run truncated the broadcast and was rightly
    // flagged INVALID (the historical pr4 record); the recarve loop now
    // recovers it, as the resolved pr6 row in BENCH_engine.json records.
    // Seed 43 is kept here so the sweep's timings stay comparable across
    // phases.
    const std::uint64_t carve_seed = n >= 10000000 ? 43 : 42;
    const unsigned gen_threads = 0;  // generator: hardware concurrency
    Timer construct;
    const Graph ring = make_cycle(n, gen_threads);
    const double ring_ms = construct.elapsed_millis();
    for (const unsigned threads : n >= 10000000
                                      ? std::vector<unsigned>{1, 8}
                                      : thread_counts) {
      bench::EngineCaseOptions options{1, 0, /*validate=*/true};
      options.threads = threads;
      options.construct_ms = ring_ms;
      options.seed = carve_seed;
      bench::engine_scaling_case("ring", ring, table, json, options);
    }

    construct.reset();
    const GeometricGraph rgg =
        make_rgg_geometric(n, rgg_radius(n), 1, gen_threads);
    const double rgg_ms = construct.elapsed_millis();
    construct.reset();
    const LayoutGraph layout = make_layout_graph(
        rgg.graph,
        grid_bucket_layout(rgg.x, rgg.y,
                           static_cast<std::int32_t>(std::max(
                               1.0, std::floor(1.0 / rgg_radius(n))))));
    const double relabel_ms = construct.elapsed_millis();
    std::cout << "rgg n=" << n << ": construct " << format_double(rgg_ms, 1)
              << " ms, grid-bucket relabel " << format_double(relabel_ms, 1)
              << " ms\n";
    for (const unsigned threads : n >= 10000000
                                      ? std::vector<unsigned>{1, 8}
                                      : thread_counts) {
      bench::EngineCaseOptions options{1, 0, /*validate=*/true};
      options.threads = threads;
      options.construct_ms = rgg_ms;
      options.seed = carve_seed;
      options.layout = &layout;
      options.layout_name = "grid-bucket";
      bench::engine_scaling_case("rgg-deg8", rgg.graph, table, json,
                                 options);
      if (threads == 1) {
        // One unrelabeled row per size so the layout's own effect on the
        // wall clock is visible next to the thread scaling.
        bench::EngineCaseOptions plain{1, 0, /*validate=*/true};
        plain.threads = threads;
        plain.construct_ms = rgg_ms;
        plain.seed = carve_seed;
        bench::engine_scaling_case("rgg-deg8", rgg.graph, table, json,
                                   plain);
      }
    }
  }
  table.print(std::cout);
}

/// E4f — scale-free instances as engine workloads (`--scale-free`):
/// threshold random hyperbolic graphs (power-law degrees, gamma = 2.8)
/// and Graph500-style Kronecker graphs, carved by the Theorem 1
/// schedule and batch-validated like every other row. The JSON records
/// carry the degree-distribution summary (deg_* fields, powerlaw_alpha)
/// so carve quality on heavy-tailed instances can be read next to how
/// heavy the tail actually was. `--no-large` keeps only the 100k-class
/// instances (the budgeted CI variant); the full run reaches n >= 1M.
void scale_free(dsnd::bench::JsonWriter& json, unsigned threads,
                bool no_large) {
  bench::print_header(
      "E4f / scale-free engine scaling (hyperbolic + Kronecker)",
      "power-law instances from the chunk-parallel generators; hub "
      "vertices stress the per-shard delivery paths that rgg/gnp rows "
      "never do; every clustering checked by the O(n+m) batch validator");
  Table table({"schedule", "family", "n", "m", "threads", "rounds",
               "messages", "words", "activations", "wall_ms", "validate_ms",
               "valid"});
  const unsigned gen_threads = 0;  // generator: hardware concurrency
  bench::EngineCaseOptions options{1, 0, /*validate=*/true};
  options.threads = threads;
  options.degree_stats = true;

  for (const VertexId n : no_large
                              ? std::vector<VertexId>{100000}
                              : std::vector<VertexId>{100000, 1000000}) {
    Timer construct;
    const Graph h = make_hyperbolic(n, 8.0, 2.8, 1, gen_threads);
    options.construct_ms = construct.elapsed_millis();
    bench::engine_scaling_case("hyperbolic-deg8", h, table, json, options);
  }
  // Kronecker scale 17 -> n = 131072, scale 20 -> n = 1048576.
  for (const int scale :
       no_large ? std::vector<int>{17} : std::vector<int>{17, 20}) {
    Timer construct;
    const Graph k = make_kronecker(scale, 8, 1, gen_threads);
    options.construct_ms = construct.elapsed_millis();
    bench::engine_scaling_case("kronecker-ef8", k, table, json, options);
  }
  table.print(std::cout);
}

/// E4g — the external-graph path end to end (`--ingest-smoke`): for
/// each scale-free family, generate -> write to disk (METIS for the
/// hyperbolic instance, edge list for the Kronecker one) -> read back
/// through the strict loaders -> require bit-identical CSR -> gate
/// through the standalone validator -> run a small validated carve.
/// The written files are left in the working directory so the CI job
/// can additionally point tools/chkgraph at them; the JSON rows are
/// INVALID-greppable like every other smoke. Returns nonzero when any
/// round-trip or validator gate fails.
int ingest_smoke(dsnd::bench::JsonWriter& json, unsigned threads) {
  bench::print_header(
      "E4g / ingestion + validator smoke",
      "round-trips the scale-free families through the on-disk formats, "
      "gates them through the standalone validator, then carves the "
      "reloaded graphs");
  Table table({"schedule", "family", "n", "m", "threads", "rounds",
               "messages", "words", "activations", "wall_ms", "validate_ms",
               "valid"});
  bench::EngineCaseOptions options{1, 0, /*validate=*/true};
  options.threads = threads;
  options.degree_stats = true;
  int failures = 0;

  struct IngestCase {
    std::string family;
    Graph graph;
    std::string path;
  };
  const IngestCase cases[] = {
      {"hyperbolic-deg8", make_hyperbolic(20000, 8.0, 2.8, 5, 0),
       "ingest_hyperbolic.graph"},
      {"kronecker-ef8", make_kronecker(14, 8, 5, 0),
       "ingest_kronecker.el"},
  };
  for (const IngestCase& c : cases) {
    if (c.path.ends_with(".graph")) {
      save_metis(c.path, c.graph);
    } else {
      save_edge_list(c.path, c.graph);
    }
    const Graph loaded = load_graph(c.path);
    if (loaded != c.graph) {
      std::cout << c.path << ": ROUND-TRIP MISMATCH (INVALID)\n";
      ++failures;
      continue;
    }
    const GraphCheckReport report = check_graph(loaded);
    std::cout << c.path << " (round-trip ok): " << format_report(report);
    if (!report.ok()) {
      ++failures;
      continue;
    }
    bench::engine_scaling_case(c.family, loaded, table, json, options);
  }
  table.print(std::cout);
  return failures;
}

/// E4i — chaos transport smoke (`--chaos`): the Theorem 1 schedule at
/// n = 20000 run through a FaultyTransport, sweeping drop rates across
/// three families plus one mixed-fault row (drop + duplicate + bounded
/// delay + reorder + a crash-stop span), then the recovery-cost A/B
/// pairs (whole-run retry vs checkpoint rollback on identical plans
/// with a crash-recovery span). The never-silently-invalid contract, at
/// bench scale: every row must end "ok" (validated, possibly after
/// rollbacks and salted whole-run retries) or as a named failure whose
/// fault counters show why. "INVALID" — a row claiming ok whose
/// clustering fails external validation — is the one greppable outcome;
/// returns how many such rows occurred so the CI step fails on any.
int chaos_smoke(dsnd::bench::JsonWriter& json, unsigned threads) {
  bench::print_header(
      "E4i / chaos transport smoke (Theorem 1 under injected faults)",
      "deterministic fault injection through the pluggable transport; "
      "the verify-and-recover loop must end every row validated or "
      "named-failed with nonzero counters — never silently invalid");
  Table table({"schedule", "family", "n", "m", "threads", "rounds",
               "messages", "words", "activations", "wall_ms", "validate_ms",
               "valid"});
  const VertexId n = 20000;
  struct ChaosCase {
    std::string family;
    Graph graph;
  };
  const ChaosCase cases[] = {
      {"gnp-deg8", make_gnp(n, 8.0 / (n - 1), 1)},
      {"ring", make_cycle(n)},
      {"hyperbolic-deg8", make_hyperbolic(n, 8.0, 2.8, 1, 0)},
  };
  int rows = 0, ok_rows = 0, named_rows = 0, invalid_rows = 0;
  std::int64_t run_retries = 0, rollbacks = 0;
  std::uint64_t injected = 0, rejoins = 0;
  const auto run_case = [&](const std::string& family, const Graph& g,
                            const FaultPlan& plan,
                            std::int32_t max_rollbacks =
                                -1) -> bench::EngineCaseOutcome {
    bench::EngineCaseOptions options{1, 0, /*validate=*/true};
    options.threads = threads;
    options.faults = &plan;
    options.max_rollbacks = max_rollbacks;
    bench::EngineCaseOutcome outcome;
    options.outcome = &outcome;
    outcome.cold_ms =
        bench::engine_scaling_case(family, g, table, json, options);
    ++rows;
    run_retries += outcome.run_retries;
    rollbacks += outcome.rollbacks;
    injected += outcome.faults.total();
    rejoins += outcome.faults.rejoined;
    if (outcome.valid == "ok") {
      ++ok_rows;
    } else if (outcome.valid == "INVALID") {
      ++invalid_rows;
    } else {
      ++named_rows;
    }
    return outcome;
  };
  // The light tiers (1e-5, 1e-4: tens to hundreds of dropped messages
  // per attempt) recover via a rollback or a salted whole-run retry;
  // 1e-3 (thousands of drops per attempt) is where checkpoint rollback
  // starts rescuing runs the retry budget alone could not; from 1e-2 up
  // no early phase ever validates — no checkpoint exists — and the rows
  // document the named-failure side of the contract instead.
  for (const ChaosCase& c : cases) {
    for (const double drop : {0.00001, 0.0001, 0.001, 0.01, 0.1}) {
      FaultPlan plan;
      plan.seed = 1009;
      plan.drop_rate = drop;
      run_case(c.family, c.graph, plan);
    }
  }
  // The mixed-fault row: every fault class at once. The crash span
  // silences 20 vertices from round 30 on — they can still carve
  // themselves into singleton clusters, so the run remains winnable.
  {
    FaultPlan plan;
    plan.seed = 2027;
    plan.drop_rate = 0.01;
    plan.duplicate_rate = 0.01;
    plan.delay_rate = 0.01;
    plan.max_delay_rounds = 2;
    plan.reorder_rate = 0.05;
    plan.crashes.push_back(CrashSpan{n - 20, n, std::uint64_t{30}});
    run_case(cases[0].family, cases[0].graph, plan);
  }
  // E4i-b — recovery-cost A/B: the same seeded fault plans (drops plus a
  // crash-RECOVERY span) run twice, whole-run-retry only (max_rollbacks
  // = 0, the pre-checkpoint loop) vs checkpoint rollback (the schedule
  // default). Where both arms recover, the rollback arm must replay
  // strictly fewer phases — it restores the validated prefix instead of
  // re-running it. Smaller n so failures recover instead of exhausting
  // both budgets.
  const VertexId ab_n = 2000;
  const Graph ab_graph = make_gnp(ab_n, 8.0 / (ab_n - 1), 3);
  double retry_ms = 0.0, rollback_ms = 0.0;
  std::int64_t retry_replayed = 0, rollback_replayed = 0;
  for (const double drop : {0.002, 0.005, 0.01}) {
    FaultPlan plan;
    plan.seed = 4099 + static_cast<std::uint64_t>(drop * 1e6);
    plan.drop_rate = drop;
    plan.crashes.push_back(
        CrashSpan{ab_n - 50, ab_n, std::uint64_t{10}, std::uint64_t{25}});
    const bench::EngineCaseOutcome retry =
        run_case("gnp-deg8/retry", ab_graph, plan, /*max_rollbacks=*/0);
    const bench::EngineCaseOutcome rollback =
        run_case("gnp-deg8/rollback", ab_graph, plan);
    retry_ms += retry.cold_ms;
    rollback_ms += rollback.cold_ms;
    retry_replayed += retry.replayed_phases;
    rollback_replayed += rollback.replayed_phases;
  }
  table.print(std::cout);
  std::cout << "\nchaos validity: " << ok_rows << "/" << rows
            << " rows validated ok, " << named_rows
            << " named failures (flagged with counters), " << invalid_rows
            << " silent-invalid; whole-run retries=" << run_retries
            << " rollbacks=" << rollbacks << " rejoined=" << rejoins
            << " injected_faults=" << injected << "\n";
  std::cout << "recovery A/B (same fault plans): whole-run retry replayed "
            << retry_replayed << " phases in " << retry_ms
            << " ms, checkpoint rollback replayed " << rollback_replayed
            << " phases in " << rollback_ms << " ms\n";
  return invalid_rows;
}

/// E4j — the DecompositionService end to end (`--service-smoke`): one
/// service over three registered graphs, a mixed batch of deliverables
/// submitted concurrently three times — cold (contexts built), warm
/// (new seeds on the warm contexts), cached (the warm keys again, zero
/// recarves). Every fresh distributed response is checked bit-identical
/// against the standalone run_schedule_distributed on the same
/// (schedule, seed), in the whole CarveResult and every sim count — a
/// mismatch prints INVALID (CI grep bait) — and
/// the cached pass must serve every row from the cache. The emitted
/// JSON carries per-row latencies, per-phase cold/warm/cached means,
/// and the service's cache/context-pool accounting (the pr10
/// BENCH_engine.json rows). Returns the number of contract failures.
int service_smoke(dsnd::bench::JsonWriter& json, unsigned threads) {
  bench::print_header(
      "E4j / decomposition service smoke",
      "mixed concurrent batches through one DecompositionService: "
      "cold/warm/cached phases, standalone-parity checks on every fresh "
      "distributed response, cache + context-pool accounting");
  Table table({"phase", "graph", "deliverable", "seed", "wall_ms",
               "cache", "status", "parity"});

  // Sized for CI: the app deliverables (round-based MIS/coloring
  // simulations) dominate, so the big instances stay at 5k vertices.
  const VertexId n = 5000;
  struct Entry {
    std::string id;
    Graph graph;
  };
  std::vector<Entry> graphs;
  graphs.push_back({"gnp-deg8", make_gnp(n, 8.0 / (n - 1), 1)});
  graphs.push_back({"hyperbolic-deg8", make_hyperbolic(n, 8.0, 2.8, 1, 0)});
  graphs.push_back({"ring-2k", make_cycle(2000)});

  ServiceOptions service_options;
  service_options.engine.threads = threads;
  DecompositionService service(service_options);
  for (const Entry& e : graphs) service.register_graph(e.id, e.graph);

  // Per graph: the app deliverables on the big instances, decomposition
  // plus a W=1 cover on the small ring (covers carve G^3, so they stay
  // cheap). Seeds differ per deliverable so every row is its own carve.
  const auto requests_for = [&](std::uint64_t seed_base) {
    std::vector<ServiceRequest> requests;
    for (const Entry& e : graphs) {
      const bool small = e.graph.num_vertices() < n;
      for (const Deliverable d :
           small ? std::vector<Deliverable>{Deliverable::kDecomposition,
                                            Deliverable::kCover}
                 : std::vector<Deliverable>{
                       Deliverable::kDecomposition, Deliverable::kMis,
                       Deliverable::kColoring, Deliverable::kSpanner}) {
        ServiceRequest request;
        request.graph_id = e.id;
        request.schedule =
            theorem1_schedule(e.graph.num_vertices(), 0, 4.0);
        request.deliverable = d;
        request.seed = seed_base + static_cast<std::uint64_t>(d) + 1;
        if (d == Deliverable::kCover) request.cover_radius = 1;
        requests.push_back(request);
      }
    }
    return requests;
  };

  const auto matches_standalone = [&](const Graph& g,
                                      const ServiceRequest& request,
                                      const ServiceResult& result) {
    const DistributedRun expected = run_schedule_distributed(
        g, request.schedule, request.seed, service_options.engine);
    const DistributedRun& got = result.run;
    return expected.run.carve == got.run.carve &&
           expected.sim.rounds == got.sim.rounds &&
           expected.sim.messages == got.sim.messages &&
           expected.sim.words == got.sim.words &&
           expected.sim.max_message_words == got.sim.max_message_words &&
           expected.sim.vertex_activations == got.sim.vertex_activations &&
           expected.sim.messages_per_round == got.sim.messages_per_round &&
           expected.sim.faults == got.sim.faults;
  };

  int failures = 0;
  const auto run_phase = [&](const std::string& phase,
                             std::uint64_t seed_base, bool expect_hits) {
    const std::vector<ServiceRequest> requests = requests_for(seed_base);
    Timer batch_timer;
    const std::vector<ServiceResponse> responses =
        service.submit_batch(requests);
    const double batch_ms = batch_timer.elapsed_millis();
    double total_ms = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ServiceRequest& request = requests[i];
      const ServiceResponse& response = responses[i];
      total_ms += response.wall_ms;
      std::string parity = "-";
      if (!response.cache_hit &&
          request.deliverable != Deliverable::kCover) {
        const auto entry = std::find_if(
            graphs.begin(), graphs.end(),
            [&](const Entry& e) { return e.id == request.graph_id; });
        parity = matches_standalone(entry->graph, request, *response.result)
                     ? "ok"
                     : "INVALID";
      }
      const bool row_failed = response.status != "ok" ||
                              parity == "INVALID" ||
                              response.cache_hit != expect_hits;
      if (row_failed) ++failures;
      table.row()
          .cell(phase)
          .cell(request.graph_id)
          .cell(deliverable_name(request.deliverable))
          .cell(request.seed)
          .cell(response.wall_ms, 2)
          .cell(response.cache_hit == expect_hits
                    ? (response.cache_hit ? "hit" : "miss")
                    : (response.cache_hit ? "hit (UNEXPECTED)"
                                          : "miss (INVALID)"))
          .cell(response.status)
          .cell(parity);
      json.record()
          .field("section", "service_smoke")
          .field("phase", phase)
          .field("graph", request.graph_id)
          .field("deliverable", deliverable_name(request.deliverable))
          .field("seed", request.seed)
          .field("wall_ms", response.wall_ms)
          .field("cache_hit", std::uint64_t{response.cache_hit})
          .field("status", response.status)
          .field("parity", parity);
    }
    json.record()
        .field("section", "service_phase")
        .field("phase", phase)
        .field("requests", static_cast<std::uint64_t>(requests.size()))
        .field("batch_ms", batch_ms)
        .field("mean_ms", total_ms / static_cast<double>(requests.size()));
    std::cout << phase << " batch: " << requests.size() << " requests in "
              << format_double(batch_ms, 1) << " ms (mean per-request "
              << format_double(total_ms /
                                   static_cast<double>(requests.size()),
                               2)
              << " ms)\n";
  };

  run_phase("cold", 100, /*expect_hits=*/false);
  run_phase("warm", 200, /*expect_hits=*/false);
  run_phase("cached", 200, /*expect_hits=*/true);
  table.print(std::cout);

  const ServiceStats stats = service.stats();
  // One warm context per registered graph, reused across phases; the
  // cached phase must have produced one hit per warm-phase row.
  if (stats.contexts_created != graphs.size()) {
    std::cout << "CONTEXT POOL INVALID: " << stats.contexts_created
              << " contexts for " << graphs.size() << " graphs\n";
    ++failures;
  }
  if (stats.cache_hits == 0 || stats.invalid_responses != 0) ++failures;
  std::cout << "\nservice stats: requests=" << stats.requests
            << " cache_hits=" << stats.cache_hits
            << " cache_misses=" << stats.cache_misses
            << " cache_evictions=" << stats.cache_evictions
            << " cache_entries=" << stats.cache_entries
            << " contexts_created=" << stats.contexts_created
            << " warm_acquires=" << stats.warm_acquires
            << " invalid_responses=" << stats.invalid_responses << "\n";
  json.record()
      .field("section", "service_stats")
      .field("requests", stats.requests)
      .field("cache_hits", stats.cache_hits)
      .field("cache_misses", stats.cache_misses)
      .field("cache_evictions", stats.cache_evictions)
      .field("cache_entries", stats.cache_entries)
      .field("contexts_created", stats.contexts_created)
      .field("warm_acquires", stats.warm_acquires)
      .field("invalid_responses", stats.invalid_responses)
      .field("threads", static_cast<std::uint64_t>(threads));
  return failures;
}

void print_usage(std::ostream& out) {
  out << "usage: bench_headline_scaling [mode] [flags]\n"
         "modes (default: the E4 shape-fit suite, then engine scaling):\n"
         "  --engine-smoke    E4c engine scaling, large instances only\n"
         "                    (the CI perf-smoke entry point)\n"
         "  --overflow-smoke  E4e forced Lemma-1 recarve loop\n"
         "  --threads-sweep   E4d thread scaling at 1M (10M too unless\n"
         "                    --no-large)\n"
         "  --scale-free      E4f hyperbolic + Kronecker engine workloads\n"
         "  --ingest-smoke    E4g on-disk round-trip -> validator -> carve\n"
         "  --chaos           E4i fault-injection smoke + recovery-cost A/B\n"
         "  --service-smoke   E4j DecompositionService: concurrent mixed\n"
         "                    batches, cold/warm/cached rows, cache stats\n"
         "flags:\n"
         "  --threads N       engine workers per case (default 1)\n"
         "  --repeat N        N >= 2: warm re-runs on one context (E4c)\n"
         "  --no-large        skip the million-vertex instances\n"
         "  --json PATH       also write results as a JSON record array\n"
         "  --help            this text\n";
}

/// Rejects unknown arguments instead of silently running the default
/// suite: prints the usage block and returns false. Value-taking flags
/// consume their operand.
bool args_ok(int argc, char** argv) {
  static const char* kModes[] = {
      "--engine-smoke", "--overflow-smoke", "--threads-sweep",
      "--scale-free",   "--ingest-smoke",   "--chaos",
      "--service-smoke", "--no-large",
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--threads" || arg == "--repeat") {
      if (i + 1 >= argc) {
        std::cerr << "bench_headline_scaling: " << arg
                  << " needs a value\n";
        return false;
      }
      ++i;
      continue;
    }
    bool known = false;
    for (const char* mode : kModes) known |= arg == mode;
    if (!known) {
      std::cerr << "bench_headline_scaling: unknown argument '" << arg
                << "'\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsnd;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(std::cout);
      return 0;
    }
  }
  if (!args_ok(argc, argv)) {
    print_usage(std::cerr);
    return 2;
  }
  bench::JsonWriter json = bench::JsonWriter::from_args(argc, argv);
  const auto threads = static_cast<unsigned>(
      bench::int_flag(argc, argv, "--threads", 1));
  // --repeat N (N >= 2): run every engine case N times on one reusable
  // CarveContext and record cold_ms / warm_ms / warm_speedup; the bench
  // exits nonzero if any warm run diverges from its cold twin (or any
  // row fails validation).
  const int repeat = bench::int_flag(argc, argv, "--repeat", 1);
  if (bench::has_flag(argc, argv, "--engine-smoke")) {
    return engine_scaling(json, /*smoke=*/true, threads,
                          bench::has_flag(argc, argv, "--no-large"), repeat);
  }
  if (bench::has_flag(argc, argv, "--overflow-smoke")) {
    overflow_smoke(json, threads);
    return 0;
  }
  if (bench::has_flag(argc, argv, "--threads-sweep")) {
    threads_sweep(json,
                  /*with_ten_million=*/!bench::has_flag(argc, argv,
                                                        "--no-large"));
    return 0;
  }
  if (bench::has_flag(argc, argv, "--scale-free")) {
    scale_free(json, threads, bench::has_flag(argc, argv, "--no-large"));
    return 0;
  }
  if (bench::has_flag(argc, argv, "--ingest-smoke")) {
    return ingest_smoke(json, threads);
  }
  if (bench::has_flag(argc, argv, "--chaos")) {
    return chaos_smoke(json, threads);
  }
  if (bench::has_flag(argc, argv, "--service-smoke")) {
    return service_smoke(json, threads);
  }
  bench::print_header(
      "E4 / headline scaling (k = ceil(ln n))",
      "claim: strong (O(log n), O(log n)) decomposition in O(log^2 n) "
      "rounds");

  const int seeds = 4 * bench::scale();
  Table table({"family", "n", "ln n", "D_max", "colors", "rounds",
               "rounds/ln^2(n)"});
  for (const std::string& family : {std::string("gnp-sparse"),
                                    std::string("grid")}) {
    std::vector<double> log_n, diameter_series, color_series, round_series;
    for (const VertexId n : {256, 512, 1024, 2048, 4096, 8192}) {
      Summary diameters, colors, rounds;
      bench::RetryStats stats;
      for (int s = 0; s < seeds; ++s) {
        const Graph g = family_by_name(family).make(
            n, static_cast<std::uint64_t>(s) + 1);
        // k = 0 -> ceil(ln n)
        const DecompositionRun run =
            run_schedule(g, theorem1_schedule(g.num_vertices()),
                         static_cast<std::uint64_t>(s) * 6700417 + 11);
        colors.add(run.carve.phases_used);
        rounds.add(static_cast<double>(run.carve.rounds));
        stats.observe(run.carve);
        if (!bench::accepted_truncated_samples(run.carve)) {
          const DecompositionReport report = validate_decomposition(
              g, run.clustering(), /*compute_weak=*/false);
          if (report.max_strong_diameter != kInfiniteDiameter) {
            diameters.add(report.max_strong_diameter);
          }
        }
      }
      if (stats.retries > 0 || stats.truncated_runs > 0) {
        std::cout << family << " n=" << n << ": ";
        stats.print_line(std::cout);
      }
      const double ln = std::log(static_cast<double>(n));
      log_n.push_back(ln);
      diameter_series.push_back(diameters.max());
      color_series.push_back(colors.mean());
      round_series.push_back(rounds.mean());
      table.row()
          .cell(family)
          .cell(static_cast<std::int64_t>(n))
          .cell(ln, 2)
          .cell(diameters.max(), 0)
          .cell(colors.mean(), 1)
          .cell(rounds.mean(), 0)
          .cell(rounds.mean() / (ln * ln), 2);
    }
    // Shape fits: D vs ln n, colors vs ln n, rounds vs ln^2 n.
    std::vector<double> log_n_sq;
    for (const double x : log_n) log_n_sq.push_back(x * x);
    const LinearFit d_fit = fit_linear(log_n, diameter_series);
    const LinearFit c_fit = fit_linear(log_n, color_series);
    const LinearFit r_fit = fit_linear(log_n_sq, round_series);
    std::cout << family << ": D ~ " << format_double(d_fit.slope, 2)
              << "*ln(n) (r2=" << format_double(d_fit.r_squared, 3)
              << "), colors ~ " << format_double(c_fit.slope, 2)
              << "*ln(n) (r2=" << format_double(c_fit.r_squared, 3)
              << "), rounds ~ " << format_double(r_fit.slope, 2)
              << "*ln^2(n) (r2=" << format_double(r_fit.r_squared, 3)
              << ")\n";
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nThe rounds/ln^2(n) column should hover around a constant "
               "— the O(log^2 n) claim.\n";

  return engine_scaling(json, /*smoke=*/false, threads, /*no_large=*/false,
                        repeat);
}
