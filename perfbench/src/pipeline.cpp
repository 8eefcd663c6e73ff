// pipeline-rgg-1m: a one-shot user. One operation builds a validated
// decomposition from nothing: generate a 1M-vertex random geometric graph
// (average degree 8), relabel it into grid-bucket order, build a carve
// context, run the Theorem 1 schedule on the CONGEST engine and validate
// the result. A run measures whole passes over a fixed list of (graph
// seed, carve seed) pairs derived from the workload seed, so a slower box
// measures fewer passes, not other inputs. The only workload where graph
// generation, relabeling and validation carry weight.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "graph/relabel.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr dsnd::VertexId kVertices = 1000000;
/// Set-up warms the same pipeline at a tenth of the size: threads are
/// spawned and the allocator primed without paying a full operation.
constexpr dsnd::VertexId kWarmupVertices = 100000;
/// Seeds of the set-up pipeline: the same for every workload seed, so that
/// set-up time does not follow seed-dependent inputs.
constexpr std::uint64_t kWarmupGraphSeed = 0x5eed;
constexpr std::uint64_t kWarmupCarveSeed = 0x5eed + 1;
/// (graph seed, carve seed) pairs per pass. A pass takes ~40 s here, so
/// a 45-second run measures exactly one unless a pass gets under 22.5 s.
constexpr std::uint64_t kInputs = 8;
constexpr unsigned kGeneratorThreads = 4;

/// Calls `pass(p)` for p = 0, 1, ... as long as another pass, as long as
/// the longest so far, still ends within `seconds` of the first; the first
/// pass always runs. A pass goes over a fixed list of inputs, so every run
/// measures whole passes over the same inputs, however fast the box is.
template <class Pass>
void run_passes(double seconds, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  double longest_ms = 0.0;
  for (std::size_t p = 0;
       p == 0 || millis_since(start) + longest_ms <= seconds * 1e3; ++p) {
    const Clock::time_point pass_start = Clock::now();
    pass(p);
    longest_ms = std::max(longest_ms, millis_since(pass_start));
  }
}

double rgg_radius(dsnd::VertexId n) {
  // Expected average degree n * pi * r^2 = 8.
  return std::sqrt(8.0 / (3.14159265358979323846 * static_cast<double>(n)));
}

/// Everything one operation builds. Returned whole so that tearing it
/// down happens after the operation's clock stops; members are destroyed
/// bottom-up, so the context goes before the layout it borrows.
struct PipelineOutput {
  dsnd::GeometricGraph rgg;
  std::optional<dsnd::LayoutGraph> layout;
  std::unique_ptr<dsnd::CarveContext> context;
  dsnd::DistributedRun run;
  dsnd::FastDecompositionReport report;
};

/// One validated decomposition from parameters; spans (when traced) wrap
/// each layer call under `parent`.
std::unique_ptr<PipelineOutput> pipeline_op(dsnd::VertexId n,
                                            std::uint64_t graph_seed,
                                            std::uint64_t carve_seed,
                                            Tracer& tracer,
                                            std::uint64_t parent,
                                            std::int64_t request) {
  auto out = std::make_unique<PipelineOutput>();
  const double radius = rgg_radius(n);
  {
    Span span(tracer, "graph.generate", parent, request);
    out->rgg =
        dsnd::make_rgg_geometric(n, radius, graph_seed, kGeneratorThreads);
  }
  {
    Span span(tracer, "graph.relabel", parent, request);
    const auto cells = static_cast<std::int32_t>(
        std::max(1.0, std::floor(1.0 / radius)));
    out->layout.emplace(dsnd::make_layout_graph(
        out->rgg.graph,
        dsnd::grid_bucket_layout(out->rgg.x, out->rgg.y, cells)));
  }
  {
    Span span(tracer, "decomposition.context_build", parent, request);
    dsnd::EngineOptions engine;
    engine.threads = kEngineThreads;
    out->context = std::make_unique<dsnd::CarveContext>(*out->layout, engine);
  }
  {
    Span span(tracer, "decomposition.carve", parent, request);
    out->run = dsnd::run_schedule_distributed(
        *out->context, dsnd::theorem1_schedule(n, 0, 4.0), carve_seed);
  }
  {
    Span span(tracer, "decomposition.validate", parent, request);
    out->report = dsnd::validate_decomposition_fast(out->rgg.graph,
                                                    out->run.run.clustering());
  }
  return out;
}

}  // namespace

WorkloadReport run_pipeline(const Options& options, Tracer& tracer) {
  WorkloadReport report;
  // Stream tags: 1 = graph seeds, 2 = carve seeds.
  for (int i = 0; i < kSetupRepeats; ++i) {
    Span span(tracer, "setup");
    const Clock::time_point start = Clock::now();
    Tracer quiet(false);  // warm-up layers stay out of the layer medians
    const auto warm = pipeline_op(kWarmupVertices, kWarmupGraphSeed,
                                  kWarmupCarveSeed, quiet, 0, -1);
    report.setup_s.push_back(millis_since(start) / 1e3);
    if (i == 0) {
      report.inputs.emplace_back("warmup-rgg-100k",
                                 warm->rgg.graph.fingerprint());
    }
    if (const std::string why = judge_decomposition(warm->report, warm->run);
        !why.empty()) {
      report.fail("set-up warm-up: " + why);
    }
  }

  CarveCounters counters;
  run_passes(options.seconds, [&](std::size_t pass) {
    for (std::uint64_t input = 0; input < kInputs; ++input) {
      const auto i = static_cast<std::int64_t>(pass * kInputs + input);
      ++report.attempted;
      try {
        std::unique_ptr<PipelineOutput> out;
        const Clock::time_point start = Clock::now();
        {
          Span span(tracer, "op.pipeline", 0, i);
          out = pipeline_op(kVertices, dsnd::stream_seed(options.seed, 1, input),
                            dsnd::stream_seed(options.seed, 2, input), tracer,
                            span.id(), i);
        }
        // Freeing the instance is left out of the operation, as a one-shot
        // process would exit instead.
        const double ms = millis_since(start);
        report.op_ms.push_back(ms);
        report.busy_s += ms / 1e3;
        counters.add(out->run);
        if (pass == 0) {
          report.inputs.emplace_back("rgg-1m#" + std::to_string(input),
                                     out->rgg.graph.fingerprint());
        }
        if (const std::string why = judge_decomposition(out->report, out->run);
            !why.empty()) {
          report.fail("op " + std::to_string(i) + ": " + why);
        }
      } catch (const std::exception& e) {
        report.fail("op " + std::to_string(i) + " threw: " + e.what());
      }
    }
  });
  counters.report(report.layer, tracer);
  return report;
}

}  // namespace perfbench
