// E10 — google-benchmark microbenches for the library's kernels: graph
// generation (a 1M RGG at 4 threads among them), relabeling (the
// grid-bucket layout of a 1M RGG), BFS, full decompositions (a cold carve through
// run_schedule, and a warm CONGEST carve of a 20k and a 1M RGG on a
// reused context), the MPX partition, Luby's MIS, validation (the fast
// gate on a 1M RGG carve), and the service's deliverable kernels at the
// service's sizes (stretch measurement and the spanner on a 5k G(n, p),
// the pipeline round cost on a 20k RGG, cover expansion and validation
// on a 2k ring with W = 1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "apps/decomposition_solver.hpp"
#include "apps/luby.hpp"
#include "apps/mis.hpp"
#include "apps/spanner.hpp"
#include "decomposition/covers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/linial_saks.hpp"
#include "decomposition/mpx.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "graph/relabel.hpp"
#include "graph/traversal.hpp"

namespace {

using namespace dsnd;

Graph bench_graph(std::int64_t n) {
  return make_gnp(static_cast<VertexId>(n),
                  6.0 / static_cast<double>(n - 1), 42);
}

void BM_GnpGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench_graph(state.range(0)));
  }
}
BENCHMARK(BM_GnpGeneration)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_GridGeneration(benchmark::State& state) {
  const auto side = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_grid2d(side, side));
  }
}
BENCHMARK(BM_GridGeneration)->Arg(32)->Arg(128);

double rgg_radius(VertexId n) {
  // Expected average degree n * pi * r^2 = 8.
  return std::sqrt(8.0 / (3.14159265358979 * n));
}

/// make_rgg_geometric at 4 threads, the pipeline's generation layer.
void BM_RggGeneration(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_rgg_geometric(n, rgg_radius(n), 42, 4));
  }
}
BENCHMARK(BM_RggGeneration)->Arg(1000000)->Unit(benchmark::kMillisecond);

/// The pipeline's relabeling layer: the grid-bucket layout of a
/// point-order RGG and apply_layout under it.
void BM_ApplyLayoutRgg(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const double radius = rgg_radius(n);
  const GeometricGraph rgg = make_rgg_geometric(n, radius, 42, 4);
  const auto cells =
      static_cast<std::int32_t>(std::max(1.0, std::floor(1.0 / radius)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_layout_graph(
        rgg.graph, grid_bucket_layout(rgg.x, rgg.y, cells)));
  }
}
BENCHMARK(BM_ApplyLayoutRgg)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_Bfs(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(g, 0));
  }
}
BENCHMARK(BM_Bfs)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ElkinNeiman(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_schedule(g, theorem1_schedule(g.num_vertices()), 7));
  }
}
BENCHMARK(BM_ElkinNeiman)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// A warm Theorem 1 carve (k = ln n, c = 4) of an RGG with average
/// degree 8 in grid-bucket layout, on one engine thread and a reused
/// CarveContext: the engine's execute and collect stages at the sizes
/// the service and the 1M pipeline carve.
void BM_DistributedCarveRgg(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const double radius = rgg_radius(n);
  const GeometricGraph rgg = make_rgg_geometric(n, radius, 42);
  const auto cells =
      static_cast<std::int32_t>(std::max(1.0, std::floor(1.0 / radius)));
  const LayoutGraph layout = make_layout_graph(
      rgg.graph, grid_bucket_layout(rgg.x, rgg.y, cells));
  const CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
  CarveContext context(layout);
  run_schedule_distributed(context, schedule, 7);  // warms every buffer
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_schedule_distributed(context, schedule, 7));
  }
}
BENCHMARK(BM_DistributedCarveRgg)->Arg(20000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_LinialSaks(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  LinialSaksOptions options;
  options.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linial_saks_decomposition(g, options));
  }
}
BENCHMARK(BM_LinialSaks)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_MpxPartition(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpx_partition(g, {.beta = 0.2, .seed = 7}));
  }
}
BENCHMARK(BM_MpxPartition)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_LubyMis(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(luby_mis(g, 7));
  }
}
BENCHMARK(BM_LubyMis)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_MisByDecomposition(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices()), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mis_by_decomposition(g, run.clustering()));
  }
}
BENCHMARK(BM_MisByDecomposition)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_ValidateDecomposition(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices()), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_decomposition(
        g, run.clustering(), /*compute_weak=*/false));
  }
}
BENCHMARK(BM_ValidateDecomposition)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// A 1M RGG with average degree 8 and its Theorem 1 carve (k = ln n,
/// c = 4), built once: the gate every validated carve passes.
void BM_ValidateDecompositionFast(benchmark::State& state) {
  const VertexId n = 1000000;
  const Graph g = make_rgg(n, rgg_radius(n), 42);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(n, 0, 4.0), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_decomposition_fast(g, run.clustering()));
  }
}
BENCHMARK(BM_ValidateDecompositionFast)->Unit(benchmark::kMillisecond);

/// A 5k G(n, p) with average degree 8 and its Theorem 1 carve (k = ln n,
/// c = 4): the spanner requests of the decomposition service.
struct SpannerInstance {
  Graph g = make_gnp(5000, 8.0 / 4999.0, 42);
  DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 0, 4.0), 7);
};

void BM_MeasureStretch(benchmark::State& state) {
  const SpannerInstance instance;
  const Graph spanner =
      spanner_by_decomposition(instance.g, instance.run.clustering()).spanner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_stretch(instance.g, spanner));
  }
}
BENCHMARK(BM_MeasureStretch)->Unit(benchmark::kMillisecond);

void BM_SpannerByDecomposition(benchmark::State& state) {
  const SpannerInstance instance;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spanner_by_decomposition(instance.g, instance.run.clustering()));
  }
}
BENCHMARK(BM_SpannerByDecomposition)->Unit(benchmark::kMillisecond);

/// A 20k RGG with average degree 8 and its Theorem 1 carve: the MIS and
/// coloring requests of the decomposition service.
void BM_PipelineRoundCost(benchmark::State& state) {
  const Graph g =
      make_rgg(20000, std::sqrt(8.0 / (3.14159265358979 * 20000)), 42);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 0, 4.0), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline_round_cost(g, run.clustering()));
  }
}
BENCHMARK(BM_PipelineRoundCost)->Unit(benchmark::kMillisecond);

/// The 2k ring, its Theorem 1 carve on G^3 and the W = 1 cover built
/// from it: the cover requests of the decomposition service.
struct CoverInstance {
  Graph ring = make_cycle(2000);
  DecompositionRun base = run_schedule(
      graph_power(ring, 3), theorem1_schedule(ring.num_vertices(), 0, 4.0),
      7);
  NeighborhoodCover cover = [this] {
    NeighborhoodCover result;
    result.radius = 1;
    result.clusters = expand_clusters_to_cover(ring, base.clustering(), 1);
    return result;
  }();
};

void BM_ExpandClustersToCover(benchmark::State& state) {
  const CoverInstance instance;
  for (auto _ : state) {
    benchmark::DoNotOptimize(expand_clusters_to_cover(
        instance.ring, instance.base.clustering(), 1));
  }
}
BENCHMARK(BM_ExpandClustersToCover)->Unit(benchmark::kMillisecond);

void BM_ValidateCover(benchmark::State& state) {
  const CoverInstance instance;
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_cover(instance.ring, instance.cover));
  }
}
BENCHMARK(BM_ValidateCover)->Unit(benchmark::kMillisecond);

}  // namespace
