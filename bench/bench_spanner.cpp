// E11 (extension) — sparse spanners from decompositions and covers, the
// [DMP+05] application direction cited in the paper's introduction.
//
// (a) decomposition spanner: per-cluster BFS trees + one edge per
//     adjacent cluster pair; stretch <= 4k-3.
// (b) cover spanner: BFS trees of a (W=1, chi)-neighborhood cover;
//     stretch <= 6k-4 with < chi * n edges — O(log n) stretch with
//     O(n log n) edges in the headline regime.
#include <iostream>

#include "apps/spanner.hpp"
#include "bench_common.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "support/stats.hpp"

int main() {
  using namespace dsnd;
  bench::print_header(
      "E11 / spanners via decomposition and covers",
      "claim: stretch O(k) with strong sparsification on dense graphs; "
      "cover spanner keeps < chi * n edges");

  const int seeds = 4 * bench::scale();
  const std::int32_t k = 4;
  Table table({"family", "n", "m", "construction", "edges", "edges/m",
               "stretch", "bound", "check"});
  struct Cell {
    std::string family;
    VertexId n;
    double p;
  };
  bench::RetryStats stats;
  for (const Cell& cell : {Cell{"gnp-sparse", 512, 6.0 / 511.0},
                           Cell{"gnp-mid", 512, 24.0 / 511.0},
                           Cell{"gnp-dense", 512, 0.25}}) {
    Summary dec_edges, dec_stretch, cov_edges, cov_stretch, graph_edges;
    bool dec_ok = true, cov_ok = true;
    for (int s = 0; s < seeds; ++s) {
      const Graph g =
          make_gnp(cell.n, cell.p, static_cast<std::uint64_t>(s) + 1);
      graph_edges.add(static_cast<double>(g.num_edges()));
      const std::uint64_t seed = static_cast<std::uint64_t>(s) * 7368787 + 19;
      const DecompositionRun run =
          run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);
      stats.observe(run.carve);
      if (!bench::accepted_truncated_samples(run.carve)) {
        const SpannerResult spanner =
            spanner_by_decomposition(g, run.clustering());
        dec_edges.add(static_cast<double>(spanner.edges));
        dec_stretch.add(spanner.stretch);
        if (spanner.stretch == kInfiniteDiameter ||
            spanner.stretch > 4 * k - 3) {
          dec_ok = false;
        }
      }

      CoverOptions cover_options;
      cover_options.radius = 1;
      cover_options.k = k;
      cover_options.seed = seed;
      const NeighborhoodCover cover =
          build_neighborhood_cover(g, cover_options);
      stats.observe(cover.base.carve);
      if (!bench::accepted_truncated_samples(cover.base.carve)) {
        const SpannerResult spanner = spanner_from_cover(g, cover);
        cov_edges.add(static_cast<double>(spanner.edges));
        cov_stretch.add(spanner.stretch);
        if (spanner.stretch == kInfiniteDiameter ||
            spanner.stretch > 3 * (2 * k - 2) + 2) {
          cov_ok = false;
        }
      }
    }
    table.row()
        .cell(cell.family)
        .cell(static_cast<std::int64_t>(cell.n))
        .cell(graph_edges.mean(), 0)
        .cell("decomposition")
        .cell(dec_edges.mean(), 0)
        .cell(dec_edges.mean() / graph_edges.mean(), 2)
        .cell(dec_stretch.mean(), 1)
        .cell(4 * k - 3)
        .cell(dec_ok ? "ok" : "VIOLATED");
    table.row()
        .cell(cell.family)
        .cell(static_cast<std::int64_t>(cell.n))
        .cell(graph_edges.mean(), 0)
        .cell("cover (W=1)")
        .cell(cov_edges.mean(), 0)
        .cell(cov_edges.mean() / graph_edges.mean(), 2)
        .cell(cov_stretch.mean(), 1)
        .cell(3 * (2 * k - 2) + 2)
        .cell(cov_ok ? "ok" : "VIOLATED");
  }
  table.print(std::cout);
  stats.print_line(std::cout);
  std::cout << "\nedges/m shrinks as graphs densify (a spanner's job); "
               "stretch stays under its O(k) bound throughout.\n";
  return 0;
}
