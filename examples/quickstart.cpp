// Quickstart: build a graph, compute the paper's strong (O(log n),
// O(log n)) network decomposition, validate it, and print a summary.
//
//   ./quickstart [n] [k] [seed]
//
// Defaults: n = 1024 (sparse random graph), k = ceil(ln n), seed = 1.
#include <cstdlib>
#include <iostream>

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dsnd;
  const VertexId n = argc > 1 ? std::atoi(argv[1]) : 1024;
  const std::int32_t k = argc > 2 ? std::atoi(argv[2]) : 0;  // 0 = ln n
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                      : 1;

  // 1. A graph. Any dsnd::Graph works; here a sparse Erdős–Rényi graph
  //    with average degree ~6.
  const Graph g = make_gnp(n, 6.0 / std::max(n - 1, 1), seed);
  std::cout << "graph: " << describe(g) << "\n";

  // 2. Decompose. k = 0 picks ceil(ln n) — the headline regime.
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);

  // 3. Validate against the paper's bounds (brute-force checkers).
  const DecompositionReport report =
      validate_decomposition(g, run.clustering());

  Table table({"quantity", "measured", "theorem bound"});
  table.row()
      .cell("strong diameter")
      .cell(report.max_strong_diameter == kInfiniteDiameter
                ? "inf"
                : std::to_string(report.max_strong_diameter))
      .cell(format_double(run.bounds.strong_diameter, 0));
  table.row()
      .cell("colors (phases)")
      .cell(run.carve.phases_used)
      .cell(format_double(run.bounds.colors, 0));
  table.row()
      .cell("rounds")
      .cell(run.carve.rounds)
      .cell(format_double(run.bounds.rounds, 0));
  table.row()
      .cell("clusters")
      .cell(report.num_clusters)
      .cell("-");
  table.row()
      .cell("avg cluster size")
      .cell(report.avg_cluster_size, 1)
      .cell("-");
  table.print(std::cout);

  std::cout << "complete partition:   "
            << (report.complete ? "yes" : "NO") << "\n"
            << "proper phase colors:  "
            << (report.proper_phase_coloring ? "yes" : "NO") << "\n"
            << "clusters connected:   "
            << (report.all_clusters_connected ? "yes" : "NO") << "\n"
            << "radius overflow:      "
            << (run.carve.radius_overflow
                    ? "yes (Lemma 1 event, truncated samples accepted)"
                    : "no")
            << "\n"
            << "Lemma 1 recoveries:   " << run.carve.retries
            << " retries (" << run.carve.extra_rounds << " extra rounds)\n"
            << "greedy recoloring:    "
            << greedy_supergraph_colors(g, run.clustering())
            << " colors (vs " << run.clustering().num_colors()
            << " phase colors)\n";
  return 0;
}
