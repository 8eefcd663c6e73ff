// The wider locality toolkit that network decomposition unlocks (the
// application lines cited in the paper's introduction and related work):
//   1. a sparse (W, chi)-neighborhood cover   [AP92, ABCP92]
//   2. two O(k)-stretch spanners              [DMP+05]
//   3. an HST tree embedding                  [Bar96]
// all built on the Elkin–Neiman decomposition / MPX partitions of this
// library, each verified on the spot.
//
//   ./locality_toolkit [n] [seed]
#include <cstdlib>
#include <iostream>

#include "apps/spanner.hpp"
#include "decomposition/covers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/hst.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dsnd;
  const VertexId n = argc > 1 ? std::atoi(argv[1]) : 400;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 17;

  const Graph g = make_gnp(n, 10.0 / std::max(n - 1, 1), seed);
  std::cout << "graph: " << describe(g) << "\n\n";
  const std::int32_t k = 4;

  // --- 1. Neighborhood cover ---------------------------------------------
  CoverOptions cover_options;
  cover_options.radius = 2;
  cover_options.k = k;
  cover_options.seed = seed;
  const NeighborhoodCover cover = build_neighborhood_cover(g, cover_options);
  const CoverReport cover_report = validate_cover(g, cover);
  std::cout << "neighborhood cover (W=2): " << cover.clusters.size()
            << " clusters, " << cover.num_colors << " colors, max overlap "
            << cover_report.max_overlap << ", balls covered: "
            << (cover_report.all_balls_covered ? "all" : "MISSING SOME")
            << "\n";

  // --- 2. Spanners ---------------------------------------------------------
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);
  const SpannerResult dec_spanner =
      spanner_by_decomposition(g, run.clustering());
  CoverOptions w1 = cover_options;
  w1.radius = 1;
  const NeighborhoodCover cover1 = build_neighborhood_cover(g, w1);
  const SpannerResult cov_spanner = spanner_from_cover(g, cover1);

  Table spanners({"construction", "edges", "of m", "stretch", "bound"});
  spanners.row()
      .cell("decomposition trees + bridges")
      .cell(dec_spanner.edges)
      .cell(format_double(100.0 * static_cast<double>(dec_spanner.edges) /
                              static_cast<double>(g.num_edges()),
                          1) +
            "%")
      .cell(dec_spanner.stretch)
      .cell(4 * k - 3);
  spanners.row()
      .cell("cover trees (W=1)")
      .cell(cov_spanner.edges)
      .cell(format_double(100.0 * static_cast<double>(cov_spanner.edges) /
                              static_cast<double>(g.num_edges()),
                          1) +
            "%")
      .cell(cov_spanner.stretch)
      .cell(3 * (2 * k - 2) + 2);
  spanners.print(std::cout);

  // --- 3. Tree embedding ----------------------------------------------------
  const HstTree tree = build_hst(g, {.c = 4.0, .seed = seed});
  const StretchReport stretch = measure_hst_stretch(g, tree, 500, seed);
  std::cout << "\nHST embedding: " << tree.num_nodes() << " tree nodes, "
            << tree.num_levels() << " levels; over " << stretch.pairs
            << " sampled pairs: mean stretch "
            << format_double(stretch.mean, 2) << ", max "
            << format_double(stretch.max, 1) << ", dominating: "
            << (stretch.dominating ? "yes" : "NO") << "\n";
  return 0;
}
