// Build-substrate smoke test: the one test whose job is to prove the
// CMake wiring itself works — it links against the dsnd library target
// across all of its layers (graph generators, decomposition, validation)
// and runs a Theorem 1 schedule end-to-end on a generator graph,
// checking the result with the brute-force validators. If the library
// target, include paths, or test registration break, this fails first.
#include "decomposition/elkin_neiman.hpp"

#include <gtest/gtest.h>

#include "decomposition/validation.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(BuildSmoke, ElkinNeimanEndToEndOnGnp) {
  const VertexId n = 512;
  const Graph g = make_gnp(n, 6.0 / (n - 1), /*seed=*/7);

  // k defaults to 0, which resolves to ceil(ln n): the headline regime.
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices()), 7);

  const DecompositionReport report =
      validate_decomposition(g, run.clustering());
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_TRUE(report.proper_phase_coloring);
  EXPECT_GT(report.num_clusters, 0);

  // The theorem's strong-diameter bound 2k-2 holds whenever no sampled
  // radius overflowed; with this fixed seed the run is deterministic.
  if (!run.carve.radius_overflow) {
    const auto diameter_bound =
        static_cast<std::int32_t>(run.bounds.strong_diameter);
    EXPECT_LE(report.max_strong_diameter, diameter_bound);
  }
}

TEST(BuildSmoke, EndToEndOnStructuredGraph) {
  const Graph g = make_grid2d(16, 16);

  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3), 11);

  const DecompositionReport report =
      validate_decomposition(g, run.clustering());
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_TRUE(report.proper_phase_coloring);
}

}  // namespace
}  // namespace dsnd
