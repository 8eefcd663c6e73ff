// Parameterized property sweeps: the paper's invariants checked across
// the cartesian product of graph families, sizes, radius parameters, and
// seeds. These are the "theorem holds everywhere" tests; the per-module
// files cover behaviors and edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "apps/checkers.hpp"
#include "apps/coloring.hpp"
#include "apps/matching.hpp"
#include "apps/mis.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/linial_saks.hpp"
#include "decomposition/mpx.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace dsnd {
namespace {

using SweepParam = std::tuple<std::string, VertexId, std::int32_t,
                              std::uint64_t>;  // family, n, k, seed

std::string sweep_name(const testing::TestParamInfo<SweepParam>& info) {
  const auto& [family, n, k, seed] = info.param;
  std::string name = family + "_n" + std::to_string(n) + "_k" +
                     std::to_string(k) + "_s" + std::to_string(seed);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class DecompositionSweep : public testing::TestWithParam<SweepParam> {
 protected:
  Graph graph() const {
    const auto& [family, n, k, seed] = GetParam();
    (void)k;
    return family_by_name(family).make(n, seed);
  }
};

TEST_P(DecompositionSweep, ElkinNeimanTheorem1Invariants) {
  const auto& [family, n, k, seed] = GetParam();
  (void)family;
  (void)n;
  const Graph g = graph();
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);

  // Always: complete partition.
  ASSERT_TRUE(run.clustering().is_complete());

  // Conditioned on Lemma 1's event not occurring (as in the theorem):
  // proper phase coloring (Lemma 4 needs untruncated broadcasts),
  // connected clusters, strong diameter <= 2k-2, center radius <= k-1.
  if (!run.carve.radius_overflow) {
    ASSERT_TRUE(phase_coloring_is_proper(g, run.clustering()));
    const DecompositionReport report =
        validate_decomposition(g, run.clustering());
    EXPECT_TRUE(report.all_clusters_connected);
    ASSERT_NE(report.max_strong_diameter, kInfiniteDiameter);
    EXPECT_LE(report.max_strong_diameter, 2 * k - 2);
    EXPECT_LE(report.max_radius_from_center, k - 1);
    // Weak diameter never exceeds strong diameter.
    EXPECT_LE(report.max_weak_diameter, report.max_strong_diameter);
  }
}

TEST_P(DecompositionSweep, MultistageTheorem2Invariants) {
  const auto& [family, n, k, seed] = GetParam();
  (void)family;
  (void)n;
  const Graph g = graph();
  const DecompositionRun run =
      run_schedule(g, theorem2_schedule(g.num_vertices(), k), seed);
  ASSERT_TRUE(run.clustering().is_complete());
  if (!run.carve.radius_overflow) {
    ASSERT_TRUE(phase_coloring_is_proper(g, run.clustering()));
    const DecompositionReport report =
        validate_decomposition(g, run.clustering(), /*compute_weak=*/false);
    EXPECT_TRUE(report.all_clusters_connected);
    ASSERT_NE(report.max_strong_diameter, kInfiniteDiameter);
    EXPECT_LE(report.max_strong_diameter, 2 * k - 2);
  }
}

TEST_P(DecompositionSweep, LinialSaksWeakInvariants) {
  const auto& [family, n, k, seed] = GetParam();
  (void)family;
  (void)n;
  const Graph g = graph();
  LinialSaksOptions options;
  options.k = k;
  options.seed = seed;
  const DecompositionRun run = linial_saks_decomposition(g, options);
  ASSERT_TRUE(run.clustering().is_complete());
  ASSERT_TRUE(phase_coloring_is_proper(g, run.clustering()));
  const DecompositionReport report =
      validate_decomposition(g, run.clustering());
  ASSERT_NE(report.max_weak_diameter, kInfiniteDiameter);
  EXPECT_LE(report.max_weak_diameter, 2 * k - 2);
}

TEST_P(DecompositionSweep, ApplicationsAreValid) {
  const auto& [family, n, k, seed] = GetParam();
  (void)family;
  (void)n;
  const Graph g = graph();
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);

  const MisResult mis = mis_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_maximal_independent_set(g, mis.in_mis));

  const ColoringResult coloring =
      coloring_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_proper_vertex_coloring(g, coloring.colors));
  EXPECT_LE(coloring.colors_used, max_degree(g) + 1);

  const MatchingResult matching =
      matching_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_maximal_matching(g, matching.mate));
}

INSTANTIATE_TEST_SUITE_P(
    Families, DecompositionSweep,
    testing::Combine(
        testing::Values("path", "cycle", "grid", "balanced-tree",
                        "random-tree", "gnp-sparse", "random-regular",
                        "hypercube", "ring-of-cliques", "small-world"),
        testing::Values<VertexId>(96),
        testing::Values<std::int32_t>(3, 5),
        testing::Values<std::uint64_t>(1, 2)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    Sizes, DecompositionSweep,
    testing::Combine(testing::Values("gnp-sparse", "grid"),
                     testing::Values<VertexId>(32, 64, 200),
                     testing::Values<std::int32_t>(4),
                     testing::Values<std::uint64_t>(3)),
    sweep_name);

// --- MPX sweep ------------------------------------------------------------

using MpxParam = std::tuple<std::string, double, std::uint64_t>;

std::string mpx_name(const testing::TestParamInfo<MpxParam>& info) {
  const auto& [family, beta, seed] = info.param;
  std::string name = family + "_b" +
                     std::to_string(static_cast<int>(beta * 100)) + "_s" +
                     std::to_string(seed);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class MpxSweep : public testing::TestWithParam<MpxParam> {};

TEST_P(MpxSweep, PartitionConnectedAndCovering) {
  const auto& [family, beta, seed] = GetParam();
  const Graph g = family_by_name(family).make(120, seed);
  const MpxResult result = mpx_partition(g, {.beta = beta, .seed = seed});
  ASSERT_TRUE(result.clustering.is_complete());
  const DecompositionReport report = validate_decomposition(
      g, result.clustering, /*compute_weak=*/false);
  EXPECT_TRUE(report.all_clusters_connected);
  ASSERT_NE(report.max_strong_diameter, kInfiniteDiameter);
  // Generous w.h.p. bound: 8 log(n) / beta.
  EXPECT_LE(report.max_strong_diameter,
            8.0 * std::log(static_cast<double>(g.num_vertices())) / beta);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MpxSweep,
    testing::Combine(testing::Values("grid", "gnp-sparse", "cycle",
                                     "random-tree", "hypercube"),
                     testing::Values(0.15, 0.4, 0.8),
                     testing::Values<std::uint64_t>(1, 2)),
    mpx_name);

}  // namespace
}  // namespace dsnd
