// End-to-end flows across modules: generate -> decompose (all three
// theorems + both baselines) -> validate -> contract/color -> solve the
// three symmetry-breaking applications -> verify, plus the head-to-head
// structural comparison between Elkin–Neiman and Linial–Saks that is the
// paper's contribution.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/checkers.hpp"
#include "apps/coloring.hpp"
#include "apps/luby.hpp"
#include "apps/matching.hpp"
#include "apps/mis.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/linial_saks.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"

namespace dsnd {
namespace {

TEST(Integration, FullPipelineOnGrid) {
  const Graph g = make_grid2d(12, 12);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 4), 2026);

  const DecompositionReport report =
      validate_decomposition(g, run.clustering());
  ASSERT_TRUE(report.complete);
  ASSERT_TRUE(report.proper_phase_coloring);

  const Graph super = build_supergraph(g, run.clustering());
  EXPECT_EQ(super.num_vertices(), run.clustering().num_clusters());
  const auto recolor = greedy_coloring(super);
  EXPECT_TRUE(is_proper_vertex_coloring(super, recolor));

  const MisResult mis = mis_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_maximal_independent_set(g, mis.in_mis));
  const ColoringResult coloring =
      coloring_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_proper_vertex_coloring(g, coloring.colors));
  const MatchingResult matching =
      matching_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_maximal_matching(g, matching.mate));
}

TEST(Integration, AllThreeTheoremsOnSameGraph) {
  const Graph g = make_gnp(200, 0.035, 77);
  const VertexId n = g.num_vertices();
  const DecompositionRun r1 = run_schedule(g, theorem1_schedule(n, 4), 1);
  const DecompositionRun r2 = run_schedule(g, theorem2_schedule(n, 4), 1);
  const DecompositionRun r3 = run_schedule(g, theorem3_schedule(n, 3), 1);

  for (const DecompositionRun* run : {&r1, &r2, &r3}) {
    EXPECT_TRUE(run->clustering().is_complete());
    EXPECT_TRUE(phase_coloring_is_proper(g, run->clustering()));
  }
  // The tradeoff shape: Theorem 3 uses fewer colors than Theorem 1.
  EXPECT_LE(r3.clustering().num_colors(), r1.clustering().num_colors());
}

TEST(Integration, StrongVsWeakHeadToHead) {
  // The paper's core claim as a statistical test: across seeds, EN never
  // violates the strong bound (modulo the explicitly-flagged overflow
  // event), while LS93 — whose guarantee is weak-diameter only — violates
  // it on a nontrivial fraction of runs.
  int en_checked = 0;
  int en_violations = 0;
  int ls_violations = 0;
  const std::int32_t k = 4;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Graph g = make_gnp(180, 0.035, seed);
    const DecompositionRun en_run =
        run_schedule(g, theorem1_schedule(g.num_vertices(), k), seed);
    if (!en_run.carve.radius_overflow) {
      ++en_checked;
      const DecompositionReport report =
          validate_decomposition(g, en_run.clustering(),
                                 /*compute_weak=*/false);
      if (report.max_strong_diameter == kInfiniteDiameter ||
          report.max_strong_diameter > 2 * k - 2) {
        ++en_violations;
      }
    }
    LinialSaksOptions ls;
    ls.k = k;
    ls.seed = seed;
    const DecompositionRun ls_run = linial_saks_decomposition(g, ls);
    const DecompositionReport ls_report = validate_decomposition(
        g, ls_run.clustering(), /*compute_weak=*/false);
    if (ls_report.max_strong_diameter == kInfiniteDiameter ||
        ls_report.max_strong_diameter > 2 * k - 2) {
      ++ls_violations;
    }
  }
  EXPECT_EQ(en_violations, 0);
  EXPECT_GE(en_checked, 10);
  EXPECT_GT(ls_violations, 0);
}

TEST(Integration, DistributedAndLubySolveSameProblem) {
  const Graph g = make_torus2d(10, 10);
  const DistributedRun dist =
      run_schedule_distributed(g, theorem1_schedule(g.num_vertices(), 3), 5);
  const MisResult dec_mis = mis_by_decomposition(g, dist.run.clustering());
  const LubyResult luby = luby_mis(g, 5);
  EXPECT_TRUE(is_maximal_independent_set(g, dec_mis.in_mis));
  EXPECT_TRUE(is_maximal_independent_set(g, luby.in_mis));
}

TEST(Integration, IoRoundTripPreservesDecompositionBehavior) {
  // Same graph via serialization -> identical decomposition (the
  // algorithms depend only on structure and seed).
  const Graph g = make_watts_strogatz(120, 3, 0.2, 9);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph g2 = read_edge_list(buffer);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4);
  const DecompositionRun a = run_schedule(g, schedule, 31);
  const DecompositionRun b = run_schedule(g2, schedule, 31);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(a.clustering().cluster_of(v), b.clustering().cluster_of(v));
  }
}

TEST(Integration, HeadlineRegimeSmallScale) {
  // k = ceil(ln n): the (O(log n), O(log n)) regime. Verify the measured
  // quantities against the theorem's own bounds on one medium graph.
  const Graph g = make_gnp(256, 0.025, 13);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices()), 13);
  EXPECT_TRUE(run.clustering().is_complete());
  EXPECT_LE(run.carve.phases_used,
            4 * static_cast<std::int32_t>(run.bounds.colors));
  if (!run.carve.radius_overflow) {
    const DecompositionReport report = validate_decomposition(
        g, run.clustering(), /*compute_weak=*/false);
    EXPECT_LE(static_cast<double>(report.max_strong_diameter),
              run.bounds.strong_diameter);
  }
}

}  // namespace
}  // namespace dsnd
