// Theorem 1 as a CONGEST protocol: run_schedule_distributed on
// theorem1_schedule against the dense reference carver
// (tests/reference_carver.hpp).
#include <gtest/gtest.h>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "reference_carver.hpp"

namespace dsnd {
namespace {

TEST(Distributed, BitIdenticalToCentralizedReference) {
  // The headline fidelity property: the CONGEST protocol and the dense
  // reference consume the same per-(phase, vertex) random stream and must
  // produce the same CarveResult: clustering, phase and round counts, and
  // every other counter.
  for (const char* family :
       {"grid", "cycle", "gnp-sparse", "random-tree", "ring-of-cliques"}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      const Graph g = family_by_name(family).make(96, seed);
      const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4);
      const DistributedRun dist =
          run_schedule_distributed(g, schedule, seed);
      EXPECT_EQ(carve_decomposition(g, schedule, seed), dist.run.carve)
          << family << " seed=" << seed;
    }
  }
}

TEST(Distributed, BitIdenticalToReferenceOnHyperbolicHubs) {
  // Hubs hear many centers at once, so a vertex's second entry often
  // decides a neighbour's join: a protocol forwarding only its best entry
  // diverges from the oracle here, while the small inputs above miss it.
  for (const std::uint64_t seed : {3ULL, 4ULL}) {
    const Graph g = family_by_name("hyperbolic").make(1024, seed);
    const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4);
    const DistributedRun dist =
        run_schedule_distributed(g, schedule, seed * 7 + 1);
    EXPECT_EQ(carve_decomposition(g, schedule, seed * 7 + 1), dist.run.carve)
        << "hyperbolic seed=" << seed;
  }
}

TEST(Distributed, MessagesAreCongestWidth) {
  const Graph g = make_gnp(80, 0.08, 3);
  const DistributedRun dist =
      run_schedule_distributed(g, theorem1_schedule(g.num_vertices(), 4), 3);
  EXPECT_LE(dist.sim.max_message_words, kCarveProtocolMaxWords);
  EXPECT_GT(dist.sim.messages, 0u);
}

TEST(Distributed, SimRoundsMatchAccounting) {
  const Graph g = make_grid2d(8, 8);
  const DistributedRun dist =
      run_schedule_distributed(g, theorem1_schedule(g.num_vertices(), 3), 5);
  // The engine stops in the deciding step of the last phase.
  EXPECT_EQ(static_cast<std::int64_t>(dist.sim.rounds),
            dist.run.carve.rounds);
}

TEST(Distributed, ValidStrongDecompositionWithoutOverflow) {
  const Graph g = make_torus2d(8, 8);
  const DistributedRun dist = run_schedule_distributed(
      g, theorem1_schedule(g.num_vertices(), 4), 11);
  EXPECT_TRUE(dist.run.clustering().is_complete());
  EXPECT_TRUE(phase_coloring_is_proper(g, dist.run.clustering()));
  if (!dist.run.carve.radius_overflow) {
    const DecompositionReport report =
        validate_decomposition(g, dist.run.clustering());
    EXPECT_LE(report.max_strong_diameter, 2 * 4 - 2);
    EXPECT_TRUE(report.all_clusters_connected);
  }
}

TEST(Distributed, SingleVertexTerminatesImmediately) {
  const Graph g = make_path(1);
  const DistributedRun dist =
      run_schedule_distributed(g, theorem1_schedule(1, 2), 1);
  EXPECT_TRUE(dist.run.clustering().is_complete());
  EXPECT_EQ(dist.sim.messages, 0u);  // no neighbors to talk to
}

TEST(Distributed, MessageVolumeScalesWithPhases) {
  // Sanity bound: at most 2 entry messages per directed edge per
  // broadcast round, plus one departure per vertex.
  const Graph g = make_cycle(64);
  const DistributedRun dist =
      run_schedule_distributed(g, theorem1_schedule(g.num_vertices(), 3), 7);
  const auto broadcast_rounds =
      static_cast<std::uint64_t>(dist.run.carve.phases_used) * 3;
  const std::uint64_t upper =
      broadcast_rounds * 2 * 2 * static_cast<std::uint64_t>(g.num_edges()) +
      static_cast<std::uint64_t>(g.num_vertices()) * 2;
  EXPECT_LE(dist.sim.messages, upper);
}

}  // namespace
}  // namespace dsnd
