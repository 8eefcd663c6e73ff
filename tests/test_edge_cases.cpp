// Cross-cutting edge cases: degenerate graphs, extreme parameters, and
// adversarial structures that the per-module tests do not reach.
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/checkers.hpp"
#include "apps/luby.hpp"
#include "apps/mis.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/linial_saks.hpp"
#include "decomposition/mpx.hpp"
#include "decomposition/supergraph.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "reference_carver.hpp"
#include "simulator/engine.hpp"

namespace dsnd {
namespace {

TEST(EdgeCases, ElkinNeimanKLargerThanLogN) {
  // k beyond ln n is allowed (it just wastes radius); the guarantees
  // still hold.
  const Graph g = make_cycle(32);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 12), 3);
  EXPECT_TRUE(run.clustering().is_complete());
  if (!run.carve.radius_overflow) {
    const DecompositionReport report =
        validate_decomposition(g, run.clustering());
    EXPECT_LE(report.max_strong_diameter, 2 * 12 - 2);
  }
}

TEST(EdgeCases, ElkinNeimanHugeCRarelyOverflows) {
  // c = 1000: overflow probability <= 2/c = 0.002; with 20 seeds we
  // should see none (probability of a false failure ~4%... use 10).
  int overflows = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = make_gnp(100, 0.06, seed);
    const DecompositionRun run =
        run_schedule(g, theorem1_schedule(g.num_vertices(), 4, 1000.0), seed);
    if (run.carve.radius_overflow) ++overflows;
    EXPECT_TRUE(run.clustering().is_complete());
  }
  EXPECT_EQ(overflows, 0);
}

TEST(EdgeCases, ElkinNeimanTinyCStillCompletes) {
  // c < 3 voids the success probability statement but not correctness
  // of the outputs (a run always carves to completion).
  const Graph g = make_grid2d(8, 8);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3, 0.5), 2);
  EXPECT_TRUE(run.clustering().is_complete());
}

TEST(EdgeCases, StarGraphDecomposition) {
  // Star: the hub dominates every broadcast comparison.
  const Graph g = make_star(50);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3), 5);
  EXPECT_TRUE(run.clustering().is_complete());
  EXPECT_TRUE(phase_coloring_is_proper(g, run.clustering()) ||
              run.carve.radius_overflow);
}

TEST(EdgeCases, BarbellBridgesSurviveCarving) {
  // Barbell stresses the case where one long path separates two dense
  // blobs; clusters must never span the bridge beyond their radius.
  const Graph g = make_barbell(12, 9);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3), 7);
  EXPECT_TRUE(run.clustering().is_complete());
  if (!run.carve.radius_overflow) {
    const DecompositionReport report =
        validate_decomposition(g, run.clustering());
    EXPECT_LE(report.max_strong_diameter, 4);
    EXPECT_TRUE(report.all_clusters_connected);
  }
}

TEST(EdgeCases, DistributedOnCompleteGraph) {
  // Dense worst case for message counts; equivalence with the reference
  // carver must still hold.
  const Graph g = make_complete(40);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 2);
  const DistributedRun dist = run_schedule_distributed(g, schedule, 9);
  EXPECT_EQ(carve_decomposition(g, schedule, 9), dist.run.carve);
}

TEST(EdgeCases, EdgelessGraphEverywhere) {
  const Graph g = Graph::from_edges(16, {});
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3), 1);
  EXPECT_TRUE(run.clustering().is_complete());
  // Every vertex is its own component, so all clusters are singletons.
  // Note an isolated vertex still joins only when r_v > 1 (m2 = 0 by
  // definition — the parenthetical in the paper's Claim 6), so
  // exhaustion takes ~(cn)^{1/k} ln(cn) phases even with no contention.
  EXPECT_EQ(run.clustering().num_clusters(), 16);
  EXPECT_GE(run.carve.phases_used, 1);

  const MpxResult mpx = mpx_partition(g, {.beta = 0.5, .seed = 1});
  EXPECT_EQ(mpx.clustering.num_clusters(), 16);
  EXPECT_EQ(mpx.cut_edges, 0);

  const LubyResult luby = luby_mis(g, 1);
  EXPECT_TRUE(is_maximal_independent_set(g, luby.in_mis));
}

TEST(EdgeCases, SupergraphOfMpxPartition) {
  // MPX is a partition (all color 0); contraction still works and greedy
  // coloring of the supergraph yields a proper coloring.
  const Graph g = make_torus2d(8, 8);
  const MpxResult mpx = mpx_partition(g, {.beta = 0.4, .seed = 6});
  const Graph super = build_supergraph(g, mpx.clustering);
  const auto colors = greedy_coloring(super);
  EXPECT_TRUE(is_proper_vertex_coloring(super, colors));
}

TEST(EdgeCases, CompleteBipartiteDecomposition) {
  const Graph g = make_complete_bipartite(20, 20);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 2), 11);
  EXPECT_TRUE(run.clustering().is_complete());
  const MisResult mis = mis_by_decomposition(g, run.clustering());
  EXPECT_TRUE(is_maximal_independent_set(g, mis.in_mis));
  // The MIS of K_{a,b} is one full side.
  VertexId size = 0;
  for (const char b : mis.in_mis) size += b;
  EXPECT_EQ(size, 20);
}

TEST(EdgeCases, LinialSaksOnDisconnectedGraph) {
  GraphBuilder builder(30);
  for (VertexId v = 0; v + 1 < 15; ++v) builder.add_edge(v, v + 1);
  for (VertexId v = 15; v + 1 < 30; ++v) builder.add_edge(v, v + 1);
  const Graph g = std::move(builder).build();
  LinialSaksOptions options;
  options.k = 3;
  options.seed = 13;
  const DecompositionRun run = linial_saks_decomposition(g, options);
  EXPECT_TRUE(run.clustering().is_complete());
  EXPECT_TRUE(phase_coloring_is_proper(g, run.clustering()));
}

TEST(EdgeCases, SeedZeroIsValid) {
  const Graph g = make_gnp(50, 0.1, 0);
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices(), 3), 0);
  EXPECT_TRUE(run.clustering().is_complete());
}

/// Protocol that sends multiple messages to the same neighbor in one
/// round — the engine must deliver all of them.
class MultiSendProtocol final : public Protocol {
 public:
  void begin(const Graph&) override { received_ = 0; }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    if (v == 0 && round == 0) {
      out.send(1, {1});
      out.send(1, {2});
      out.send(1, {3});
    }
    if (v == 1) received_ += inbox.size();
  }
  bool finished() const override { return received_ >= 3; }
  std::size_t received() const { return received_; }

 private:
  std::size_t received_ = 0;
};

TEST(EdgeCases, EngineDeliversMultipleMessagesPerEdge) {
  const Graph g = make_path(2);
  MultiSendProtocol protocol;
  SyncEngine engine(g);
  const SimMetrics metrics = engine.run(protocol, 5);
  EXPECT_EQ(protocol.received(), 3u);
  EXPECT_EQ(metrics.messages, 3u);
}

TEST(EdgeCases, EngineRejectsSelfSend) {
  // has_edge(v, v) is false, so self-sends violate the model.
  class SelfSend final : public Protocol {
   public:
    void begin(const Graph&) override {}
    void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                  Outbox& out) override {
      if (v == 0) out.send(0, {1});
    }
    bool finished() const override { return false; }
  };
  const Graph g = make_path(3);
  SelfSend protocol;
  SyncEngine engine(g);
  EXPECT_THROW(engine.run(protocol, 2), std::invalid_argument);
}

}  // namespace
}  // namespace dsnd
