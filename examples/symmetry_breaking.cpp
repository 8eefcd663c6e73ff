// The paper's motivating application: solve three classic symmetry
// breaking problems — maximal independent set, (Delta+1)-coloring, and
// maximal matching — on a torus network, by processing the network
// decomposition color class by color class (O(D * chi) rounds), and
// compare the MIS against Luby's classic randomized algorithm running on
// the message-passing simulator.
//
//   ./symmetry_breaking [side] [seed]
#include <cstdlib>
#include <iostream>

#include "apps/checkers.hpp"
#include "apps/coloring.hpp"
#include "apps/luby.hpp"
#include "apps/matching.hpp"
#include "apps/mis.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dsnd;
  const VertexId side = argc > 1 ? std::atoi(argv[1]) : 24;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  const Graph g = make_torus2d(side, side);
  std::cout << "network: " << side << "x" << side << " torus, "
            << describe(g) << "\n\n";

  // Theorem 1 at its default k = ceil(ln n).
  const DecompositionRun run =
      run_schedule(g, theorem1_schedule(g.num_vertices()), seed);
  std::cout << "decomposition: " << run.clustering().num_clusters()
            << " clusters, " << run.clustering().num_colors()
            << " colors, computed in " << run.carve.rounds
            << " simulated rounds\n\n";

  const MisResult mis = mis_by_decomposition(g, run.clustering());
  const ColoringResult coloring =
      coloring_by_decomposition(g, run.clustering());
  const MatchingResult matching =
      matching_by_decomposition(g, run.clustering());
  const LubyResult luby = luby_mis(g, seed);

  VertexId mis_size = 0;
  for (const char b : mis.in_mis) mis_size += b;
  VertexId luby_size = 0;
  for (const char b : luby.in_mis) luby_size += b;

  Table table({"problem", "algorithm", "rounds", "result", "verified"});
  table.row()
      .cell("MIS")
      .cell("decomposition pipeline")
      .cell(mis.cost.rounds)
      .cell("size " + std::to_string(mis_size))
      .cell(is_maximal_independent_set(g, mis.in_mis) ? "yes" : "NO");
  table.row()
      .cell("MIS")
      .cell("Luby (simulated)")
      .cell(static_cast<std::int64_t>(luby.sim.rounds))
      .cell("size " + std::to_string(luby_size))
      .cell(is_maximal_independent_set(g, luby.in_mis) ? "yes" : "NO");
  table.row()
      .cell("(Delta+1)-coloring")
      .cell("decomposition pipeline")
      .cell(coloring.cost.rounds)
      .cell(std::to_string(coloring.colors_used) + " colors (Delta+1 = " +
            std::to_string(max_degree(g) + 1) + ")")
      .cell(is_proper_vertex_coloring(g, coloring.colors) ? "yes" : "NO");
  table.row()
      .cell("maximal matching")
      .cell("decomposition pipeline")
      .cell(matching.cost.rounds)
      .cell(std::to_string(matching.matched_edges) + " edges")
      .cell(is_maximal_matching(g, matching.mate) ? "yes" : "NO");
  table.print(std::cout);

  std::cout << "\npipeline rounds exclude the decomposition itself ("
            << run.carve.rounds << " rounds, reusable across problems)\n";
  return 0;
}
