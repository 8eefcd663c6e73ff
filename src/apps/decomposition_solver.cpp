#include "apps/decomposition_solver.hpp"

#include <algorithm>

#include "decomposition/validation.hpp"
#include "support/assert.hpp"

namespace dsnd {

std::vector<std::vector<ClusterId>> clusters_by_color(
    const Clustering& clustering) {
  std::vector<std::vector<ClusterId>> classes(
      static_cast<std::size_t>(clustering.num_colors()));
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    classes[static_cast<std::size_t>(clustering.color_of(c))].push_back(c);
  }
  return classes;
}

PipelineCost pipeline_round_cost(const Graph& g,
                                 const Clustering& clustering) {
  DSND_REQUIRE(clustering.is_complete(),
               "pipeline requires a complete partition");
  const std::vector<std::int32_t> diameters =
      color_class_strong_diameters(g, clustering);
  const std::vector<std::vector<ClusterId>> classes =
      clusters_by_color(clustering);
  PipelineCost cost;
  for (std::size_t color = 0; color < classes.size(); ++color) {
    if (classes[color].empty()) continue;
    ++cost.color_classes;
    const std::int32_t class_diameter = diameters[color];
    DSND_REQUIRE(class_diameter != kInfiniteDiameter,
                 "pipeline requires connected (strong-diameter) clusters");
    cost.max_cluster_diameter =
        std::max(cost.max_cluster_diameter, class_diameter);
    cost.rounds += 2 * static_cast<std::int64_t>(class_diameter) + 2;
  }
  return cost;
}

}  // namespace dsnd
