#include "decomposition/partition.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace dsnd {

Clustering::Clustering(VertexId num_vertices)
    : cluster_of_(static_cast<std::size_t>(num_vertices), kNoCluster) {
  DSND_REQUIRE(num_vertices >= 0, "vertex count must be nonnegative");
}

std::int32_t Clustering::num_colors() const {
  std::int32_t max_color = -1;
  for (std::int32_t color : colors_) max_color = std::max(max_color, color);
  return max_color + 1;
}

ClusterId Clustering::add_cluster(VertexId center, std::int32_t color) {
  DSND_REQUIRE(center >= 0 && center < num_vertices(),
               "cluster center out of range");
  DSND_REQUIRE(color >= 0, "cluster color must be nonnegative");
  centers_.push_back(center);
  colors_.push_back(color);
  return static_cast<ClusterId>(centers_.size() - 1);
}

void Clustering::assign(VertexId v, ClusterId c) {
  DSND_REQUIRE(v >= 0 && v < num_vertices(), "vertex out of range");
  DSND_REQUIRE(c >= 0 && c < num_clusters(), "cluster out of range");
  DSND_REQUIRE(cluster_of_[static_cast<std::size_t>(v)] == kNoCluster,
               "vertex already assigned to a cluster");
  cluster_of_[static_cast<std::size_t>(v)] = c;
}

ClusterId Clustering::cluster_of(VertexId v) const {
  DSND_REQUIRE(v >= 0 && v < num_vertices(), "vertex out of range");
  return cluster_of_[static_cast<std::size_t>(v)];
}

VertexId Clustering::center_of(ClusterId c) const {
  DSND_REQUIRE(c >= 0 && c < num_clusters(), "cluster out of range");
  return centers_[static_cast<std::size_t>(c)];
}

std::int32_t Clustering::color_of(ClusterId c) const {
  DSND_REQUIRE(c >= 0 && c < num_clusters(), "cluster out of range");
  return colors_[static_cast<std::size_t>(c)];
}

bool Clustering::is_complete() const {
  return std::none_of(cluster_of_.begin(), cluster_of_.end(),
                      [](ClusterId c) { return c == kNoCluster; });
}

VertexId Clustering::num_unassigned() const {
  return static_cast<VertexId>(
      std::count(cluster_of_.begin(), cluster_of_.end(), kNoCluster));
}

ClusterMembers::ClusterMembers(std::vector<std::int64_t> offsets,
                               std::vector<VertexId> flat)
    : offsets_(std::move(offsets)), flat_(std::move(flat)) {
  DSND_REQUIRE(!offsets_.empty(), "CSR offsets must have at least one entry");
  DSND_REQUIRE(offsets_.back() ==
                   static_cast<std::int64_t>(flat_.size()),
               "CSR offsets do not cover the flat array");
}

std::span<const VertexId> ClusterMembers::of(ClusterId c) const {
  DSND_REQUIRE(c >= 0 && c < num_clusters(), "cluster out of range");
  const auto begin = offsets_[static_cast<std::size_t>(c)];
  const auto end = offsets_[static_cast<std::size_t>(c) + 1];
  return {flat_.data() + begin, static_cast<std::size_t>(end - begin)};
}

ClusterMembers Clustering::members_csr() const {
  // Counting sort by cluster id; stable, so each cluster's members come
  // out in increasing vertex order.
  std::vector<std::int64_t> offsets(
      static_cast<std::size_t>(num_clusters()) + 1, 0);
  for (const ClusterId c : cluster_of_) {
    if (c != kNoCluster) ++offsets[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t c = 1; c < offsets.size(); ++c) {
    offsets[c] += offsets[c - 1];
  }
  std::vector<VertexId> flat(static_cast<std::size_t>(offsets.back()));
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t v = 0; v < cluster_of_.size(); ++v) {
    const ClusterId c = cluster_of_[v];
    if (c != kNoCluster) {
      flat[static_cast<std::size_t>(cursor[static_cast<std::size_t>(c)]++)] =
          static_cast<VertexId>(v);
    }
  }
  return ClusterMembers(std::move(offsets), std::move(flat));
}

}  // namespace dsnd
