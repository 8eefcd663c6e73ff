// Clustering / network decomposition data structures.
//
// A (D, chi) network decomposition is a partition of V into clusters; each
// cluster carries a color (its carving phase) such that same-colored
// clusters are non-adjacent, and each cluster has (strong or weak)
// diameter at most D. Clustering stores the partition plus per-cluster
// color and center; DecompositionResult adds the cost accounting the
// theorems bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dsnd {

using ClusterId = std::int32_t;
inline constexpr ClusterId kNoCluster = -1;

/// Per-cluster member lists in CSR form (offsets + one flat array):
/// one allocation pair regardless of cluster count, members of cluster c
/// in increasing vertex order. Built in O(n) by Clustering::members_csr;
/// this is what the batch validator and the application pipelines iterate
/// instead of materializing a vector-of-vectors.
class ClusterMembers {
 public:
  ClusterMembers() = default;
  ClusterMembers(std::vector<std::int64_t> offsets,
                 std::vector<VertexId> flat);

  ClusterId num_clusters() const {
    return static_cast<ClusterId>(offsets_.empty() ? 0
                                                   : offsets_.size() - 1);
  }

  /// Members of cluster c, in increasing vertex order.
  std::span<const VertexId> of(ClusterId c) const;

  VertexId size_of(ClusterId c) const {
    return static_cast<VertexId>(of(c).size());
  }

  /// Total assigned vertices (== n for complete partitions).
  std::int64_t total_members() const {
    return static_cast<std::int64_t>(flat_.size());
  }

 private:
  std::vector<std::int64_t> offsets_;  // size num_clusters + 1
  std::vector<VertexId> flat_;         // one entry per assigned vertex
};

class Clustering {
 public:
  Clustering() = default;
  explicit Clustering(VertexId num_vertices);

  VertexId num_vertices() const {
    return static_cast<VertexId>(cluster_of_.size());
  }
  ClusterId num_clusters() const {
    return static_cast<ClusterId>(centers_.size());
  }
  /// Max color + 1. Colors need not be dense: a carve's colors are its
  /// phase indices, and a phase may carve nothing.
  std::int32_t num_colors() const;

  /// Creates a cluster and returns its id.
  ClusterId add_cluster(VertexId center, std::int32_t color);

  /// Assigns vertex v to cluster c; v must be unassigned.
  void assign(VertexId v, ClusterId c);

  ClusterId cluster_of(VertexId v) const;
  VertexId center_of(ClusterId c) const;
  std::int32_t color_of(ClusterId c) const;

  /// True when every vertex belongs to some cluster (a full partition).
  bool is_complete() const;
  /// Number of vertices with no cluster.
  VertexId num_unassigned() const;

  /// Member lists as a CSR index (offsets + flat array), built in O(n).
  ClusterMembers members_csr() const;

  /// Same cluster of every vertex, same center and color of every cluster.
  bool operator==(const Clustering&) const = default;

 private:
  std::vector<ClusterId> cluster_of_;
  std::vector<VertexId> centers_;
  std::vector<std::int32_t> colors_;
};

}  // namespace dsnd
