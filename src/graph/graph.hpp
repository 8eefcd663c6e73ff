// Immutable undirected graph in compressed sparse row (CSR) form.
//
// All decomposition algorithms operate on this structure. Graphs are
// simple (no self-loops, no parallel edges) and unweighted, matching the
// paper's model. Vertices are dense integers [0, n); in the distributed
// interpretation vertex i hosts the processor with identity i+1.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace dsnd {

using VertexId = std::int32_t;

/// An undirected edge. Graph::edges() lists each in canonical (u < v)
/// order; the builders take either orientation.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  /// The empty graph on zero vertices.
  Graph() = default;

  /// Builds a graph on n vertices from an edge list, in either
  /// orientation. Self-loops and duplicate edges are rejected (a
  /// duplicate is reported first) unless normalize is true, in which case
  /// they are dropped.
  static Graph from_edges(VertexId n, std::vector<Edge> edges,
                          bool normalize = false);

  /// from_edges over an edge list split into chunks (the chunk-parallel
  /// generators' per-thread lists); the rows are sorted on one thread
  /// per chunk. The graph does not depend on the chunking.
  static Graph from_edge_chunks(VertexId n,
                                std::span<const std::vector<Edge>> chunks,
                                bool normalize = false);

  /// Adopts a prebuilt CSR verbatim, for builders that write their rows
  /// without an edge list (make_rgg_geometric, make_cycle, relabeling,
  /// the file readers). offsets must have n+1 monotone entries ending at
  /// adjacency.size(); every row must be strictly increasing (sorted, no
  /// duplicates) with in-range entries and no self-loops — all of which
  /// is checked. The caller guarantees symmetry (v in row u iff u in
  /// row v); that invariant is not re-checked here.
  static Graph from_csr(std::vector<std::int64_t> offsets,
                        std::vector<VertexId> adjacency);

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  std::int64_t num_edges() const {
    return offsets_.empty() ? 0 : static_cast<std::int64_t>(adjacency_.size()) / 2;
  }

  VertexId degree(VertexId v) const {
    check_vertex(v);
    return static_cast<VertexId>(offsets_[static_cast<std::size_t>(v) + 1] -
                                 offsets_[static_cast<std::size_t>(v)]);
  }

  /// Neighbors of v in increasing order.
  std::span<const VertexId> neighbors(VertexId v) const {
    check_vertex(v);
    const auto begin = offsets_[static_cast<std::size_t>(v)];
    const auto end = offsets_[static_cast<std::size_t>(v) + 1];
    return {adjacency_.data() + begin, static_cast<std::size_t>(end - begin)};
  }

  /// O(log degree) adjacency test via binary search in the sorted row.
  bool has_edge(VertexId u, VertexId v) const;

  /// All edges in canonical order (u < v), sorted lexicographically.
  std::vector<Edge> edges() const;

  /// The raw CSR arrays (offsets size n+1, adjacency size 2m). Read-only
  /// views for serialization and the standalone graph validator; the
  /// class invariants guarantee they are well-formed.
  std::span<const std::int64_t> csr_offsets() const { return offsets_; }
  std::span<const VertexId> csr_adjacency() const { return adjacency_; }

  /// Cheap structural hash over the CSR: a SplitMix64-style fold of
  /// (n, m, offsets, adjacency) in O(n + m). Two graphs with the same
  /// fingerprint are the same topology for all practical purposes (the
  /// service result cache keys on it; chkgraph and the bench JSON emit
  /// it so records identify their instance). Not cryptographic.
  std::uint64_t fingerprint() const;

  /// Invokes fn(u, v) once per edge with u < v.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    for (VertexId u = 0; u < num_vertices(); ++u) {
      for (VertexId v : neighbors(u)) {
        if (u < v) fn(u, v);
      }
    }
  }

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  void check_vertex(VertexId v) const {
    DSND_REQUIRE(v >= 0 && v < num_vertices(), "vertex id out of range");
  }

  std::vector<std::int64_t> offsets_;  // size n+1
  std::vector<VertexId> adjacency_;    // size 2m, rows sorted
};

/// The one edge-list kernel: CSR rows on n vertices from edge pairs in
/// chunks. Counts both endpoints of every pair (one outside [0, n)
/// throws std::invalid_argument), scatters the pairs in chunk order — a
/// self-loop once into its row — and sorts each row, on one thread per
/// chunk. Self-loops and repeats stay in: Graph::from_edges rejects or
/// drops them, and the file readers keep them for check_csr to name.
/// offsets gets n + 1 entries.
void edge_rows(VertexId n, std::span<const std::vector<Edge>> chunks,
               std::vector<std::int64_t>& offsets,
               std::vector<VertexId>& adjacency);

/// Incremental edge-list builder; deduplicates and drops self-loops at
/// build() time, so generators can add edges without bookkeeping.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId n);

  VertexId num_vertices() const { return n_; }

  /// Records an undirected edge; self-loops are ignored, duplicates merged.
  void add_edge(VertexId u, VertexId v);

  Graph build() &&;

 private:
  VertexId n_;
  std::vector<Edge> edges_;
};

}  // namespace dsnd
