#include "graph/graph.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace dsnd {

Graph Graph::from_edges(VertexId n, std::vector<Edge> edges, bool normalize) {
  DSND_REQUIRE(n >= 0, "vertex count must be nonnegative");
  for (auto& e : edges) {
    DSND_REQUIRE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                 "edge endpoint out of range");
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  if (normalize) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  } else {
    DSND_REQUIRE(std::adjacent_find(edges.begin(), edges.end()) == edges.end(),
                 "duplicate edge in edge list");
    DSND_REQUIRE(std::none_of(edges.begin(), edges.end(),
                              [](const Edge& e) { return e.u == e.v; }),
                 "self-loop in edge list");
  }

  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++g.offsets_[static_cast<std::size_t>(e.u) + 1];
    ++g.offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adjacency_.resize(static_cast<std::size_t>(edges.size()) * 2);
  std::vector<std::int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    g.adjacency_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.u)]++)] = e.v;
    g.adjacency_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.v)]++)] = e.u;
  }
  // Rows come out sorted: the edge list is sorted by (u, v) with u < v,
  // so row x first receives its lower neighbors (edges (u, x)) in
  // ascending u, then its upper neighbors (edges (x, v)) in ascending v.
  return g;
}

Graph Graph::from_csr(std::vector<std::int64_t> offsets,
                      std::vector<VertexId> adjacency) {
  DSND_REQUIRE(!offsets.empty(), "offsets must have n+1 entries");
  DSND_REQUIRE(offsets.front() == 0, "offsets must start at 0");
  DSND_REQUIRE(offsets.back() == static_cast<std::int64_t>(adjacency.size()),
               "offsets must end at the adjacency size");
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    DSND_REQUIRE(offsets[v] <= offsets[v + 1], "offsets must be monotone");
    VertexId prev = -1;
    for (std::int64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = adjacency[static_cast<std::size_t>(i)];
      DSND_REQUIRE(w >= 0 && w < n, "adjacency entry out of range");
      DSND_REQUIRE(w != static_cast<VertexId>(v), "self-loop in CSR row");
      DSND_REQUIRE(w > prev, "CSR rows must be strictly increasing");
      prev = w;
    }
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  return g;
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  if (u == v) return false;
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(static_cast<std::size_t>(num_edges()));
  for_each_edge([&](VertexId u, VertexId v) { result.push_back({u, v}); });
  return result;
}

std::uint64_t Graph::fingerprint() const {
  std::uint64_t h = mix_word(0x64736e6447726168ULL,  // "dsndGrah"
                             static_cast<std::uint64_t>(num_vertices()));
  h = mix_word(h, static_cast<std::uint64_t>(num_edges()));
  for (const std::int64_t offset : offsets_) {
    h = mix_word(h, static_cast<std::uint64_t>(offset));
  }
  for (const VertexId v : adjacency_) {
    h = mix_word(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

GraphBuilder::GraphBuilder(VertexId n) : n_(n) {
  DSND_REQUIRE(n >= 0, "vertex count must be nonnegative");
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  DSND_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
               "edge endpoint out of range");
  if (u == v) return;
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v});
}

Graph GraphBuilder::build() && {
  return Graph::from_edges(n_, std::move(edges_), /*normalize=*/true);
}

}  // namespace dsnd
