#include "graph/graph.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/parallel_chunks.hpp"
#include "support/rng.hpp"

namespace dsnd {

void edge_rows(VertexId n, std::span<const std::vector<Edge>> chunks,
               std::vector<std::int64_t>& offsets,
               std::vector<VertexId>& adjacency) {
  DSND_REQUIRE(n >= 0, "vertex count must be nonnegative");
  const auto count = static_cast<std::size_t>(n);
  offsets.assign(count + 1, 0);
  for (const std::vector<Edge>& edges : chunks) {
    for (const Edge& e : edges) {
      DSND_REQUIRE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                   "edge endpoint out of range");
      ++offsets[static_cast<std::size_t>(e.u) + 1];
      if (e.v != e.u) ++offsets[static_cast<std::size_t>(e.v) + 1];
    }
  }
  for (std::size_t v = 0; v < count; ++v) offsets[v + 1] += offsets[v];
  adjacency.assign(static_cast<std::size_t>(offsets[count]), 0);
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const std::vector<Edge>& edges : chunks) {
    for (const Edge& e : edges) {
      adjacency[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(e.u)]++)] = e.v;
      if (e.v == e.u) continue;
      adjacency[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(e.v)]++)] = e.u;
    }
  }
  // A row the scatter already left sorted (G(n, p)'s row-major pairs,
  // GraphBuilder's lattices) is only checked.
  parallel_chunks(count, static_cast<unsigned>(chunks.size()),
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t v = begin; v < end; ++v) {
                      const auto row = adjacency.begin() + offsets[v];
                      const auto row_end = adjacency.begin() + offsets[v + 1];
                      if (!std::is_sorted(row, row_end)) {
                        std::sort(row, row_end);
                      }
                    }
                  });
}

Graph Graph::from_edges(VertexId n, std::vector<Edge> edges, bool normalize) {
  return from_edge_chunks(n, {&edges, 1}, normalize);
}

Graph Graph::from_edge_chunks(VertexId n,
                              std::span<const std::vector<Edge>> chunks,
                              bool normalize) {
  Graph g;
  edge_rows(n, chunks, g.offsets_, g.adjacency_);
  // One pass over the sorted rows: a repeat sits beside its twin, and a
  // self-loop is the row's own id. Without normalize the first repeat
  // throws, then any self-loop; with it, the kept entries move down in
  // place and each row's end follows them. A write never lands above the
  // entry being read, so the entry before it still holds the input.
  std::vector<VertexId>& adjacency = g.adjacency_;
  std::int64_t begin = 0;
  std::int64_t kept = 0;
  bool self_loop = false;
  for (std::size_t v = 0; v + 1 < g.offsets_.size(); ++v) {
    const std::int64_t end = g.offsets_[v + 1];
    for (std::int64_t i = begin; i < end; ++i) {
      const VertexId w = adjacency[static_cast<std::size_t>(i)];
      const bool repeat =
          i > begin && w == adjacency[static_cast<std::size_t>(i - 1)];
      if (!repeat && w != static_cast<VertexId>(v)) {
        adjacency[static_cast<std::size_t>(kept++)] = w;
        continue;
      }
      if (normalize) continue;
      DSND_REQUIRE(!repeat, "duplicate edge in edge list");
      self_loop = true;
    }
    g.offsets_[v + 1] = kept;
    begin = end;
  }
  DSND_REQUIRE(!self_loop, "self-loop in edge list");
  adjacency.resize(static_cast<std::size_t>(kept));
  adjacency.shrink_to_fit();
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
  edges_.push_back({u, v});
}

Graph GraphBuilder::build() && {
  return Graph::from_edges(n_, std::move(edges_), /*normalize=*/true);
}

}  // namespace dsnd
