#include "graph/relabel.hpp"

#include <algorithm>
#include <numeric>

#include "graph/traversal.hpp"
#include "support/assert.hpp"

namespace dsnd {

Permutation Permutation::identity(VertexId n) {
  DSND_REQUIRE(n >= 0, "vertex count must be nonnegative");
  Permutation p;
  p.to_new.resize(static_cast<std::size_t>(n));
  std::iota(p.to_new.begin(), p.to_new.end(), 0);
  p.to_old = p.to_new;
  return p;
}

Permutation Permutation::from_to_new(std::vector<VertexId> to_new) {
  const auto n = static_cast<VertexId>(to_new.size());
  Permutation p;
  p.to_old.assign(to_new.size(), -1);
  for (std::size_t old_id = 0; old_id < to_new.size(); ++old_id) {
    const VertexId new_id = to_new[old_id];
    DSND_REQUIRE(new_id >= 0 && new_id < n,
                 "permutation entry out of range");
    DSND_REQUIRE(p.to_old[static_cast<std::size_t>(new_id)] == -1,
                 "permutation entry repeated");
    p.to_old[static_cast<std::size_t>(new_id)] =
        static_cast<VertexId>(old_id);
  }
  p.to_new = std::move(to_new);
  return p;
}

Permutation bfs_layout(const Graph& g) {
  // One arena across every component: its visit order is the layout.
  BfsArena arena(g.num_vertices());
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    bfs(g, {&root, 1}, arena);
  }
  return Permutation::from_to_new({arena.order().begin(), arena.order().end()})
      .inverse();
}

Permutation grid_bucket_layout(std::span<const double> x,
                               std::span<const double> y,
                               std::int32_t cells_per_side) {
  DSND_REQUIRE(x.size() == y.size(), "coordinate arrays must match");
  DSND_REQUIRE(cells_per_side >= 1, "need at least one cell per side");
  const std::size_t n = x.size();
  const auto side = static_cast<std::size_t>(cells_per_side);
  auto cell_coord = [cells_per_side](double value) {
    const auto c = static_cast<std::int32_t>(
        value * static_cast<double>(cells_per_side));
    return static_cast<std::size_t>(
        std::clamp<std::int32_t>(c, 0, cells_per_side - 1));
  };
  // Counting sort by row-major cell; point order within a cell.
  std::vector<std::size_t> cell_start(side * side + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++cell_start[cell_coord(y[i]) * side + cell_coord(x[i]) + 1];
  }
  for (std::size_t c = 0; c + 1 < cell_start.size(); ++c) {
    cell_start[c + 1] += cell_start[c];
  }
  Permutation p;
  p.to_new.resize(n);
  p.to_old.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot =
        cell_start[cell_coord(y[i]) * side + cell_coord(x[i])]++;
    p.to_new[i] = static_cast<VertexId>(slot);
    p.to_old[slot] = static_cast<VertexId>(i);
  }
  return p;
}

Graph apply_layout(const Graph& g, const Permutation& layout) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  DSND_REQUIRE(layout.to_new.size() == n && layout.to_old.size() == n,
               "layout size must match the graph");
  // Row v of the result has the degree of old vertex to_old[v].
  const std::span<const std::int64_t> old_offsets = g.csr_offsets();
  const std::span<const VertexId> old_adjacency = g.csr_adjacency();
  std::vector<std::int64_t> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto old_v = static_cast<std::size_t>(layout.to_old[v]);
    DSND_REQUIRE(old_v < n, "layout entry out of range");
    offsets[v + 1] = offsets[v] + old_offsets[old_v + 1] - old_offsets[old_v];
  }
  // Filled by transposition: walking new ids v in ascending order, v is
  // appended to the row of each new neighbour. Rows are symmetric, so
  // every row receives its entries in increasing order and needs no sort.
  // Old rows are read in layout order, so each is prefetched 16 steps
  // ahead (its offset 32). The fill stops at a full row: the rows hold
  // exactly offsets[n] entries, so a broken symmetry invariant fails the
  // check below instead of writing out of bounds.
  constexpr std::size_t kAhead = 16;
  std::vector<VertexId> adjacency(static_cast<std::size_t>(offsets[n]));
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  bool out_of_range = false;
  bool overflow = false;
  for (std::size_t v = 0; v < n; ++v) {
    if (v + 2 * kAhead < n) {
      __builtin_prefetch(old_offsets.data() + layout.to_old[v + 2 * kAhead]);
    }
    if (v + kAhead < n) {
      const auto ahead = static_cast<std::size_t>(layout.to_old[v + kAhead]);
      __builtin_prefetch(old_adjacency.data() + old_offsets[ahead]);
    }
    const auto old_v = static_cast<std::size_t>(layout.to_old[v]);
    for (std::int64_t i = old_offsets[old_v]; i < old_offsets[old_v + 1];
         ++i) {
      const auto row = static_cast<std::size_t>(
          layout.to_new[static_cast<std::size_t>(
              old_adjacency[static_cast<std::size_t>(i)])]);
      if (row >= n) {
        out_of_range = true;
      } else if (cursor[row] == offsets[row + 1]) {
        overflow = true;
      } else {
        adjacency[static_cast<std::size_t>(cursor[row]++)] =
            static_cast<VertexId>(v);
      }
    }
  }
  DSND_REQUIRE(!out_of_range, "layout entry out of range");
  DSND_CHECK(!overflow, "apply_layout needs a symmetric graph");
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

LayoutGraph make_layout_graph(const Graph& g, Permutation layout) {
  LayoutGraph result;
  result.graph = apply_layout(g, layout);
  result.layout = std::move(layout);
  return result;
}

}  // namespace dsnd
