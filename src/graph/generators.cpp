#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "support/assert.hpp"
#include "support/parallel_chunks.hpp"
#include "support/rng.hpp"

namespace dsnd {

namespace {

// Stream tags for the chunk-parallel generators (distinct from the
// legacy whole-graph stream tags, so the scheme change is explicit in
// the derivation, not just in the draw order).
constexpr std::uint64_t kGnpRowTag = 0x676e7001ULL;   // per-row streams
constexpr std::uint64_t kRggPointTag = 0x52474702ULL;  // per-point streams
constexpr std::uint64_t kHypPointTag = 0x48595003ULL;  // per-point streams
constexpr std::uint64_t kKronEdgeTag = 0x4b524f04ULL;  // per-sample streams
constexpr std::uint64_t kBaEdgeTag = 0x42414505ULL;    // per-slot streams

constexpr double kPi = 3.14159265358979323846;

unsigned resolve_threads(unsigned threads, std::size_t items) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const auto cap = static_cast<unsigned>(
      std::min<std::size_t>(items == 0 ? 1 : items, 256));
  return std::min(threads, cap);
}

/// A vertex count computed in 64 bits, checked before anything is sized.
VertexId vertex_count(std::int64_t n) {
  DSND_REQUIRE(n <= std::numeric_limits<VertexId>::max(),
               "vertex count exceeds INT32_MAX");
  return static_cast<VertexId>(n);
}

}  // namespace

Graph make_path(VertexId n) {
  DSND_REQUIRE(n >= 1, "path needs at least one vertex");
  GraphBuilder builder(n);
  for (VertexId v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return std::move(builder).build();
}

Graph make_cycle(VertexId n, unsigned threads) {
  DSND_REQUIRE(n >= 3, "cycle needs at least three vertices");
  const auto count = static_cast<std::size_t>(n);
  std::vector<std::int64_t> offsets(count + 1);
  for (std::size_t v = 0; v <= count; ++v) {
    offsets[v] = static_cast<std::int64_t>(2 * v);
  }
  std::vector<VertexId> adjacency(2 * count);
  parallel_chunks(count, resolve_threads(threads, count),
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t v = begin; v < end; ++v) {
                      // Sorted row: {v-1, v+1} with wraparound endpoints.
                      const auto vid = static_cast<VertexId>(v);
                      VertexId lo = vid == 0 ? 1 : vid - 1;
                      VertexId hi = v + 1 == count ? 0 : vid + 1;
                      if (vid == 0) {
                        lo = 1;
                        hi = static_cast<VertexId>(count - 1);
                      }
                      if (lo > hi) std::swap(lo, hi);
                      adjacency[2 * v] = lo;
                      adjacency[2 * v + 1] = hi;
                    }
                  });
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

Graph make_grid2d(VertexId rows, VertexId cols) {
  DSND_REQUIRE(rows >= 1 && cols >= 1, "grid dimensions must be positive");
  GraphBuilder builder(vertex_count(std::int64_t{rows} * cols));
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return std::move(builder).build();
}

Graph make_torus2d(VertexId rows, VertexId cols) {
  DSND_REQUIRE(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
  GraphBuilder builder(vertex_count(std::int64_t{rows} * cols));
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      builder.add_edge(id(r, c), id(r, (c + 1) % cols));
      builder.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return std::move(builder).build();
}

Graph make_grid3d(VertexId x, VertexId y, VertexId z) {
  DSND_REQUIRE(x >= 1 && y >= 1 && z >= 1, "grid dimensions must be positive");
  const VertexId xy = vertex_count(std::int64_t{x} * y);
  GraphBuilder builder(vertex_count(std::int64_t{xy} * z));
  auto id = [y, z](VertexId a, VertexId b, VertexId c) {
    return (a * y + b) * z + c;
  };
  for (VertexId a = 0; a < x; ++a) {
    for (VertexId b = 0; b < y; ++b) {
      for (VertexId c = 0; c < z; ++c) {
        if (a + 1 < x) builder.add_edge(id(a, b, c), id(a + 1, b, c));
        if (b + 1 < y) builder.add_edge(id(a, b, c), id(a, b + 1, c));
        if (c + 1 < z) builder.add_edge(id(a, b, c), id(a, b, c + 1));
      }
    }
  }
  return std::move(builder).build();
}

Graph make_complete(VertexId n) {
  DSND_REQUIRE(n >= 1, "complete graph needs at least one vertex");
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) builder.add_edge(u, v);
  }
  return std::move(builder).build();
}

Graph make_star(VertexId n) {
  DSND_REQUIRE(n >= 1, "star needs at least one vertex");
  GraphBuilder builder(n);
  for (VertexId v = 1; v < n; ++v) builder.add_edge(0, v);
  return std::move(builder).build();
}

Graph make_complete_bipartite(VertexId a, VertexId b) {
  DSND_REQUIRE(a >= 1 && b >= 1, "bipartite sides must be nonempty");
  GraphBuilder builder(vertex_count(std::int64_t{a} + b));
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) builder.add_edge(u, a + v);
  }
  return std::move(builder).build();
}

Graph make_balanced_tree(VertexId branching, VertexId height) {
  DSND_REQUIRE(branching >= 1, "branching factor must be positive");
  DSND_REQUIRE(height >= 0, "height must be nonnegative");
  // Number of vertices: 1 + b + b^2 + ... + b^height.
  std::int64_t n = 0;
  std::int64_t layer = 1;
  for (VertexId h = 0; h <= height; ++h) {
    n += layer;
    layer *= branching;
    DSND_REQUIRE(n < (1LL << 31), "balanced tree too large");
  }
  GraphBuilder builder(static_cast<VertexId>(n));
  for (VertexId v = 1; v < static_cast<VertexId>(n); ++v) {
    builder.add_edge(v, (v - 1) / branching);
  }
  return std::move(builder).build();
}

Graph make_hypercube(int dim) {
  DSND_REQUIRE(dim >= 0 && dim <= 24, "hypercube dimension out of range");
  const VertexId n = static_cast<VertexId>(1) << dim;
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    for (int bit = 0; bit < dim; ++bit) {
      const VertexId w = v ^ (static_cast<VertexId>(1) << bit);
      if (v < w) builder.add_edge(v, w);
    }
  }
  return std::move(builder).build();
}

Graph make_ring_of_cliques(VertexId num_cliques, VertexId clique_size) {
  DSND_REQUIRE(num_cliques >= 3, "ring needs at least three cliques");
  DSND_REQUIRE(clique_size >= 1, "clique size must be positive");
  GraphBuilder builder(vertex_count(std::int64_t{num_cliques} * clique_size));
  auto id = [clique_size](VertexId clique, VertexId member) {
    return clique * clique_size + member;
  };
  for (VertexId q = 0; q < num_cliques; ++q) {
    for (VertexId i = 0; i < clique_size; ++i) {
      for (VertexId j = i + 1; j < clique_size; ++j) {
        builder.add_edge(id(q, i), id(q, j));
      }
    }
    builder.add_edge(id(q, clique_size - 1), id((q + 1) % num_cliques, 0));
  }
  return std::move(builder).build();
}

Graph make_barbell(VertexId clique_size, VertexId path_len) {
  DSND_REQUIRE(clique_size >= 2, "barbell cliques need >= 2 vertices");
  DSND_REQUIRE(path_len >= 1, "barbell path needs >= 1 edge");
  GraphBuilder builder(
      vertex_count(2 * std::int64_t{clique_size} + (path_len - 1)));
  for (VertexId i = 0; i < clique_size; ++i) {
    for (VertexId j = i + 1; j < clique_size; ++j) {
      builder.add_edge(i, j);
      builder.add_edge(clique_size + (path_len - 1) + i,
                       clique_size + (path_len - 1) + j);
    }
  }
  // Path from vertex clique_size-1 through the middle vertices to the
  // first vertex of the second clique.
  VertexId prev = clique_size - 1;
  for (VertexId s = 0; s < path_len - 1; ++s) {
    builder.add_edge(prev, clique_size + s);
    prev = clique_size + s;
  }
  builder.add_edge(prev, clique_size + (path_len - 1));
  return std::move(builder).build();
}

Graph make_lollipop(VertexId clique_size, VertexId path_len) {
  DSND_REQUIRE(clique_size >= 2, "lollipop clique needs >= 2 vertices");
  DSND_REQUIRE(path_len >= 1, "lollipop path needs >= 1 edge");
  GraphBuilder builder(vertex_count(std::int64_t{clique_size} + path_len));
  for (VertexId i = 0; i < clique_size; ++i) {
    for (VertexId j = i + 1; j < clique_size; ++j) builder.add_edge(i, j);
  }
  VertexId prev = clique_size - 1;
  for (VertexId s = 0; s < path_len; ++s) {
    builder.add_edge(prev, clique_size + s);
    prev = clique_size + s;
  }
  return std::move(builder).build();
}

Graph make_gnp(VertexId n, double p, std::uint64_t seed, unsigned threads) {
  DSND_REQUIRE(n >= 1, "G(n,p) needs at least one vertex");
  DSND_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0, 1]");
  const auto count = static_cast<std::size_t>(n);
  if (p == 0.0) return Graph::from_edges(n, {});
  if (p == 1.0) return make_complete(n);

  // Row streams: row v skip-samples its lower neighbors {w < v} from
  // stream_seed(seed, kGnpRowTag, v) with Batagelj–Brandes geometric
  // jumps — O(1 + deg) draws per row, and rows are mutually independent,
  // which is exactly G(n,p). Rows are processed in contiguous chunks;
  // later rows have more candidates, so chunk boundaries follow
  // n*sqrt(t/T) to balance the quadratic work mass.
  const double log_q = std::log1p(-p);
  const unsigned workers = resolve_threads(threads, count);
  std::vector<std::vector<Edge>> chunk_edges(workers);
  std::vector<std::size_t> bounds(workers + 1);
  for (unsigned t = 0; t <= workers; ++t) {
    bounds[t] = std::min(count, static_cast<std::size_t>(
        static_cast<double>(count) *
        std::sqrt(static_cast<double>(t) / workers)));
  }
  bounds[workers] = count;
  parallel_chunks(workers, workers,
                  [&](unsigned, std::size_t cb, std::size_t ce) {
    for (std::size_t t = cb; t < ce; ++t) {
      std::vector<Edge>& edges = chunk_edges[t];
      for (std::size_t v = std::max<std::size_t>(bounds[t], 1);
           v < bounds[t + 1]; ++v) {
        Xoshiro256ss rng(stream_seed(seed, kGnpRowTag,
                                     static_cast<std::uint64_t>(v)));
        std::int64_t w = -1;
        for (;;) {
          const double u = uniform_unit(rng);
          // The jump is computed in double and compared before the
          // integer cast: for tiny p a single jump can exceed any
          // integer range, which simply means "row exhausted".
          const double next = static_cast<double>(w) + 1.0 +
                              std::floor(std::log1p(-u) / log_q);
          if (!(next < static_cast<double>(v))) break;
          w = static_cast<std::int64_t>(next);
          edges.push_back(Edge{static_cast<VertexId>(w),
                               static_cast<VertexId>(v)});
        }
      }
    }
  });

  return Graph::from_edge_chunks(n, chunk_edges);
}

Graph make_gnm(VertexId n, std::int64_t m, std::uint64_t seed) {
  DSND_REQUIRE(n >= 1, "G(n,m) needs at least one vertex");
  const std::int64_t max_edges =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  DSND_REQUIRE(m >= 0 && m <= max_edges, "edge count out of range");
  Xoshiro256ss rng(stream_seed(seed, 0x676e6dULL, static_cast<std::uint64_t>(n)));
  std::set<Edge> chosen;
  while (static_cast<std::int64_t>(chosen.size()) < m) {
    auto u = static_cast<VertexId>(
        uniform_below(rng, static_cast<std::uint64_t>(n)));
    auto v = static_cast<VertexId>(
        uniform_below(rng, static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    chosen.insert({u, v});
  }
  GraphBuilder builder(n);
  for (const Edge& e : chosen) builder.add_edge(e.u, e.v);
  return std::move(builder).build();
}

Graph make_random_tree(VertexId n, std::uint64_t seed) {
  DSND_REQUIRE(n >= 1, "tree needs at least one vertex");
  Xoshiro256ss rng(stream_seed(seed, 0x74726565ULL,
                               static_cast<std::uint64_t>(n)));
  GraphBuilder builder(n);
  for (VertexId v = 1; v < n; ++v) {
    const auto parent = static_cast<VertexId>(
        uniform_below(rng, static_cast<std::uint64_t>(v)));
    builder.add_edge(v, parent);
  }
  return std::move(builder).build();
}

Graph make_random_regular(VertexId n, VertexId d, std::uint64_t seed) {
  DSND_REQUIRE(n >= 1 && d >= 0 && d < n, "need 0 <= d < n");
  DSND_REQUIRE((static_cast<std::int64_t>(n) * d) % 2 == 0,
               "n*d must be even for a d-regular graph");
  Xoshiro256ss rng(stream_seed(seed, 0x72656775ULL,
                               static_cast<std::uint64_t>(n)));
  // Pairing model: stubs = d copies of each vertex, shuffle, pair up; retry
  // on self-loops or duplicates. Retry count is O(1) expected for d << n.
  std::vector<VertexId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (int attempt = 0; attempt < 1000; ++attempt) {
    stubs.clear();
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId i = 0; i < d; ++i) stubs.push_back(v);
    }
    // Fisher–Yates shuffle with our deterministic generator.
    for (std::size_t i = stubs.size(); i > 1; --i) {
      const std::size_t j = uniform_below(rng, i);
      std::swap(stubs[i - 1], stubs[j]);
    }
    std::set<Edge> edges;
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      VertexId u = stubs[i];
      VertexId v = stubs[i + 1];
      if (u == v) {
        ok = false;
        break;
      }
      if (u > v) std::swap(u, v);
      if (!edges.insert({u, v}).second) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    GraphBuilder builder(n);
    for (const Edge& e : edges) builder.add_edge(e.u, e.v);
    return std::move(builder).build();
  }
  DSND_CHECK(false, "random regular pairing failed to converge");
}

Graph make_watts_strogatz(VertexId n, VertexId k, double beta,
                          std::uint64_t seed) {
  DSND_REQUIRE(n >= 3, "small world needs at least three vertices");
  DSND_REQUIRE(k >= 1 && 2 * k < n, "need 1 <= k and 2k < n");
  DSND_REQUIRE(beta >= 0.0 && beta <= 1.0, "rewire probability in [0, 1]");
  Xoshiro256ss rng(stream_seed(seed, 0x7773ULL, static_cast<std::uint64_t>(n)));
  std::set<Edge> edges;
  auto canonical = [](VertexId u, VertexId v) {
    return u < v ? Edge{u, v} : Edge{v, u};
  };
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId j = 1; j <= k; ++j) {
      edges.insert(canonical(v, (v + j) % n));
    }
  }
  // Rewire each lattice edge's far endpoint with probability beta.
  std::vector<Edge> lattice(edges.begin(), edges.end());
  for (const Edge& e : lattice) {
    if (uniform_unit(rng) >= beta) continue;
    edges.erase(e);
    // Pick a new partner for e.u avoiding self-loops and duplicates; fall
    // back to keeping the edge if the vertex is saturated.
    bool rewired = false;
    for (int tries = 0; tries < 64; ++tries) {
      const auto w = static_cast<VertexId>(
          uniform_below(rng, static_cast<std::uint64_t>(n)));
      if (w == e.u) continue;
      const Edge candidate = canonical(e.u, w);
      if (edges.contains(candidate)) continue;
      edges.insert(candidate);
      rewired = true;
      break;
    }
    if (!rewired) edges.insert(e);
  }
  GraphBuilder builder(n);
  for (const Edge& e : edges) builder.add_edge(e.u, e.v);
  return std::move(builder).build();
}

Graph make_barabasi_albert(VertexId n, VertexId m, std::uint64_t seed,
                           unsigned threads) {
  DSND_REQUIRE(m >= 1, "attachment count must be positive");
  DSND_REQUIRE(n > m, "need more vertices than attachment count");
  const auto slots =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(m);
  const unsigned workers = resolve_threads(threads, slots);

  // Batagelj–Brandes writes an endpoint array M of length 2nm where
  // M[2i] = i/m (edge slot i's source) and M[2i+1] = M[r_i] with r_i
  // uniform in [0, 2i+1): copying a uniform position of the prefix is
  // the repeated-endpoints trick, so targets land degree-proportional.
  // r_i depends only on the slot index, so M[pos] resolves on demand by
  // chasing odd positions through their own streams (Sanders–Schulz's
  // communication-free formulation): no shared array, and the output is
  // bit-identical for every thread/chunk count. The chase terminates
  // because each draw strictly decreases the position.
  auto resolve = [seed, m](std::uint64_t position) {
    while ((position & 1) != 0) {
      Xoshiro256ss rng(stream_seed(seed, kBaEdgeTag, position >> 1));
      position = uniform_below(rng, position);
    }
    return static_cast<VertexId>((position >> 1) /
                                 static_cast<std::uint64_t>(m));
  };

  // Self-attachment draws and duplicate (u, v) picks are dropped by the
  // normalizing build, matching the usual simple-graph reading — except on a
  // vertex's FIRST slot, where a self-draw deterministically falls back
  // to the previous vertex. That guarantees every vertex u >= 1 keeps
  // an edge to an earlier vertex, so the graph is connected exactly
  // like the classic sequential construction (vertex 0 has no earlier
  // vertex; its draws all self-attach and are dropped, but vertex 1's
  // first slot always wires it in). The fallback is a pure function of
  // the slot index, so the chunk/thread bit-identity contract holds.
  std::vector<std::vector<Edge>> chunk_edges(workers);
  parallel_chunks(
      slots, workers, [&](unsigned worker, std::size_t begin,
                          std::size_t end) {
        std::vector<Edge>& edges = chunk_edges[worker];
        for (std::size_t i = begin; i < end; ++i) {
          const auto u = static_cast<VertexId>(i / static_cast<std::size_t>(m));
          VertexId v = resolve(2 * static_cast<std::uint64_t>(i) + 1);
          const bool first_slot = i % static_cast<std::size_t>(m) == 0;
          if (v == u && first_slot && u != 0) v = u - 1;
          edges.push_back(Edge{u, v});
        }
      });
  return Graph::from_edge_chunks(n, chunk_edges, /*normalize=*/true);
}

GeometricGraph make_rgg_geometric(VertexId n, double radius,
                                  std::uint64_t seed, unsigned threads) {
  DSND_REQUIRE(n >= 1, "rgg needs at least one vertex");
  DSND_REQUIRE(radius > 0.0 && radius <= 1.0, "rgg radius must be in (0, 1]");
  const auto count = static_cast<std::size_t>(n);
  const unsigned workers = resolve_threads(threads, count);

  // Point i's coordinates from its own stream (x drawn before y):
  // chunk-parallel and chunk-count invariant.
  GeometricGraph result;
  result.x.resize(count);
  result.y.resize(count);
  std::vector<double>& x = result.x;
  std::vector<double>& y = result.y;
  parallel_chunks(count, workers,
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      Xoshiro256ss rng(stream_seed(
                          seed, kRggPointTag,
                          static_cast<std::uint64_t>(i)));
                      x[i] = uniform_unit(rng);
                      y[i] = uniform_unit(rng);
                    }
                  });

  // Bucket the points into a grid of cells with side >= radius; every
  // partner of a point then lies in its 3x3 cell block.
  const auto side = static_cast<std::int32_t>(
      std::max(1.0, std::floor(1.0 / radius)));
  const auto cells = static_cast<std::size_t>(side) *
                     static_cast<std::size_t>(side);
  auto cell_coord = [side](double value) {
    return std::min<std::int32_t>(
        side - 1, static_cast<std::int32_t>(value *
                                            static_cast<double>(side)));
  };
  std::vector<std::size_t> cell_start(cells + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto cell = static_cast<std::size_t>(cell_coord(y[i])) *
                          static_cast<std::size_t>(side) +
                      static_cast<std::size_t>(cell_coord(x[i]));
    ++cell_start[cell + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) cell_start[c + 1] += cell_start[c];

  // The points in cell order, coordinates beside their ids: both passes
  // below read a point's 3x3 block as three contiguous runs of slots.
  struct CellPoint {
    double x;
    double y;
    VertexId id;
  };
  std::vector<CellPoint> points(count);
  {
    std::vector<std::size_t> fill(cell_start.begin(), cell_start.end() - 1);
    for (std::size_t i = 0; i < count; ++i) {
      const auto cell = static_cast<std::size_t>(cell_coord(y[i])) *
                            static_cast<std::size_t>(side) +
                        static_cast<std::size_t>(cell_coord(x[i]));
      points[fill[cell]++] = {x[i], y[i], static_cast<VertexId>(i)};
    }
  }

  // Calls visit(partner) for every other point within the radius of the
  // point in `slot`. The distance test is symmetric (a - b is exactly
  // -(b - a)), so each pair is found from both ends and no edge list is
  // needed: a point's partners are its row.
  const double r2 = radius * radius;
  auto for_each_partner = [&](std::size_t slot, auto&& visit) {
    const CellPoint& p = points[slot];
    const std::int32_t cx = cell_coord(p.x);
    const std::int32_t cy = cell_coord(p.y);
    const auto x_lo = static_cast<std::size_t>(std::max(cx - 1, 0));
    const auto x_hi = static_cast<std::size_t>(std::min(cx + 1, side - 1));
    for (std::int32_t gy = std::max(cy - 1, 0);
         gy <= std::min(cy + 1, side - 1); ++gy) {
      const std::size_t row = static_cast<std::size_t>(gy) *
                              static_cast<std::size_t>(side);
      for (std::size_t other = cell_start[row + x_lo];
           other < cell_start[row + x_hi + 1]; ++other) {
        const CellPoint& q = points[other];
        const double dx = p.x - q.x;
        const double dy = p.y - q.y;
        if (dx * dx + dy * dy <= r2 && other != slot) visit(q.id);
      }
    }
  };

  // Pass 1 counts each point's row, pass 2 writes it at its offset and
  // sorts it; both run in chunks of cell-order slots, and a point's row
  // does not depend on the chunking.
  std::vector<std::int64_t> offsets(count + 1, 0);
  parallel_chunks(count, workers,
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t slot = begin; slot < end; ++slot) {
                      std::int64_t degree = 0;
                      for_each_partner(slot, [&](VertexId) { ++degree; });
                      offsets[static_cast<std::size_t>(points[slot].id) +
                              1] = degree;
                    }
                  });
  for (std::size_t v = 0; v < count; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> adjacency(static_cast<std::size_t>(offsets[count]));
  std::vector<char> overflowed(workers, 0);
  parallel_chunks(
      count, workers,
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          const auto id = static_cast<std::size_t>(points[slot].id);
          const auto row = adjacency.begin() + offsets[id];
          const auto row_end = adjacency.begin() + offsets[id + 1];
          auto out = row;
          for_each_partner(slot, [&](VertexId partner) {
            if (out == row_end) {
              overflowed[worker] = 1;
              return;
            }
            *out++ = partner;
          });
          if (out != row_end) overflowed[worker] = 1;
          std::sort(row, out);
        }
      });
  DSND_CHECK(std::none_of(overflowed.begin(), overflowed.end(),
                          [](char flag) { return flag != 0; }),
             "rgg rows differ between the count and the fill");
  result.graph = Graph::from_csr(std::move(offsets), std::move(adjacency));
  return result;
}

Graph make_rgg(VertexId n, double radius, std::uint64_t seed,
               unsigned threads) {
  return make_rgg_geometric(n, radius, seed, threads).graph;
}

namespace {

/// Largest angular separation at which a point at radius r can reach any
/// point at radius >= band_lo within hyperbolic distance R. The
/// threshold angle shrinks as either radius grows, so evaluating it at a
/// band's inner radius gives a window that covers the whole band.
double band_max_angle(double cosh_r, double sinh_r, double band_lo,
                      double cosh_disk) {
  if (band_lo <= 0.0 || sinh_r == 0.0) return kPi;  // center reaches all
  const double rhs = (cosh_r * std::cosh(band_lo) - cosh_disk) /
                     (sinh_r * std::sinh(band_lo));
  if (rhs <= -1.0) return kPi;
  if (rhs >= 1.0) return 0.0;
  return std::acos(rhs);
}

}  // namespace

HyperbolicGraph make_hyperbolic_geometric(VertexId n, double avg_degree,
                                          double gamma, std::uint64_t seed,
                                          unsigned threads) {
  DSND_REQUIRE(n >= 2, "hyperbolic graph needs at least two vertices");
  DSND_REQUIRE(gamma > 2.0, "power-law exponent must exceed 2");
  DSND_REQUIRE(avg_degree > 0.0, "target average degree must be positive");
  const double alpha = (gamma - 1.0) / 2.0;
  // Disk radius from the Gugelmann–Panagiotou–Peter asymptotics:
  // n = nu * e^{R/2} with mean degree -> 2 alpha^2 nu / (pi (alpha-1/2)^2).
  const double nu = avg_degree * kPi * (alpha - 0.5) * (alpha - 0.5) /
                    (2.0 * alpha * alpha);
  const double disk = 2.0 * std::log(static_cast<double>(n) / nu);
  DSND_REQUIRE(disk > 0.0,
               "n too small for the requested average degree / exponent");

  const auto count = static_cast<std::size_t>(n);
  const unsigned workers = resolve_threads(threads, count);

  // Coordinates: point i's stream draws r (inverse-CDF of the
  // sinh(alpha r) density) before theta. cosh/sinh are precomputed once
  // per point — the distance test needs them for every candidate pair.
  HyperbolicGraph result;
  result.disk_radius = disk;
  result.radius.resize(count);
  result.angle.resize(count);
  std::vector<double> cosh_r(count);
  std::vector<double> sinh_r(count);
  const double cosh_alpha_disk = std::cosh(alpha * disk);
  parallel_chunks(count, workers,
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      Xoshiro256ss rng(stream_seed(
                          seed, kHypPointTag,
                          static_cast<std::uint64_t>(i)));
                      const double u1 = uniform_unit(rng);
                      const double r =
                          std::acosh(1.0 + u1 * (cosh_alpha_disk - 1.0)) /
                          alpha;
                      result.radius[i] = r;
                      result.angle[i] = 2.0 * kPi * uniform_unit(rng);
                      cosh_r[i] = std::cosh(r);
                      sinh_r[i] = std::sinh(r);
                    }
                  });

  // Annulus bucketing: unit-width radial bands, each sorted by angle, so
  // a point's candidates in a band are one (or two, with wraparound)
  // binary-searched angular slices. Deep bands hold exponentially few
  // points, so the conservative per-band windows stay near-linear.
  const auto bands = static_cast<std::size_t>(
      std::max(1.0, std::ceil(disk)));
  auto band_of = [bands](double r) {
    return std::min(bands - 1, static_cast<std::size_t>(
                                   std::max(0.0, std::floor(r))));
  };
  std::vector<std::size_t> band_start(bands + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    ++band_start[band_of(result.radius[i]) + 1];
  }
  for (std::size_t b = 0; b < bands; ++b) band_start[b + 1] += band_start[b];
  // (angle, vertex) pairs, sorted within each band; the vertex tiebreak
  // makes the order — and thus the scan — independent of the fill order.
  std::vector<std::pair<double, VertexId>> members(count);
  {
    std::vector<std::size_t> fill(band_start.begin(), band_start.end() - 1);
    for (std::size_t i = 0; i < count; ++i) {
      members[fill[band_of(result.radius[i])]++] = {result.angle[i],
                                                    static_cast<VertexId>(i)};
    }
  }
  parallel_chunks(bands, workers,
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t b = begin; b < end; ++b) {
                      std::sort(members.begin() +
                                    static_cast<std::ptrdiff_t>(band_start[b]),
                                members.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        band_start[b + 1]));
                    }
                  });

  // Edge scan in point chunks: point i emits exactly the pairs (i, j)
  // with j > i, so the union over chunks never depends on the chunking.
  const double cosh_disk = std::cosh(disk);
  std::vector<std::vector<Edge>> chunk_edges(workers);
  parallel_chunks(count, workers,
                  [&](unsigned worker, std::size_t begin, std::size_t end) {
    std::vector<Edge>& edges = chunk_edges[worker];
    for (std::size_t i = begin; i < end; ++i) {
      const double theta = result.angle[i];
      for (std::size_t b = 0; b < bands; ++b) {
        const double window = band_max_angle(
            cosh_r[i], sinh_r[i], static_cast<double>(b), cosh_disk);
        const auto lo = members.begin() +
                        static_cast<std::ptrdiff_t>(band_start[b]);
        const auto hi = members.begin() +
                        static_cast<std::ptrdiff_t>(band_start[b + 1]);
        auto scan = [&](double from, double to) {
          auto it = std::lower_bound(
              lo, hi, std::pair<double, VertexId>{from, -1});
          for (; it != hi && it->first <= to; ++it) {
            const auto j = static_cast<std::size_t>(it->second);
            if (j <= i) continue;  // each pair once
            const double cosh_d =
                cosh_r[i] * cosh_r[j] -
                sinh_r[i] * sinh_r[j] * std::cos(theta - it->first);
            if (cosh_d <= cosh_disk) {
              edges.push_back(Edge{static_cast<VertexId>(i),
                                   static_cast<VertexId>(j)});
            }
          }
        };
        if (window >= kPi) {
          scan(0.0, 2.0 * kPi);
        } else {
          const double from = theta - window;
          const double to = theta + window;
          if (from < 0.0) {
            scan(from + 2.0 * kPi, 2.0 * kPi);
            scan(0.0, to);
          } else if (to >= 2.0 * kPi) {
            scan(from, 2.0 * kPi);
            scan(0.0, to - 2.0 * kPi);
          } else {
            scan(from, to);
          }
        }
      }
    }
  });

  result.graph = Graph::from_edge_chunks(n, chunk_edges);
  return result;
}

Graph make_hyperbolic(VertexId n, double avg_degree, double gamma,
                      std::uint64_t seed, unsigned threads) {
  return make_hyperbolic_geometric(n, avg_degree, gamma, seed, threads).graph;
}

Graph make_kronecker(int scale, std::int64_t edge_factor,
                     std::uint64_t seed, unsigned threads) {
  DSND_REQUIRE(scale >= 1 && scale <= 30, "kronecker scale out of range");
  DSND_REQUIRE(edge_factor >= 1, "edge factor must be positive");
  const VertexId n = static_cast<VertexId>(1) << scale;
  const auto count = static_cast<std::size_t>(n);
  const auto samples =
      static_cast<std::size_t>(edge_factor) * count;
  const unsigned workers = resolve_threads(threads, samples);

  // Graph500 initiator probabilities (A, B, C; D is the remainder).
  constexpr double kA = 0.57;
  constexpr double kB = 0.19;
  constexpr double kC = 0.19;

  // Sample pass: directed sample e recursively picks one of the four
  // quadrants per bit level from its own stream, top bit first.
  // Self-loops and repeated samples are dropped by the normalizing build.
  std::vector<std::vector<Edge>> chunk_edges(workers);
  parallel_chunks(samples, workers,
                  [&](unsigned worker, std::size_t begin, std::size_t end) {
    std::vector<Edge>& edges = chunk_edges[worker];
    for (std::size_t e = begin; e < end; ++e) {
      Xoshiro256ss rng(stream_seed(seed, kKronEdgeTag,
                                   static_cast<std::uint64_t>(e)));
      VertexId u = 0;
      VertexId v = 0;
      for (int bit = 0; bit < scale; ++bit) {
        const double x = uniform_unit(rng);
        u = static_cast<VertexId>(u << 1);
        v = static_cast<VertexId>(v << 1);
        if (x < kA) {
          // top-left: both bits 0
        } else if (x < kA + kB) {
          v = static_cast<VertexId>(v | 1);
        } else if (x < kA + kB + kC) {
          u = static_cast<VertexId>(u | 1);
        } else {
          u = static_cast<VertexId>(u | 1);
          v = static_cast<VertexId>(v | 1);
        }
      }
      edges.push_back(Edge{u, v});
    }
  });

  return Graph::from_edge_chunks(n, chunk_edges, /*normalize=*/true);
}

namespace {

VertexId isqrt(VertexId n) {
  auto r = static_cast<VertexId>(std::sqrt(static_cast<double>(n)));
  while ((r + 1) * (r + 1) <= n) ++r;
  while (r * r > n) --r;
  return r;
}

const std::vector<GraphFamily>& families_impl() {
  static const std::vector<GraphFamily> kFamilies = {
      {"path", [](VertexId n, std::uint64_t) { return make_path(n); }},
      {"cycle",
       [](VertexId n, std::uint64_t) { return make_cycle(std::max<VertexId>(n, 3)); }},
      {"grid",
       [](VertexId n, std::uint64_t) {
         const VertexId side = std::max<VertexId>(isqrt(n), 2);
         return make_grid2d(side, side);
       }},
      {"balanced-tree",
       [](VertexId n, std::uint64_t) {
         // Binary tree with ~n vertices.
         VertexId height = 1;
         while (((static_cast<std::int64_t>(1) << (height + 2)) - 1) <= n) {
           ++height;
         }
         return make_balanced_tree(2, height);
       }},
      {"random-tree",
       [](VertexId n, std::uint64_t seed) { return make_random_tree(n, seed); }},
      {"gnp-sparse",
       [](VertexId n, std::uint64_t seed) {
         // Expected average degree ~6.
         return make_gnp(n, std::min(1.0, 6.0 / std::max<VertexId>(n - 1, 1)),
                         seed);
       }},
      {"gnp-dense",
       [](VertexId n, std::uint64_t seed) {
         // Expected average degree ~ n/8 (dense but not complete).
         return make_gnp(n, 0.125, seed);
       }},
      {"random-regular",
       [](VertexId n, std::uint64_t seed) {
         // 4-regular needs an even n > 4.
         return make_random_regular(std::max<VertexId>(6, n + n % 2), 4, seed);
       }},
      {"hypercube",
       [](VertexId n, std::uint64_t) {
         int dim = 1;
         while ((static_cast<VertexId>(1) << (dim + 1)) <= n) ++dim;
         return make_hypercube(dim);
       }},
      {"ring-of-cliques",
       [](VertexId n, std::uint64_t) {
         const VertexId clique = 8;
         const VertexId rings = std::max<VertexId>(n / clique, 3);
         return make_ring_of_cliques(rings, clique);
       }},
      {"small-world",
       [](VertexId n, std::uint64_t seed) {
         return make_watts_strogatz(std::max<VertexId>(n, 8), 3, 0.1, seed);
       }},
      {"rgg",
       [](VertexId n, std::uint64_t seed) {
         // Radius for expected average degree ~8.
         const double radius =
             std::sqrt(8.0 / (3.14159265358979323846 *
                              static_cast<double>(std::max<VertexId>(n, 2))));
         return make_rgg(n, std::min(1.0, radius), seed);
       }},
      {"hyperbolic",
       [](VertexId n, std::uint64_t seed) {
         // Power-law exponent 2.8, target average degree ~8.
         return make_hyperbolic(std::max<VertexId>(n, 64), 8.0, 2.8, seed);
       }},
      {"kronecker",
       [](VertexId n, std::uint64_t seed) {
         // n rounded down to a power of two, edge factor 8.
         int scale = 1;
         while ((static_cast<VertexId>(1) << (scale + 1)) <=
                std::max<VertexId>(n, 2)) {
           ++scale;
         }
         return make_kronecker(scale, 8, seed);
       }},
      {"ba",
       [](VertexId n, std::uint64_t seed) {
         // Attachment count 4: average degree just under 8.
         return make_barabasi_albert(std::max<VertexId>(n, 8), 4, seed);
       }},
  };
  return kFamilies;
}

}  // namespace

const std::vector<GraphFamily>& standard_families() { return families_impl(); }

const GraphFamily& family_by_name(const std::string& name) {
  for (const GraphFamily& family : families_impl()) {
    if (family.name == name) return family;
  }
  DSND_REQUIRE(false, "unknown graph family: " + name);
  // Unreachable; DSND_REQUIRE throws.
  throw std::invalid_argument("unreachable");
}

}  // namespace dsnd
