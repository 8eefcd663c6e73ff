// Graph family generators used by tests, examples, and the experiment
// harnesses. The paper's guarantees are distribution-free, so the suite
// spans sparse/dense random graphs, bounded-degree lattices, trees,
// expanders (random regular), small-world graphs, and adversarial shapes
// (barbell, ring of cliques) that stress cluster carving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dsnd {

// --- Deterministic families ---------------------------------------------

// Chunk-parallel generators (make_cycle, make_gnp, make_rgg) take a
// `threads` argument (default 1; 0 = hardware concurrency). make_cycle
// and make_rgg write their CSR rows directly (Graph::from_csr); make_gnp
// hands its per-thread edge lists to Graph::from_edge_chunks, the one
// edge-list kernel, which sorts rows on one thread per chunk. Randomness is
// stream-split KaGen-style: every unit of work (a G(n,p) row, an RGG
// point) draws from its own stream_seed-derived generator, so the output
// is a function of (parameters, seed) alone — bit-identical for every
// thread/chunk count (asserted by tests/test_generators.cpp).

/// Path on n vertices: 0-1-2-...-(n-1).
Graph make_path(VertexId n);

/// Cycle on n >= 3 vertices. Chunk-parallel analytic CSR construction:
/// no edge list is ever materialized, so 10M-vertex rings are cheap.
Graph make_cycle(VertexId n, unsigned threads = 1);

/// rows x cols grid; vertex (r, c) has index r*cols + c.
Graph make_grid2d(VertexId rows, VertexId cols);

/// 2D torus (grid with wraparound); rows, cols >= 3.
Graph make_torus2d(VertexId rows, VertexId cols);

/// x*y*z lattice.
Graph make_grid3d(VertexId x, VertexId y, VertexId z);

/// Complete graph K_n.
Graph make_complete(VertexId n);

/// Star with one hub (vertex 0) and n-1 leaves.
Graph make_star(VertexId n);

/// Complete bipartite graph K_{a,b}; the first a vertices form one side.
Graph make_complete_bipartite(VertexId a, VertexId b);

/// Balanced tree with the given branching factor and height (root = 0).
Graph make_balanced_tree(VertexId branching, VertexId height);

/// Hypercube on 2^dim vertices; vertices adjacent iff ids differ in 1 bit.
Graph make_hypercube(int dim);

/// num_cliques cliques of clique_size vertices arranged in a ring, with one
/// edge between consecutive cliques. Stresses the "two scales" case: tiny
/// intra-cluster distances, large inter-cluster distances.
Graph make_ring_of_cliques(VertexId num_cliques, VertexId clique_size);

/// Two cliques of size clique_size joined by a path of path_len edges.
Graph make_barbell(VertexId clique_size, VertexId path_len);

/// Clique of clique_size with a path of path_len hanging off it.
Graph make_lollipop(VertexId clique_size, VertexId path_len);

// --- Random families ------------------------------------------------------

/// Erdős–Rényi G(n, p): each pair independently an edge with probability p.
/// Stream splitting: row v's lower neighbors {w < v} are skip-sampled
/// (Batagelj–Brandes geometric jumps) from the row's own stream
/// stream_seed(seed, tag, v), so rows can be generated in parallel chunks
/// and the graph never depends on the chunking. The chunks' edge lists
/// go through Graph::from_edge_chunks; their row-major order leaves
/// every row sorted, so the kernel's row sort only checks them.
Graph make_gnp(VertexId n, double p, std::uint64_t seed,
               unsigned threads = 1);

/// Erdős–Rényi G(n, m): m distinct edges chosen uniformly.
Graph make_gnm(VertexId n, std::int64_t m, std::uint64_t seed);

/// Uniform random labelled tree (Prüfer-free attachment construction:
/// vertex i attaches to a uniform vertex in [0, i)).
Graph make_random_tree(VertexId n, std::uint64_t seed);

/// Random d-regular graph via the pairing model (retry until simple).
/// Requires n*d even and d < n.
Graph make_random_regular(VertexId n, VertexId d, std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with k nearest neighbors per
/// side, each edge rewired with probability beta.
Graph make_watts_strogatz(VertexId n, VertexId k, double beta,
                          std::uint64_t seed);

/// Barabási–Albert preferential attachment; each new vertex attaches m
/// edges (fewer after self-loop/duplicate dedup, as in the standard
/// simple-graph reading, except that a vertex's first attachment falls
/// back deterministically to its predecessor on a self-draw — so every
/// vertex keeps an edge to an earlier one and the graph is always
/// connected, like the classic sequential construction). Requires
/// m >= 1 and n > m.
/// Batagelj–Brandes endpoint-copying resolved per edge slot from its
/// own stream (Sanders–Schulz), so generation follows the chunk-parallel
/// stream-split contract: bit-identical for every thread/chunk count.
Graph make_barabasi_albert(VertexId n, VertexId m, std::uint64_t seed,
                           unsigned threads = 1);

/// A graph whose vertices carry unit-square coordinates — what the
/// geometric generators return so callers can derive locality layouts
/// (see grid_bucket_layout in graph/relabel.hpp).
struct GeometricGraph {
  Graph graph;
  std::vector<double> x;  // per-vertex coordinates in [0, 1)
  std::vector<double> y;
};

/// Random geometric graph: n points uniform in the unit square, an edge
/// whenever two points lie within euclidean distance radius (0, 1].
/// Grid-bucketed construction (cells of side >= radius, candidates from
/// the 3x3 block): expected O(n + m) work, so million-vertex instances
/// are cheap. Expected average degree ~ n * pi * radius^2.
/// Stream splitting: point i's coordinates come from its own stream
/// stream_seed(seed, tag, i), and rows are counted, then written, in
/// chunks of cell-order points, so generation parallelizes without
/// changing the output.
GeometricGraph make_rgg_geometric(VertexId n, double radius,
                                  std::uint64_t seed, unsigned threads = 1);

/// make_rgg_geometric without the coordinates.
Graph make_rgg(VertexId n, double radius, std::uint64_t seed,
               unsigned threads = 1);

// --- Scale-free families --------------------------------------------------
//
// Both generators below follow the chunk-parallel stream-split contract:
// every unit of work (a hyperbolic point, a Kronecker edge sample) draws
// from its own stream_seed-derived generator and the per-thread edge
// lists go through Graph::from_edge_chunks, so the output is
// bit-identical for every thread/chunk count (pinned by
// tests/test_scale_free.cpp).

/// A graph whose vertices carry native hyperbolic-disk coordinates —
/// the scale-free analogue of GeometricGraph.
struct HyperbolicGraph {
  Graph graph;
  std::vector<double> radius;  // radial coordinate in [0, disk_radius]
  std::vector<double> angle;   // angular coordinate in [0, 2*pi)
  double disk_radius = 0.0;    // R, the disk (= connection) radius
};

/// Random hyperbolic graph (threshold model, Krioukov et al.): n points
/// in a hyperbolic disk of radius R, radial density ~ sinh(alpha*r) with
/// alpha = (gamma - 1) / 2, uniform angles; an edge whenever the
/// hyperbolic distance is <= R. Degrees follow a power law with exponent
/// `gamma` (> 2) and expected average degree ~ avg_degree (the disk
/// radius is chosen from the Gugelmann–Panagiotou–Peter asymptotics, so
/// the realized mean drifts for small n). KaGen-style annulus bucketing:
/// points are bucketed into unit-width radial bands sorted by angle, and
/// each point scans only the angular window of each band that can
/// possibly reach it — near-linear expected work instead of the naive
/// O(n^2) pair scan. Point i's coordinates come from its own stream
/// (r drawn before theta), so generation is chunk-count invariant.
HyperbolicGraph make_hyperbolic_geometric(VertexId n, double avg_degree,
                                          double gamma, std::uint64_t seed,
                                          unsigned threads = 1);

/// make_hyperbolic_geometric without the coordinates.
Graph make_hyperbolic(VertexId n, double avg_degree, double gamma,
                      std::uint64_t seed, unsigned threads = 1);

/// Stochastic Kronecker graph in the Graph500 parameterization (R-MAT
/// with initiator [[0.57, 0.19], [0.19, 0.05]]): n = 2^scale vertices,
/// edge_factor * n directed edge samples, each placed by `scale`
/// independent quadrant draws. Sample e draws from its own stream, so
/// generation is chunk-count invariant. Self-loops are dropped and
/// parallel samples merged deterministically (the usual Graph500
/// simplification), so the simple-edge count comes out slightly below
/// edge_factor * n. Vertex ids are the natural bit-strings (hubs at low
/// ids) — no Graph500 vertex shuffle, which keeps runs reproducible and
/// lets benches relabel explicitly if they want to defeat id locality.
Graph make_kronecker(int scale, std::int64_t edge_factor,
                     std::uint64_t seed, unsigned threads = 1);

// --- Named registry --------------------------------------------------------

/// A named generator producing a graph of roughly n vertices; used by the
/// parameterized tests and the experiment harnesses to sweep families.
struct GraphFamily {
  std::string name;
  Graph (*make)(VertexId n, std::uint64_t seed);
};

/// The standard sweep: path, cycle, grid, tree, random tree, gnp-sparse,
/// gnp-dense, random-regular, hypercube, ring-of-cliques, small-world,
/// rgg, hyperbolic, kronecker, ba. Small n are clamped, so every family
/// builds at every n >= 1.
const std::vector<GraphFamily>& standard_families();

/// Look up a family by name; throws std::invalid_argument if unknown.
const GraphFamily& family_by_name(const std::string& name);

}  // namespace dsnd
