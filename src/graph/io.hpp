// Plain-text graph serialization: a simple edge-list format, DIMACS, and
// the METIS adjacency format. Lets users run the library on their own
// graphs (SNAP/METIS-style files) and lets tests round-trip generator
// output. Each format has one parser (parse_graph), and check_csr
// (graph/validator.hpp) is the one content gate: a reader throws
// std::runtime_error naming the offending line, edge or vertex for
// malformed input, never a crash or a silently wrong graph. chkgraph runs
// the same parse and gate and prints every issue.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dsnd {

/// Edge-list format: first line "n m", then one "u v" line per edge
/// (0-indexed, each undirected edge listed once).
void write_edge_list(std::ostream& out, const Graph& g);
Graph read_edge_list(std::istream& in);

/// DIMACS format: one "p edge n m" line before any "e u v" line
/// (1-indexed); 'c' lines are comments.
void write_dimacs(std::ostream& out, const Graph& g);
Graph read_dimacs(std::istream& in);

/// METIS adjacency format: "n m" header without flags, then line i
/// (1-indexed) lists the neighbors of vertex i; '%' lines are comments.
/// Every undirected edge appears in both endpoint rows (an edge-list
/// file cannot be asymmetric, a METIS file can).
void write_metis(std::ostream& out, const Graph& g);
Graph read_metis(std::istream& in);

/// File helpers; throw std::runtime_error on I/O failure.
void save_edge_list(const std::string& path, const Graph& g);
Graph load_edge_list(const std::string& path);
void save_metis(const std::string& path, const Graph& g);

enum class GraphFormat { kEdgeList, kDimacs, kMetis };

/// ".graph" / ".metis" -> METIS, ".dimacs" / ".col" -> DIMACS, anything
/// else -> edge list.
GraphFormat format_of_path(const std::string& path);

/// Loads a graph in the format of its path's extension.
Graph load_graph(const std::string& path);

/// A file's adjacency as written, in CSR form: each row sorted, but
/// self-loops, duplicate entries and missing reverse entries kept for
/// check_csr to name.
struct ParsedGraph {
  std::vector<std::int64_t> offsets;  // n + 1 entries
  std::vector<VertexId> adjacency;
  std::int64_t header_edges = 0;  // m, as the header declares it
};

/// The one parser per format. Throws std::runtime_error naming the line
/// or edge for format errors only: a malformed header, n > INT32_MAX or
/// m > INT64_MAX / 2, a truncated file, an endpoint outside [0, n), METIS
/// header flags, a second DIMACS problem line or an edge before it. Rows
/// grow as they are read: nothing is sized from m, nor from n before the
/// rows or edges the header promises have been read. The n + 1 offsets
/// are then sized from n, so a header with m = 0 and a large n can throw
/// std::bad_alloc when they cannot be allocated. The edge-list and DIMACS
/// rows come from edge_rows (graph/graph.hpp).
ParsedGraph parse_graph(std::istream& in, GraphFormat format);

/// The header check: empty when the rows hold exactly 2m entries, else
/// the reason.
std::string edge_count_issue(const ParsedGraph& parsed);

}  // namespace dsnd
