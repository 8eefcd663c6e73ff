// Plain-text graph serialization: a simple edge-list format, DIMACS, and
// the METIS adjacency format. Lets users run the library on their own
// graphs (SNAP/METIS-style files) and lets tests round-trip generator
// output. All readers are strict: malformed input — truncated files,
// out-of-range endpoints, self-loops, duplicate or asymmetric adjacency
// rows — raises std::runtime_error with a message naming the offending
// line or edge, never a crash or a silently wrong graph.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace dsnd {

/// Edge-list format: first line "n m", then one "u v" line per edge
/// (0-indexed, each undirected edge listed once).
void write_edge_list(std::ostream& out, const Graph& g);
Graph read_edge_list(std::istream& in);

/// DIMACS format: "p edge n m" header, then "e u v" lines (1-indexed).
void write_dimacs(std::ostream& out, const Graph& g);
Graph read_dimacs(std::istream& in);

/// METIS adjacency format: "n m" header, then line i (1-indexed) lists
/// the neighbors of vertex i; '%' lines are comments. Every undirected
/// edge appears in both endpoint rows, and the reader verifies that
/// symmetry (an edge-list file cannot be asymmetric, a METIS file can).
void write_metis(std::ostream& out, const Graph& g);
Graph read_metis(std::istream& in);

/// File helpers; throw std::runtime_error on I/O failure.
void save_edge_list(const std::string& path, const Graph& g);
Graph load_edge_list(const std::string& path);
void save_metis(const std::string& path, const Graph& g);

/// Loads a graph picking the format from the file extension:
/// ".graph" / ".metis" -> METIS, ".dimacs" / ".col" -> DIMACS,
/// anything else -> edge list.
Graph load_graph(const std::string& path);

}  // namespace dsnd
