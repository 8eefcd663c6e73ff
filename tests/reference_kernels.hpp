// Reference kernels: the tests' oracles for the library's graph layers.
//
// The library builds a relabeled graph by transposition
// (graph/relabel.hpp) and validates a carve on its cluster-induced
// subgraph (decomposition/validation.hpp). Both must produce exactly
// what a direct realization produces. This file keeps those direct
// realizations: a relabeling that gathers each new row from its old row
// and sorts it, and a fast validator that sweeps each cluster in g
// itself, admitting a vertex by comparing cluster ids, after a separate
// walk over g's edges for the coloring. The tests hold the library's
// kernels against them: the same Graph, and the same
// FastDecompositionReport, field for field.
#pragma once

#include <ostream>

#include "decomposition/partition.hpp"
#include "decomposition/validation.hpp"
#include "graph/graph.hpp"
#include "graph/relabel.hpp"

namespace dsnd {

/// g with every vertex v renamed to layout.to_new[v]: row v of the
/// result is row layout.to_old[v] of g, mapped and sorted.
Graph reference_apply_layout(const Graph& g, const Permutation& layout);

/// The fast report from two BFS sweeps per cluster in g, restricted to
/// the cluster by comparing cluster ids, and phase_coloring_is_proper.
FastDecompositionReport reference_validate_decomposition_fast(
    const Graph& g, const Clustering& clustering);

/// GoogleTest's printer for a FastDecompositionReport, so a failed
/// equality shows the fields instead of raw bytes.
void PrintTo(const FastDecompositionReport& report, std::ostream* os);

}  // namespace dsnd
