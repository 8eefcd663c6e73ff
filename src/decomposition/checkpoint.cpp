#include "decomposition/checkpoint.hpp"

namespace dsnd {

bool PhaseValidator::validate_phase(const Graph& g,
                                    std::span<const VertexId> joiners,
                                    std::span<const VertexId> center_of,
                                    std::span<const std::int32_t> phase_of,
                                    const std::int32_t phase) {
  if (arena_.num_vertices() != g.num_vertices()) {
    arena_ = BfsArena(g.num_vertices());
    center_seen_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  }

  // Proper coloring restricted to this phase. Colors are phases, so the
  // only violations the full validator could find involving phase p are
  // adjacent phase-p vertices in different clusters — and every phase-p
  // vertex is in `joiners`, so this checks all of them.
  for (const VertexId v : joiners) {
    const auto vi = static_cast<std::size_t>(v);
    for (const VertexId u : g.neighbors(v)) {
      const auto ui = static_cast<std::size_t>(u);
      if (phase_of[ui] == phase && center_of[ui] != center_of[vi]) {
        return false;
      }
    }
  }

  // Connectivity: one BFS per cluster, rooted at the cluster's first
  // joiner and confined to same-(phase, center) vertices. The searches
  // share the arena, so a later joiner that none of them visited whose
  // center was already seen starts a second component of the same
  // cluster — disconnected.
  bool connected = true;
  for (const VertexId root : joiners) {
    if (arena_.distance(root) != kUnreachable) continue;
    const VertexId center = center_of[static_cast<std::size_t>(root)];
    char& seen = center_seen_[static_cast<std::size_t>(center)];
    if (seen != 0) {
      connected = false;
      break;
    }
    seen = 1;
    bfs(g, {&root, 1}, arena_, [&](VertexId u) {
      const auto ui = static_cast<std::size_t>(u);
      return phase_of[ui] == phase && center_of[ui] == center;
    });
  }
  arena_.reset();
  for (const VertexId v : joiners) {
    center_seen_[static_cast<std::size_t>(
        center_of[static_cast<std::size_t>(v)])] = 0;
  }
  return connected;
}

}  // namespace dsnd
