#include "decomposition/checkpoint.hpp"

#include <algorithm>

namespace dsnd {

bool PhaseValidator::validate_phase(const Graph& g,
                                    std::span<const VertexId> joiners,
                                    std::span<const VertexId> center_of,
                                    std::span<const std::int32_t> phase_of,
                                    const std::int32_t phase) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (visited_.size() != n) {
    visited_.assign(n, 0);
    center_seen_.assign(n, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // Stamp wrap: restart the epoch space with clean arrays.
    std::fill(visited_.begin(), visited_.end(), 0u);
    std::fill(center_seen_.begin(), center_seen_.end(), 0u);
    epoch_ = 1;
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
  // joiner and confined to same-(phase, center) vertices. A later
  // unvisited joiner whose center was already seen starts a second
  // component of the same cluster — disconnected.
  for (const VertexId root : joiners) {
    const auto ri = static_cast<std::size_t>(root);
    if (visited_[ri] == epoch_) continue;
    const VertexId center = center_of[ri];
    const auto ci = static_cast<std::size_t>(center);
    if (center_seen_[ci] == epoch_) return false;
    center_seen_[ci] = epoch_;
    queue_.clear();
    queue_.push_back(root);
    visited_[ri] = epoch_;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      for (const VertexId u : g.neighbors(queue_[head])) {
        const auto ui = static_cast<std::size_t>(u);
        if (visited_[ui] == epoch_) continue;
        if (phase_of[ui] != phase || center_of[ui] != center) continue;
        visited_[ui] = epoch_;
        queue_.push_back(u);
      }
    }
  }
  return true;
}

}  // namespace dsnd
