#include "graph/validator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dsnd {

const char* to_string(GraphIssueKind kind) {
  switch (kind) {
    case GraphIssueKind::kBadOffsets: return "bad-offsets";
    case GraphIssueKind::kOutOfRange: return "out-of-range";
    case GraphIssueKind::kSelfLoop: return "self-loop";
    case GraphIssueKind::kUnsortedRow: return "unsorted-row";
    case GraphIssueKind::kDuplicateEdge: return "duplicate-edge";
    case GraphIssueKind::kAsymmetric: return "asymmetric";
  }
  return "unknown";
}

bool GraphCheckReport::has(GraphIssueKind kind) const {
  for (const GraphIssue& issue : issues) {
    if (issue.kind == kind) return true;
  }
  return false;
}

namespace {

/// Collects issues up to the cap while counting all of them.
struct IssueSink {
  GraphCheckReport& report;
  int max_issues;

  void add(GraphIssueKind kind, std::string message) {
    ++report.total_issues;
    if (static_cast<int>(report.issues.size()) < max_issues) {
      report.issues.push_back({kind, std::move(message)});
    }
  }
};

DegreeStats stats_from_degrees(std::vector<VertexId> degrees,
                               std::int64_t entries) {
  DegreeStats stats;
  if (degrees.empty()) return stats;
  const auto n = degrees.size();
  stats.mean_degree =
      static_cast<double>(entries) / static_cast<double>(n);

  VertexId max_degree = 0;
  for (const VertexId d : degrees) max_degree = std::max(max_degree, d);
  // One log2 bucket per bit of max degree (histogram[0] = isolated).
  int buckets = 1;
  while ((static_cast<std::int64_t>(1) << buckets) <= max_degree) ++buckets;
  stats.histogram.assign(static_cast<std::size_t>(buckets) + 1, 0);

  double log_sum = 0.0;
  std::int64_t tail = 0;
  constexpr VertexId kTailMin = 4;  // MLE cutoff; 3.5 = kTailMin - 0.5
  for (const VertexId d : degrees) {
    if (d == 0) {
      ++stats.isolated_vertices;
      ++stats.histogram[0];
      continue;
    }
    int bucket = 1;
    while ((static_cast<VertexId>(1) << bucket) <= d) ++bucket;
    ++stats.histogram[static_cast<std::size_t>(bucket)];
    if (d >= kTailMin) {
      log_sum += std::log(static_cast<double>(d) / 3.5);
      ++tail;
    }
  }
  if (tail >= 16 && log_sum > 0.0) {
    stats.powerlaw_alpha = 1.0 + static_cast<double>(tail) / log_sum;
  }

  std::sort(degrees.begin(), degrees.end());
  stats.min_degree = degrees.front();
  stats.max_degree = degrees.back();
  auto percentile = [&](double q) {
    const auto idx = std::min(
        n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
    return degrees[idx];
  };
  stats.p90_degree = percentile(0.90);
  stats.p99_degree = percentile(0.99);
  return stats;
}

}  // namespace

DegreeStats degree_stats(const Graph& g) {
  std::vector<VertexId> degrees(
      static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    degrees[static_cast<std::size_t>(v)] = g.degree(v);
  }
  return stats_from_degrees(std::move(degrees), 2 * g.num_edges());
}

GraphCheckReport check_csr(std::span<const std::int64_t> offsets,
                           std::span<const VertexId> adjacency,
                           int max_issues) {
  GraphCheckReport report;
  IssueSink sink{report, max_issues};
  report.num_directed_entries = static_cast<std::int64_t>(adjacency.size());

  // Offset structure first — rows are only scanned where the bracketing
  // offsets are usable, so one corrupt offset cannot cascade.
  if (offsets.empty()) {
    sink.add(GraphIssueKind::kBadOffsets,
             "offsets array is empty (need n+1 entries)");
    return report;
  }
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  report.num_vertices = n;
  if (offsets.front() != 0) {
    sink.add(GraphIssueKind::kBadOffsets,
             "offsets[0] = " + std::to_string(offsets.front()) +
                 ", expected 0");
  }
  if (offsets.back() != static_cast<std::int64_t>(adjacency.size())) {
    sink.add(GraphIssueKind::kBadOffsets,
             "offsets[n] = " + std::to_string(offsets.back()) +
                 ", expected the adjacency size " +
                 std::to_string(adjacency.size()));
  }
  const auto entries = static_cast<std::int64_t>(adjacency.size());
  std::vector<bool> row_usable(static_cast<std::size_t>(n), false);
  for (VertexId v = 0; v < n; ++v) {
    const std::int64_t begin = offsets[static_cast<std::size_t>(v)];
    const std::int64_t end = offsets[static_cast<std::size_t>(v) + 1];
    if (begin > end) {
      sink.add(GraphIssueKind::kBadOffsets,
               "offsets not monotone at vertex " + std::to_string(v) +
                   " (" + std::to_string(begin) + " > " +
                   std::to_string(end) + ")");
    } else if (begin < 0 || end > entries) {
      sink.add(GraphIssueKind::kBadOffsets,
               "row of vertex " + std::to_string(v) +
                   " reaches outside the adjacency array");
    } else {
      row_usable[static_cast<std::size_t>(v)] = true;
    }
  }

  // Row-local checks: range, self-loops, ordering, duplicates.
  std::vector<VertexId> degrees(static_cast<std::size_t>(n), 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!row_usable[static_cast<std::size_t>(v)]) continue;
    const std::int64_t begin = offsets[static_cast<std::size_t>(v)];
    const std::int64_t end = offsets[static_cast<std::size_t>(v) + 1];
    degrees[static_cast<std::size_t>(v)] =
        static_cast<VertexId>(end - begin);
    VertexId prev = -1;
    bool prev_valid = false;
    for (std::int64_t i = begin; i < end; ++i) {
      const VertexId w = adjacency[static_cast<std::size_t>(i)];
      if (w < 0 || w >= n) {
        sink.add(GraphIssueKind::kOutOfRange,
                 "row of vertex " + std::to_string(v) + ": neighbor " +
                     std::to_string(w) + " out of range [0, " +
                     std::to_string(n) + ")");
        prev_valid = false;
        continue;
      }
      if (w == v) {
        sink.add(GraphIssueKind::kSelfLoop,
                 "self-loop at vertex " + std::to_string(v));
      }
      if (prev_valid) {
        if (w == prev) {
          sink.add(GraphIssueKind::kDuplicateEdge,
                   "duplicate edge {" + std::to_string(v) + ", " +
                       std::to_string(w) + "} in the row of vertex " +
                       std::to_string(v));
        } else if (w < prev) {
          sink.add(GraphIssueKind::kUnsortedRow,
                   "row of vertex " + std::to_string(v) +
                       " not sorted: " + std::to_string(w) + " after " +
                       std::to_string(prev));
        }
      }
      prev = w;
      prev_valid = true;
    }
  }

  // Symmetry: entry w in row v needs v in row w, that is w in row v of
  // the transpose. The transpose of the usable rows' valid entries,
  // built in source order, has sorted rows, so the entries of a sorted
  // row are looked up in their own transposed row by one merge walk. An
  // entry below its predecessor (an unsorted row, or one whose order an
  // out-of-range entry breaks) restarts the walk with a binary search.
  const auto counts_as_edge = [&](VertexId v, VertexId w) {
    return w >= 0 && w < n && w != v &&
           row_usable[static_cast<std::size_t>(w)];
  };
  const auto for_each_edge_entry = [&](auto&& fn) {
    for (VertexId v = 0; v < n; ++v) {
      if (!row_usable[static_cast<std::size_t>(v)]) continue;
      for (std::int64_t i = offsets[static_cast<std::size_t>(v)];
           i < offsets[static_cast<std::size_t>(v) + 1]; ++i) {
        const VertexId w = adjacency[static_cast<std::size_t>(i)];
        if (counts_as_edge(v, w)) fn(v, w);
      }
    }
  };
  std::vector<std::int64_t> transpose_start(static_cast<std::size_t>(n) + 1,
                                            0);
  for_each_edge_entry([&](VertexId, VertexId w) {
    ++transpose_start[static_cast<std::size_t>(w) + 1];
  });
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
    transpose_start[v + 1] += transpose_start[v];
  }
  std::vector<VertexId> transpose(
      static_cast<std::size_t>(transpose_start.back()));
  {
    std::vector<std::int64_t> cursor(transpose_start.begin(),
                                     transpose_start.end() - 1);
    for_each_edge_entry([&](VertexId v, VertexId w) {
      transpose[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(w)]++)] = v;
    });
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!row_usable[static_cast<std::size_t>(v)]) continue;
    const auto reverse_begin =
        transpose.begin() + transpose_start[static_cast<std::size_t>(v)];
    const auto reverse_end =
        transpose.begin() + transpose_start[static_cast<std::size_t>(v) + 1];
    auto walk = reverse_begin;
    VertexId prev = -1;
    for (std::int64_t i = offsets[static_cast<std::size_t>(v)];
         i < offsets[static_cast<std::size_t>(v) + 1]; ++i) {
      const VertexId w = adjacency[static_cast<std::size_t>(i)];
      if (!counts_as_edge(v, w)) continue;  // reported above, or unusable
      if (w < prev) walk = std::lower_bound(reverse_begin, reverse_end, w);
      while (walk != reverse_end && *walk < w) ++walk;
      prev = w;
      if (walk == reverse_end || *walk != w) {
        sink.add(GraphIssueKind::kAsymmetric,
                 "vertex " + std::to_string(w) + " appears in the row of " +
                     std::to_string(v) + " but not vice versa");
      }
    }
  }

  report.degrees = stats_from_degrees(std::move(degrees), entries);
  return report;
}

GraphCheckReport check_graph(const Graph& g, int max_issues) {
  return check_csr(g.csr_offsets(), g.csr_adjacency(), max_issues);
}

std::string format_report(const GraphCheckReport& report) {
  std::ostringstream out;
  out << "graph check: n=" << report.num_vertices
      << " directed_entries=" << report.num_directed_entries << " -> "
      << (report.ok() ? "ok" : "INVALID") << '\n';
  for (const GraphIssue& issue : report.issues) {
    out << "  [" << to_string(issue.kind) << "] " << issue.message << '\n';
  }
  if (report.total_issues >
      static_cast<std::int64_t>(report.issues.size())) {
    out << "  ... and "
        << report.total_issues -
               static_cast<std::int64_t>(report.issues.size())
        << " more issues\n";
  }
  const DegreeStats& d = report.degrees;
  out << "degrees: min=" << d.min_degree << " mean=" << d.mean_degree
      << " p90=" << d.p90_degree << " p99=" << d.p99_degree
      << " max=" << d.max_degree << " isolated=" << d.isolated_vertices;
  if (d.powerlaw_alpha > 0.0) {
    out << " powerlaw_alpha=" << d.powerlaw_alpha;
  }
  out << '\n';
  return out.str();
}

}  // namespace dsnd
