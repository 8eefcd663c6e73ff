#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/validator.hpp"

namespace dsnd {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

std::ifstream open_for_reading(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open for reading: " + path);
  return in;
}

void write_file(const std::string& path,
                void (*writer)(std::ostream&, const Graph&),
                const Graph& g) {
  std::ofstream out(path);
  if (!out) fail("cannot open for writing: " + path);
  writer(out, g);
  if (!out) fail("write failed: " + path);
}

/// Range-checks a header so that every vertex id fits a VertexId and 2m
/// an int64. `where()`, like every location below, is built on failure.
template <typename Where>
void check_header(std::int64_t n, std::int64_t m, const Where& where) {
  constexpr std::int64_t kMaxN = std::numeric_limits<VertexId>::max();
  constexpr std::int64_t kMaxM = std::numeric_limits<std::int64_t>::max() / 2;
  if (n < 0 || n > kMaxN || m < 0 || m > kMaxM) {
    fail(where() + ": n = " + std::to_string(n) + ", m = " +
         std::to_string(m) + " outside 0 <= n <= " + std::to_string(kMaxN) +
         ", 0 <= m <= " + std::to_string(kMaxM));
  }
}

/// A file's endpoint, counted from `base`, as a vertex id in [0, n); one
/// outside is a format error, so no value is ever narrowed.
template <typename Where>
VertexId vertex_id(std::int64_t value, std::int64_t base, std::int64_t n,
                   const Where& where) {
  if (value < base || value - base >= n) {
    fail(where() + ": endpoint " + std::to_string(value) +
         " out of range [" + std::to_string(base) + ", " +
         std::to_string(n + base) + ")");
  }
  return static_cast<VertexId>(value - base);
}

ParsedGraph parse_edge_list(std::istream& in) {
  std::int64_t n = 0;
  std::int64_t m = 0;
  if (!(in >> n >> m)) fail("edge list: missing or malformed \"n m\" header");
  check_header(n, m, [] { return std::string("edge list: header"); });
  std::vector<Edge> edges;
  for (std::int64_t i = 1; i <= m; ++i) {
    const auto where = [&] {
      return "edge list: edge " + std::to_string(i) + " of " +
             std::to_string(m);
    };
    std::int64_t u = 0;
    std::int64_t v = 0;
    if (!(in >> u >> v)) {
      fail(where() + ": missing or malformed (truncated edge section)");
    }
    edges.push_back({vertex_id(u, 0, n, where), vertex_id(v, 0, n, where)});
  }
  ParsedGraph parsed;
  parsed.header_edges = m;
  edge_rows(static_cast<VertexId>(n), {&edges, 1}, parsed.offsets,
            parsed.adjacency);
  return parsed;
}

ParsedGraph parse_dimacs(std::istream& in) {
  std::int64_t n = 0;
  std::int64_t m = 0;
  bool have_header = false;
  std::vector<Edge> edges;
  std::string line;
  std::int64_t line_number = 0;
  const auto where = [&] {
    return "dimacs: line " + std::to_string(line_number);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    if (tag == 'p') {
      if (have_header) fail(where() + ": repeated problem line");
      std::string format;
      if (!(fields >> format >> n >> m) || format != "edge") {
        fail(where() + ": malformed problem line");
      }
      check_header(n, m, where);
      have_header = true;
    } else if (tag == 'e') {
      if (!have_header) fail(where() + ": edge before the problem line");
      std::int64_t u = 0;
      std::int64_t v = 0;
      if (!(fields >> u >> v)) fail(where() + ": malformed edge line");
      edges.push_back(
          {vertex_id(u, 1, n, where), vertex_id(v, 1, n, where)});
    } else {
      fail(where() + ": unknown line tag '" + std::string(tag != 0, tag) + "'");
    }
  }
  if (!have_header) fail("dimacs: missing problem line");
  ParsedGraph parsed;
  parsed.header_edges = m;
  edge_rows(static_cast<VertexId>(n), {&edges, 1}, parsed.offsets,
            parsed.adjacency);
  return parsed;
}

ParsedGraph parse_metis(std::istream& in) {
  std::string line;
  std::int64_t line_number = 0;
  const auto where = [&] {
    return "metis: line " + std::to_string(line_number);
  };
  const auto next_content_line = [&] {
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty() || line[0] != '%') return true;  // '%': comment
    }
    return false;
  };
  if (!next_content_line()) fail("metis: truncated file (header missing)");
  ParsedGraph parsed;
  std::int64_t n = 0;
  std::istringstream header(line);
  if (!(header >> n >> parsed.header_edges)) {
    fail(where() + ": malformed \"n m\" header");
  }
  if (std::string flags; header >> flags) {
    fail(where() + ": unsupported header flags \"" + flags +
         "\" (only unweighted graphs)");
  }
  check_header(n, parsed.header_edges, where);
  // Rows as written, 1-indexed in the file; METIS rows may be unsorted.
  parsed.offsets.push_back(0);
  for (std::int64_t v = 0; v < n; ++v) {
    if (!next_content_line()) {
      fail("metis: truncated file (adjacency row for vertex " +
           std::to_string(v) + " missing)");
    }
    std::istringstream row(line);
    std::int64_t neighbor = 0;
    while (row >> neighbor) {
      parsed.adjacency.push_back(vertex_id(neighbor, 1, n, where));
    }
    if (!row.eof()) fail(where() + ": malformed adjacency entry");
    std::sort(parsed.adjacency.begin() + parsed.offsets.back(),
              parsed.adjacency.end());
    parsed.offsets.push_back(
        static_cast<std::int64_t>(parsed.adjacency.size()));
  }
  return parsed;
}

/// The one gate: the parse, check_csr's first issue, the header's edge
/// count, then Graph::from_csr (whose checks can no longer fail).
Graph read_graph(std::istream& in, GraphFormat format) {
  static constexpr const char* kPrefix[] = {"edge list: ", "dimacs: ",
                                            "metis: "};
  ParsedGraph parsed = parse_graph(in, format);
  const std::string prefix = kPrefix[static_cast<int>(format)];
  const GraphCheckReport report =
      check_csr(parsed.offsets, parsed.adjacency, /*max_issues=*/1);
  if (!report.ok()) fail(prefix + report.issues.front().message);
  const std::string count_issue = edge_count_issue(parsed);
  if (!count_issue.empty()) fail(prefix + count_issue);
  return Graph::from_csr(std::move(parsed.offsets),
                         std::move(parsed.adjacency));
}

}  // namespace

ParsedGraph parse_graph(std::istream& in, GraphFormat format) {
  if (format == GraphFormat::kMetis) return parse_metis(in);
  if (format == GraphFormat::kDimacs) return parse_dimacs(in);
  return parse_edge_list(in);
}

std::string edge_count_issue(const ParsedGraph& parsed) {
  const auto entries = static_cast<std::int64_t>(parsed.adjacency.size());
  if (entries == 2 * parsed.header_edges) return {};
  return "header promises " + std::to_string(parsed.header_edges) +
         " edges (" + std::to_string(2 * parsed.header_edges) +
         " adjacency entries), found " + std::to_string(entries);
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge(
      [&out](VertexId u, VertexId v) { out << u << ' ' << v << '\n'; });
}

Graph read_edge_list(std::istream& in) {
  return read_graph(in, GraphFormat::kEdgeList);
}

void write_dimacs(std::ostream& out, const Graph& g) {
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge([&out](VertexId u, VertexId v) {
    out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  });
}

Graph read_dimacs(std::istream& in) {
  return read_graph(in, GraphFormat::kDimacs);
}

void write_metis(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    for (const VertexId w : g.neighbors(v)) {
      if (!first) out << ' ';
      out << (w + 1);  // METIS vertices are 1-indexed
      first = false;
    }
    out << '\n';
  }
}

Graph read_metis(std::istream& in) {
  return read_graph(in, GraphFormat::kMetis);
}

void save_edge_list(const std::string& path, const Graph& g) {
  write_file(path, write_edge_list, g);
}

Graph load_edge_list(const std::string& path) {
  std::ifstream in = open_for_reading(path);
  return read_edge_list(in);
}

void save_metis(const std::string& path, const Graph& g) {
  write_file(path, write_metis, g);
}

GraphFormat format_of_path(const std::string& path) {
  if (path.ends_with(".graph") || path.ends_with(".metis")) {
    return GraphFormat::kMetis;
  }
  if (path.ends_with(".dimacs") || path.ends_with(".col")) {
    return GraphFormat::kDimacs;
  }
  return GraphFormat::kEdgeList;
}

Graph load_graph(const std::string& path) {
  std::ifstream in = open_for_reading(path);
  return read_graph(in, format_of_path(path));
}

}  // namespace dsnd
