#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/assert.hpp"

namespace dsnd {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

/// "edge 3 of 7" / "line 12" context strings keep every reader error
/// actionable without the caller re-parsing the file.
std::string edge_context(std::int64_t index, std::int64_t total) {
  return "edge " + std::to_string(index + 1) + " of " +
         std::to_string(total);
}

void check_endpoint_range(VertexId endpoint, VertexId n,
                          const std::string& where,
                          const std::string& format) {
  if (endpoint < 0 || endpoint >= n) {
    fail(format + ": " + where + ": endpoint " + std::to_string(endpoint) +
         " out of range [0, " + std::to_string(n) + ")");
  }
}

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge(
      [&out](VertexId u, VertexId v) { out << u << ' ' << v << '\n'; });
}

Graph read_edge_list(std::istream& in) {
  VertexId n = 0;
  std::int64_t m = 0;
  if (!(in >> n >> m)) {
    fail("edge list: missing or malformed \"n m\" header");
  }
  if (n < 0) fail("edge list: negative vertex count in header");
  if (m < 0) fail("edge list: negative edge count in header");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    Edge e;
    if (!(in >> e.u >> e.v)) {
      fail("edge list: truncated edge section (" + edge_context(i, m) +
           " missing or malformed)");
    }
    check_endpoint_range(e.u, n, edge_context(i, m), "edge list");
    check_endpoint_range(e.v, n, edge_context(i, m), "edge list");
    if (e.u == e.v) {
      fail("edge list: " + edge_context(i, m) + ": self-loop at vertex " +
           std::to_string(e.u));
    }
    edges.push_back(e);
  }
  try {
    return Graph::from_edges(n, std::move(edges));
  } catch (const std::invalid_argument& error) {
    fail(std::string("edge list: ") + error.what());
  }
}

void write_dimacs(std::ostream& out, const Graph& g) {
  out << "p edge " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  g.for_each_edge([&out](VertexId u, VertexId v) {
    out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  });
}

Graph read_dimacs(std::istream& in) {
  VertexId n = 0;
  std::int64_t m = 0;
  std::vector<Edge> edges;
  std::string line;
  bool have_header = false;
  std::int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream fields(line);
    char tag = 0;
    fields >> tag;
    if (tag == 'p') {
      std::string format;
      if (!(fields >> format >> n >> m) || format != "edge" || n < 0 ||
          m < 0) {
        fail("dimacs: line " + std::to_string(line_number) +
             ": malformed problem line");
      }
      have_header = true;
    } else if (tag == 'e') {
      if (!have_header) {
        fail("dimacs: line " + std::to_string(line_number) +
             ": edge before the problem line");
      }
      Edge e;
      if (!(fields >> e.u >> e.v)) {
        fail("dimacs: line " + std::to_string(line_number) +
             ": malformed edge line");
      }
      --e.u;
      --e.v;
      const std::string where = "line " + std::to_string(line_number);
      check_endpoint_range(e.u, n, where, "dimacs");
      check_endpoint_range(e.v, n, where, "dimacs");
      edges.push_back(e);
    } else {
      fail("dimacs: line " + std::to_string(line_number) +
           ": unknown line tag '" + std::string(1, tag) + "'");
    }
  }
  if (!have_header) fail("dimacs: missing problem line");
  if (static_cast<std::int64_t>(edges.size()) != m) {
    fail("dimacs: header promises " + std::to_string(m) + " edges, found " +
         std::to_string(edges.size()));
  }
  try {
    return Graph::from_edges(n, std::move(edges));
  } catch (const std::invalid_argument& error) {
    fail(std::string("dimacs: ") + error.what());
  }
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
  std::string line;
  std::int64_t line_number = 0;
  auto next_content_line = [&](const char* expect) {
    while (std::getline(in, line)) {
      ++line_number;
      if (!line.empty() && line[0] == '%') continue;  // comment
      return true;
    }
    fail(std::string("metis: truncated file (") + expect + " missing)");
  };

  next_content_line("header");
  VertexId n = 0;
  std::int64_t m = 0;
  {
    std::istringstream header(line);
    if (!(header >> n >> m) || n < 0 || m < 0) {
      fail("metis: line " + std::to_string(line_number) +
           ": malformed \"n m\" header");
    }
    std::string extra;
    if (header >> extra) {
      fail("metis: line " + std::to_string(line_number) +
           ": unsupported header flags \"" + extra +
           "\" (only unweighted graphs)");
    }
  }

  // Adjacency rows exactly as written (1-indexed in the file).
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> adjacency;
  adjacency.reserve(static_cast<std::size_t>(2 * m));
  for (VertexId v = 0; v < n; ++v) {
    next_content_line(("adjacency row for vertex " + std::to_string(v))
                          .c_str());
    std::istringstream row(line);
    std::int64_t neighbor = 0;
    while (row >> neighbor) {
      const std::string where = "line " + std::to_string(line_number);
      if (neighbor < 1 || neighbor > n) {
        fail("metis: " + where + ": neighbor " + std::to_string(neighbor) +
             " out of range [1, " + std::to_string(n) + "]");
      }
      const auto w = static_cast<VertexId>(neighbor - 1);
      if (w == v) {
        fail("metis: " + where + ": self-loop at vertex " +
             std::to_string(v));
      }
      adjacency.push_back(w);
    }
    if (!row.eof()) {
      fail("metis: line " + std::to_string(line_number) +
           ": malformed adjacency entry");
    }
    offsets[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(adjacency.size());
  }
  if (static_cast<std::int64_t>(adjacency.size()) != 2 * m) {
    fail("metis: header promises " + std::to_string(m) +
         " undirected edges (" + std::to_string(2 * m) +
         " adjacency entries), found " + std::to_string(adjacency.size()));
  }

  // METIS rows may be unsorted; sort them, then reject duplicates and
  // verify symmetry (v in row u requires u in row v) with binary search.
  for (VertexId v = 0; v < n; ++v) {
    const auto begin =
        adjacency.begin() +
        static_cast<std::ptrdiff_t>(offsets[static_cast<std::size_t>(v)]);
    const auto end = adjacency.begin() +
                     static_cast<std::ptrdiff_t>(
                         offsets[static_cast<std::size_t>(v) + 1]);
    std::sort(begin, end);
    const auto dup = std::adjacent_find(begin, end);
    if (dup != end) {
      fail("metis: duplicate edge {" + std::to_string(v) + ", " +
           std::to_string(*dup) + "} in the row of vertex " +
           std::to_string(v));
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    for (std::int64_t i = offsets[static_cast<std::size_t>(v)];
         i < offsets[static_cast<std::size_t>(v) + 1]; ++i) {
      const VertexId w = adjacency[static_cast<std::size_t>(i)];
      const auto begin =
          adjacency.begin() +
          static_cast<std::ptrdiff_t>(offsets[static_cast<std::size_t>(w)]);
      const auto end = adjacency.begin() +
                       static_cast<std::ptrdiff_t>(
                           offsets[static_cast<std::size_t>(w) + 1]);
      if (!std::binary_search(begin, end, v)) {
        fail("metis: asymmetric adjacency: vertex " + std::to_string(w) +
             " appears in the row of " + std::to_string(v) +
             " but not vice versa");
      }
    }
  }
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

namespace {

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

bool has_extension(const std::string& path, const std::string& ext) {
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

}  // namespace

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

Graph load_graph(const std::string& path) {
  std::ifstream in = open_for_reading(path);
  if (has_extension(path, ".graph") || has_extension(path, ".metis")) {
    return read_metis(in);
  }
  if (has_extension(path, ".dimacs") || has_extension(path, ".col")) {
    return read_dimacs(in);
  }
  return read_edge_list(in);
}

}  // namespace dsnd
