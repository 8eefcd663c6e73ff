// chkgraph — standalone graph-file validator (KaGen chkgraph-style).
//
//   chkgraph [--format edgelist|metis|dimacs] <path>
//
// Runs the library's one parse (graph/io.hpp), then the full issue list
// of the library validator (graph/validator.hpp) — symmetry, self-loops,
// duplicates — and the header's edge-count check, followed by the
// degree-distribution summary. The library readers run the same parse and
// the same checks, so a file chkgraph passes is a file load_graph loads,
// and the fingerprint printed for it is the loaded graph's.
// Exit status: 0 = valid, 1 = issues found, 2 = unreadable/unparseable,
// or a graph too large to allocate.
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/io.hpp"
#include "graph/validator.hpp"

namespace {

[[noreturn]] void parse_fail(const std::string& message) {
  std::cerr << "chkgraph: " << message << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  std::string format_flag;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      format_flag = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: chkgraph [--format edgelist|metis|dimacs] "
                   "<path>\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      parse_fail("unknown flag " + arg);
    } else {
      path = arg;
    }
  }
  if (path.empty()) parse_fail("usage: chkgraph [--format ...] <path>");
  dsnd::GraphFormat format = dsnd::format_of_path(path);
  if (format_flag == "metis") {
    format = dsnd::GraphFormat::kMetis;
  } else if (format_flag == "dimacs") {
    format = dsnd::GraphFormat::kDimacs;
  } else if (format_flag == "edgelist") {
    format = dsnd::GraphFormat::kEdgeList;
  } else if (!format_flag.empty()) {
    parse_fail("unknown format " + format_flag +
               " (expected edgelist, metis, or dimacs)");
  }

  std::ifstream in(path);
  if (!in) parse_fail("cannot open " + path);
  dsnd::ParsedGraph parsed;
  try {
    parsed = dsnd::parse_graph(in, format);
  } catch (const std::runtime_error& error) {
    parse_fail(error.what());
  }
  const dsnd::GraphCheckReport report =
      dsnd::check_csr(parsed.offsets, parsed.adjacency);
  const std::string count_issue = dsnd::edge_count_issue(parsed);
  std::cout << path << ": " << dsnd::format_report(report);
  if (!count_issue.empty()) std::cout << "edge count: " << count_issue << '\n';
  if (!report.ok() || !count_issue.empty()) return 1;
  // The fingerprint is what the service layer keys its result cache on,
  // so callers can predict cache behavior from the file alone.
  const dsnd::Graph g = dsnd::Graph::from_csr(std::move(parsed.offsets),
                                              std::move(parsed.adjacency));
  std::cout << "fingerprint: " << std::hex << std::setfill('0')
            << std::setw(16) << g.fingerprint() << '\n';
  return 0;
} catch (const std::bad_alloc&) {
  parse_fail("cannot allocate the graph the file declares");
}
