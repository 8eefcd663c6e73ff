// The standalone validator against seeded corruptions: every corruption
// class must come back as its named issue kind (the contract the CLI's
// exit status and the CI ingestion smoke grep rely on), and clean
// graphs from every registered family must pass. The chkgraph binary
// itself is driven on hostile files: it must agree with load_graph.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/validator.hpp"

namespace dsnd {
namespace {

/// A mutable copy of a graph's CSR to corrupt.
struct RawCsr {
  std::vector<std::int64_t> offsets;
  std::vector<VertexId> adjacency;

  explicit RawCsr(const Graph& g)
      : offsets(g.csr_offsets().begin(), g.csr_offsets().end()),
        adjacency(g.csr_adjacency().begin(), g.csr_adjacency().end()) {}

  GraphCheckReport check() const { return check_csr(offsets, adjacency); }
};

Graph seed_graph() { return make_gnp(64, 0.12, 9); }

TEST(Chkgraph, CleanGraphsFromEveryFamilyPass) {
  for (const GraphFamily& family : standard_families()) {
    const GraphCheckReport report = check_graph(family.make(300, 7));
    EXPECT_TRUE(report.ok()) << family.name << ":\n"
                             << format_report(report);
    EXPECT_EQ(report.total_issues, 0) << family.name;
  }
}

TEST(Chkgraph, InjectedSelfLoopIsCaught) {
  const Graph g = seed_graph();
  RawCsr csr(g);
  // Overwrite the first entry of the first non-empty row with the row's
  // own vertex.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto begin = csr.offsets[static_cast<std::size_t>(v)];
    if (begin < csr.offsets[static_cast<std::size_t>(v) + 1]) {
      csr.adjacency[static_cast<std::size_t>(begin)] = v;
      break;
    }
  }
  const GraphCheckReport report = csr.check();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(GraphIssueKind::kSelfLoop))
      << format_report(report);
}

TEST(Chkgraph, DroppedReverseEdgeIsCaught) {
  const Graph g = seed_graph();
  RawCsr csr(g);
  // Remove the last entry of the last non-empty row — its reverse
  // direction survives, so exactly one asymmetry must be reported.
  for (VertexId v = g.num_vertices() - 1; v >= 0; --v) {
    const auto vu = static_cast<std::size_t>(v);
    if (csr.offsets[vu] < csr.offsets[vu + 1]) {
      csr.adjacency.erase(csr.adjacency.begin() +
                          static_cast<std::ptrdiff_t>(csr.offsets[vu + 1]) -
                          1);
      for (std::size_t i = vu + 1; i < csr.offsets.size(); ++i) {
        --csr.offsets[i];
      }
      break;
    }
  }
  const GraphCheckReport report = csr.check();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(GraphIssueKind::kAsymmetric))
      << format_report(report);
  EXPECT_EQ(report.total_issues, 1) << format_report(report);
}

TEST(Chkgraph, DuplicateEdgeIsCaught) {
  const Graph g = seed_graph();
  RawCsr csr(g);
  // Duplicate the first entry of the first row with degree >= 2 by
  // overwriting its second entry (keeps the row sorted).
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto vu = static_cast<std::size_t>(v);
    if (csr.offsets[vu + 1] - csr.offsets[vu] >= 2) {
      const auto begin = static_cast<std::size_t>(csr.offsets[vu]);
      csr.adjacency[begin + 1] = csr.adjacency[begin];
      break;
    }
  }
  const GraphCheckReport report = csr.check();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(GraphIssueKind::kDuplicateEdge))
      << format_report(report);
}

TEST(Chkgraph, OutOfRangeNeighborIsCaught) {
  const Graph g = seed_graph();
  RawCsr csr(g);
  csr.adjacency.back() = g.num_vertices() + 5;
  const GraphCheckReport report = csr.check();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(GraphIssueKind::kOutOfRange))
      << format_report(report);
}

TEST(Chkgraph, UnsortedRowIsCaught) {
  const Graph g = seed_graph();
  RawCsr csr(g);
  // Swap the first two entries of a row with two distinct neighbors.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto vu = static_cast<std::size_t>(v);
    if (csr.offsets[vu + 1] - csr.offsets[vu] >= 2) {
      const auto begin = static_cast<std::size_t>(csr.offsets[vu]);
      std::swap(csr.adjacency[begin], csr.adjacency[begin + 1]);
      break;
    }
  }
  const GraphCheckReport report = csr.check();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(GraphIssueKind::kUnsortedRow))
      << format_report(report);
  // The symmetry pass must still find the unsorted row's reverse edges
  // (a descent restarts its merge walk with a binary search), so no
  // spurious asymmetry.
  EXPECT_FALSE(report.has(GraphIssueKind::kAsymmetric))
      << format_report(report);
}

TEST(Chkgraph, OutOfRangeEntryLeavesNoSpuriousAsymmetry) {
  // Row 1 is {5, -1, 2}: the out-of-range entry hides that 2 follows 5,
  // so the row is not reported unsorted. Every reverse edge exists, and
  // the out-of-range entry must be the only issue; a binary search in
  // row 1 for 5 would miss it.
  const std::vector<std::int64_t> offsets = {0, 0, 3, 4, 4, 4, 5};
  const std::vector<VertexId> adjacency = {5, -1, 2, 1, 1};
  const GraphCheckReport report = check_csr(offsets, adjacency);
  EXPECT_EQ(report.total_issues, 1) << format_report(report);
  EXPECT_TRUE(report.has(GraphIssueKind::kOutOfRange))
      << format_report(report);
}

TEST(Chkgraph, BadOffsetsAreCaughtWithoutCascading) {
  const Graph g = seed_graph();
  {
    RawCsr csr(g);
    csr.offsets[3] = csr.offsets[5] + 1;  // non-monotone interior offset
    const GraphCheckReport report = csr.check();
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(GraphIssueKind::kBadOffsets))
        << format_report(report);
  }
  {
    RawCsr csr(g);
    csr.offsets.back() =
        static_cast<std::int64_t>(csr.adjacency.size()) + 10;
    const GraphCheckReport report = csr.check();
    EXPECT_TRUE(report.has(GraphIssueKind::kBadOffsets))
        << format_report(report);
  }
  {
    const GraphCheckReport report = check_csr({}, {});
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(GraphIssueKind::kBadOffsets));
  }
}

TEST(Chkgraph, IssueCapKeepsCounting) {
  // A fully self-looped "graph": n issues with a cap of 4 — the list is
  // capped, the total is not.
  const VertexId n = 32;
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<VertexId> adjacency(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    offsets[static_cast<std::size_t>(v)] = v;
    adjacency[static_cast<std::size_t>(v)] = v;
  }
  offsets[static_cast<std::size_t>(n)] = n;
  const GraphCheckReport report = check_csr(offsets, adjacency, 4);
  EXPECT_EQ(report.issues.size(), 4u);
  EXPECT_EQ(report.total_issues, n);
}

TEST(Chkgraph, DegreeStatsSummarizeTheDistribution) {
  // A star: one hub of degree n-1, n-1 leaves of degree 1.
  const VertexId n = 100;
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.push_back({0, v});
  const Graph star = Graph::from_edges(n, std::move(edges));
  const DegreeStats stats = degree_stats(star);
  EXPECT_EQ(stats.min_degree, 1);
  EXPECT_EQ(stats.max_degree, n - 1);
  EXPECT_EQ(stats.isolated_vertices, 0);
  EXPECT_NEAR(stats.mean_degree, 2.0 * (n - 1) / n, 1e-9);
  EXPECT_EQ(stats.p90_degree, 1);
  // Histogram: bucket 1 holds the degree-1 leaves, the top bucket the hub.
  ASSERT_GE(stats.histogram.size(), 2u);
  EXPECT_EQ(stats.histogram[0], 0);
  EXPECT_EQ(stats.histogram[1], n - 1);
  EXPECT_EQ(stats.histogram.back(), 1);
}

TEST(Chkgraph, IssueKindNamesAreStable) {
  EXPECT_STREQ(to_string(GraphIssueKind::kBadOffsets), "bad-offsets");
  EXPECT_STREQ(to_string(GraphIssueKind::kOutOfRange), "out-of-range");
  EXPECT_STREQ(to_string(GraphIssueKind::kSelfLoop), "self-loop");
  EXPECT_STREQ(to_string(GraphIssueKind::kUnsortedRow), "unsorted-row");
  EXPECT_STREQ(to_string(GraphIssueKind::kDuplicateEdge), "duplicate-edge");
  EXPECT_STREQ(to_string(GraphIssueKind::kAsymmetric), "asymmetric");
}

struct ChkgraphRun {
  int exit_code = -1;
  std::string out;
};

/// Runs chkgraph on `path` through the shell, after `shell_prefix`.
ChkgraphRun run_chkgraph(const std::string& path,
                         const std::string& shell_prefix = "") {
  const std::string command = shell_prefix + "'" + CHKGRAPH_PATH + "' '" +
                              path + "' 2>&1";
  ChkgraphRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot start " << command;
    return run;
  }
  for (int c = std::fgetc(pipe); c != EOF; c = std::fgetc(pipe)) {
    run.out.push_back(static_cast<char>(c));
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

TEST(Chkgraph, BinaryAgreesWithLoadGraph) {
  // Exit 0 iff load_graph loads the file, and then with its fingerprint;
  // exit 2 iff the library parse throws; exit 1 for content issues.
  struct Case {
    std::string name;
    std::string text;
    int expected_exit;
  };
  std::vector<Case> cases = {
      {"self_loop.el", "3 2\n0 1\n2 2\n", 1},
      {"asymmetric.graph", "3 1\n2\n3\n\n", 1},
      {"header_flags.graph", "2 1 011\n2\n1\n", 2},
      {"wrapping_neighbor.graph", "2 1\n4294967298\n1\n", 2},
      {"col_problem.dimacs", "p col 3 1\ne 1 2\n", 2},
      {"missing_edge.dimacs", "p edge 3 2\ne 1 2\n", 1},
      {"growing_problem.dimacs", "p edge 2 1\ne 1 2\np edge 5 1\n", 2},
      {"shrinking_problem.dimacs", "p edge 5 1\ne 4 5\np edge 2 1\n", 2},
      {"wrapping_endpoint.el", "2 1\n0 4294967297\n", 2},
      {"int32_endpoint.el", "3 1\n0 3000000000\n", 2},
      {"huge_m.el", "1 2000000000000000000\n", 2},
      {"huge_m.graph", "1 2000000000000000000\n\n", 1},
  };
  const Graph clean = family_by_name("small-world").make(200, 3);
  std::ostringstream metis;
  std::ostringstream edge_list;
  write_metis(metis, clean);
  write_edge_list(edge_list, clean);
  cases.push_back({"clean.graph", metis.str(), 0});
  cases.push_back({"clean.el", edge_list.str(), 0});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = testing::TempDir() + "dsnd_chkgraph_" +
                             std::to_string(getpid()) + "_" + c.name;
    std::ofstream(path) << c.text;
    std::optional<Graph> loaded;
    try {
      loaded = load_graph(path);
    } catch (const std::runtime_error&) {
    }
    bool parse_throws = false;
    try {
      std::ifstream in(path);
      parse_graph(in, format_of_path(path));
    } catch (const std::runtime_error&) {
      parse_throws = true;
    }
    const ChkgraphRun run = run_chkgraph(path);
    EXPECT_EQ(run.exit_code, c.expected_exit) << run.out;
    EXPECT_EQ(run.exit_code == 0, loaded.has_value()) << run.out;
    EXPECT_EQ(run.exit_code == 2, parse_throws) << run.out;
    if (loaded) {
      std::ostringstream fingerprint;
      fingerprint << "fingerprint: " << std::hex << std::setfill('0')
                  << std::setw(16) << loaded->fingerprint() << '\n';
      EXPECT_NE(run.out.find(fingerprint.str()), std::string::npos)
          << run.out;
      EXPECT_EQ(*loaded, clean);
    }
    std::remove(path.c_str());
  }
}

TEST(Chkgraph, UnallocatableGraphExitsTwo) {
  // "200000000 0" is a legal edge list whose n + 1 offsets take 1.6 GB:
  // under a 1 GB address-space limit the parse throws std::bad_alloc,
  // which chkgraph reports as unreadable. A run that lost the limit
  // would still cost 1.6 GB, not more. Sanitizer runtimes reserve more
  // address space than the limit allows, so they cannot start under it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes cannot start under ulimit -v";
#endif
  const std::string path = testing::TempDir() + "dsnd_chkgraph_" +
                           std::to_string(getpid()) + "_huge_n.el";
  std::ofstream(path) << "200000000 0\n";
  const ChkgraphRun run = run_chkgraph(path, "ulimit -v 1000000 && ");
  EXPECT_EQ(run.exit_code, 2) << run.out;
  EXPECT_NE(run.out.find("cannot allocate the graph the file declares"),
            std::string::npos)
      << run.out;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsnd
