#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/generators.hpp"
#include "graph/validator.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

TEST(Io, EdgeListRoundTrip) {
  const Graph g = make_grid2d(4, 5);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph back = read_edge_list(buffer);
  EXPECT_EQ(g, back);
}

TEST(Io, EdgeListEmptyGraph) {
  const Graph g = Graph::from_edges(3, {});
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const Graph back = read_edge_list(buffer);
  EXPECT_EQ(back.num_vertices(), 3);
  EXPECT_EQ(back.num_edges(), 0);
}

TEST(Io, EdgeListRejectsTruncated) {
  std::stringstream buffer("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(buffer), std::runtime_error);
}

TEST(Io, EdgeListRejectsMissingHeader) {
  std::stringstream buffer("");
  EXPECT_THROW(read_edge_list(buffer), std::runtime_error);
}

TEST(Io, DimacsRoundTrip) {
  const Graph g = make_cycle(8);
  std::stringstream buffer;
  write_dimacs(buffer, g);
  const Graph back = read_dimacs(buffer);
  EXPECT_EQ(g, back);
}

TEST(Io, DimacsSkipsComments) {
  std::stringstream buffer("c a comment\np edge 3 1\nc more\ne 1 2\n");
  const Graph g = read_dimacs(buffer);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Io, DimacsRejectsCountMismatch) {
  std::stringstream buffer("p edge 3 2\ne 1 2\n");
  EXPECT_THROW(read_dimacs(buffer), std::runtime_error);
}

TEST(Io, DimacsRejectsUnknownTag) {
  std::stringstream buffer("p edge 2 0\nx nonsense\n");
  EXPECT_THROW(read_dimacs(buffer), std::runtime_error);
}

TEST(Io, FileRoundTrip) {
  const Graph g = make_gnp(30, 0.2, 4);
  const std::string path = testing::TempDir() + "dsnd_io_test.txt";
  save_edge_list(path, g);
  const Graph back = load_edge_list(path);
  EXPECT_EQ(g, back);
  std::remove(path.c_str());
}

TEST(Io, LoadMissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/definitely/missing.txt"),
               std::runtime_error);
}

/// Expects `reader` to throw and the message to contain `needle` — the
/// diagnostics contract: every rejection names the offending location.
template <typename Fn>
void expect_rejection(Fn&& reader, const std::string& needle) {
  try {
    reader();
    FAIL() << "expected a rejection mentioning \"" << needle << "\"";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message was: " << error.what();
  }
}

TEST(Io, MetisRoundTrip) {
  const Graph g = make_grid2d(5, 4);
  std::stringstream buffer;
  write_metis(buffer, g);
  const Graph back = read_metis(buffer);
  EXPECT_EQ(g, back);
}

TEST(Io, MetisSkipsComments) {
  std::stringstream buffer("% header comment\n3 2\n2 3\n1\n1\n");
  const Graph g = read_metis(buffer);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Io, MetisRejectsTruncatedRows) {
  std::stringstream buffer("3 2\n2 3\n1\n");  // row for vertex 3 missing
  expect_rejection([&] { read_metis(buffer); }, "truncated");
}

TEST(Io, MetisRejectsOutOfRangeNeighbor) {
  std::stringstream buffer("3 2\n2 9\n1\n\n");
  expect_rejection([&] { read_metis(buffer); }, "out of range");
}

TEST(Io, MetisRejectsAsymmetricRows) {
  // Vertex 1 lists 2 but vertex 2's row lists 3 instead of 1: the
  // dropped reverse edge must be called out by name.
  std::stringstream buffer("3 1\n2\n3\n\n");
  expect_rejection([&] { read_metis(buffer); }, "not vice versa");
}

TEST(Io, MetisRejectsSelfLoopAndDuplicate) {
  std::stringstream self_loop("2 1\n1 2\n1\n");
  expect_rejection([&] { read_metis(self_loop); }, "self-loop");
  std::stringstream duplicate("2 2\n2 2\n1 1\n");
  expect_rejection([&] { read_metis(duplicate); }, "duplicate");
}

TEST(Io, MetisRejectsWeightedHeaders) {
  std::stringstream buffer("2 1 011\n2\n1\n");
  expect_rejection([&] { read_metis(buffer); }, "header flags");
}

TEST(Io, EdgeListRejectsOutOfRangeEndpointWithEdgeIndex) {
  std::stringstream buffer("3 2\n0 1\n1 7\n");
  expect_rejection([&] { read_edge_list(buffer); }, "edge 2 of 2");
}

TEST(Io, EdgeListRejectsSelfLoop) {
  std::stringstream buffer("3 1\n2 2\n");
  expect_rejection([&] { read_edge_list(buffer); }, "self-loop");
}

TEST(Io, EdgeListRejectsNegativeHeader) {
  std::stringstream negative_n("-3 1\n0 1\n");
  EXPECT_THROW(read_edge_list(negative_n), std::runtime_error);
  std::stringstream negative_m("3 -1\n");
  EXPECT_THROW(read_edge_list(negative_m), std::runtime_error);
}

TEST(Io, AllGeneratorFamiliesRoundTripThroughBothFormats) {
  // Every registered family — including the scale-free ones — must
  // survive write -> read bit-identically in both on-disk formats.
  for (const GraphFamily& family : standard_families()) {
    const Graph g = family.make(200, 11);
    {
      std::stringstream buffer;
      write_edge_list(buffer, g);
      EXPECT_EQ(read_edge_list(buffer), g) << family.name << " edge list";
    }
    {
      std::stringstream buffer;
      write_metis(buffer, g);
      EXPECT_EQ(read_metis(buffer), g) << family.name << " metis";
    }
  }
}

TEST(Io, LoadGraphDispatchesOnExtension) {
  const Graph g = make_hyperbolic(300, 8.0, 2.8, 3);
  const std::string metis_path = testing::TempDir() + "dsnd_io_test.graph";
  const std::string edge_path = testing::TempDir() + "dsnd_io_test.el";
  save_metis(metis_path, g);
  save_edge_list(edge_path, g);
  EXPECT_EQ(load_graph(metis_path), g);
  EXPECT_EQ(load_graph(edge_path), g);
  std::remove(metis_path.c_str());
  std::remove(edge_path.c_str());
}

TEST(Io, HugeHeaderEdgeCountsThrowRuntimeError) {
  // 2m fits an int64, so nothing is reserved from it: the edge list is
  // truncated at its first edge, the METIS rows miss the promised count.
  std::stringstream edge_list("1 2000000000000000000\n");
  expect_rejection([&] { read_edge_list(edge_list); }, "edge 1 of");
  std::stringstream metis("1 2000000000000000000\n\n");
  expect_rejection([&] { read_metis(metis); }, "header promises");
}

TEST(Io, EdgeListEndpointPastInt32IsOutOfRange) {
  for (const char* needle : {"out of range", "edge 1 of 1"}) {
    std::stringstream buffer("3 1\n0 3000000000\n");
    expect_rejection([&] { read_edge_list(buffer); }, needle);
  }
}

TEST(Io, DimacsRejectsRepeatedProblemLine) {
  // A second problem line may neither grow nor shrink the graph.
  std::stringstream grows("p edge 2 1\ne 1 2\np edge 5 1\n");
  expect_rejection([&] { read_dimacs(grows); }, "line 3");
  std::stringstream shrinks("p edge 5 1\ne 4 5\np edge 2 1\n");
  expect_rejection([&] { read_dimacs(shrinks); }, "line 3");
}

TEST(Io, DimacsBlankLineNamesAnEmptyTag) {
  // No NUL byte cuts the message short.
  std::stringstream buffer("p edge 2 0\n   \n");
  expect_rejection([&] { read_dimacs(buffer); }, "line 2: unknown line tag ''");
}

/// The largest vertex count a header of `text` declares, read the way
/// the parser reads it (0 where none parses).
std::int64_t declared_vertices(const std::string& text, GraphFormat format) {
  std::istringstream in(text);
  std::int64_t n = 0;
  if (format == GraphFormat::kEdgeList) return in >> n ? n : 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    if (format == GraphFormat::kMetis) {
      if (!line.empty() && line[0] == '%') continue;
      return fields >> n ? n : 0;
    }
    char tag = 0;
    std::string kind;
    std::int64_t declared = 0;
    if (!line.empty() && line[0] != 'c' &&
        fields >> tag >> kind >> declared && tag == 'p') {
      n = std::max(n, declared);
    }
  }
  return n;
}

/// One to three seeded mutations of a well-formed file: byte
/// substitutions, range deletions, truncation, line duplication and
/// deletion, and insertions of hostile numbers or a problem line.
std::string mutate(std::string text, SplitMix64& rng) {
  static const std::string kBytes = "0123456789 \n-%cpe";
  static const char* const kTokens[] = {"4294967298",
                                        "99999999999999999999", "-1",
                                        "2147483648", "p edge 3 1"};
  static const char* const kSeparators[] = {"", " ", "\n"};
  const auto pick = [&](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  for (std::size_t r = 1 + pick(3); r > 0; --r) {
    const std::size_t at = pick(text.size() + 1);
    const std::size_t line_begin =
        at == 0 ? 0 : text.rfind('\n', at - 1) + 1;  // npos + 1 == 0
    const std::size_t line_end = std::min(text.find('\n', at), text.size());
    const std::string line =
        text.substr(line_begin, line_end - line_begin) + "\n";
    switch (pick(6)) {
      case 0:
        if (at < text.size()) text[at] = kBytes[pick(kBytes.size())];
        break;
      case 1: text.erase(at, 1 + pick(8)); break;
      case 2: text.resize(at); break;
      case 3: text.insert(line_begin, line); break;
      case 4: text.erase(line_begin, line.size()); break;
      default:
        text.insert(at, std::string(kTokens[pick(5)]) + kSeparators[pick(3)]);
    }
  }
  return text;
}

TEST(Io, MutatedFilesParseOrFailWithANamedReason) {
  // Every reader, on thousands of mutants of every family in every
  // format: (a) returns a graph or throws std::runtime_error naming its
  // format; (b) an accepted graph is valid and survives a write; (c) it
  // accepts exactly when the parse succeeds, check_csr finds no issue
  // and the header's edge count matches (chkgraph's exit 0).
  struct Format {
    GraphFormat format;
    const char* prefix;
    void (*write)(std::ostream&, const Graph&);
    Graph (*read)(std::istream&);
  };
  const Format formats[] = {
      {GraphFormat::kEdgeList, "edge list: ", write_edge_list,
       read_edge_list},
      {GraphFormat::kDimacs, "dimacs: ", write_dimacs, read_dimacs},
      {GraphFormat::kMetis, "metis: ", write_metis, read_metis}};
  SplitMix64 rng(2016);
  int mutants = 0;
  int accepted = 0;
  for (const GraphFamily& family : standard_families()) {
    const Graph g = family.make(60, 5);
    for (const Format& f : formats) {
      std::ostringstream clean;
      f.write(clean, g);
      for (int i = 0; i < 120; ++i) {
        const std::string text = mutate(clean.str(), rng);
        // n isolated vertices are a legal file; capping n is not the
        // reader's job, so a mutant may not ask for a huge graph here.
        if (declared_vertices(text, f.format) > 1000000) continue;
        ++mutants;
        SCOPED_TRACE(family.name + " " + f.prefix + "mutant:\n" + text);
        std::optional<Graph> graph;
        try {
          std::istringstream in(text);
          graph = f.read(in);
        } catch (const std::runtime_error& error) {
          EXPECT_EQ(std::string(error.what()).rfind(f.prefix, 0), 0u)
              << error.what();
        }
        std::optional<Graph> passed;  // what chkgraph passes
        try {
          std::istringstream in(text);
          ParsedGraph parsed = parse_graph(in, f.format);
          if (check_csr(parsed.offsets, parsed.adjacency).ok() &&
              edge_count_issue(parsed).empty()) {
            passed = Graph::from_csr(std::move(parsed.offsets),
                                     std::move(parsed.adjacency));
          }
        } catch (const std::runtime_error&) {
        }
        ASSERT_EQ(graph.has_value(), passed.has_value());
        if (!graph) continue;
        ++accepted;
        EXPECT_EQ(*graph, *passed);
        EXPECT_TRUE(check_graph(*graph).ok());
        std::stringstream again;
        f.write(again, *graph);
        EXPECT_EQ(f.read(again), *graph);
      }
    }
  }
  EXPECT_GE(mutants, 5000);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, mutants);
}

}  // namespace
}  // namespace dsnd
