// Interactive-ish CLI over the whole library: pick a graph family (or an
// edge-list file), an algorithm, and parameters; get the decomposition
// quality report and optionally a per-cluster dump or CSV.
//
//   ./decomposition_explorer --family grid --n 400 --algo en --k 4
//   ./decomposition_explorer --file my_graph.txt --algo ls --k 5 --clusters
//   ./decomposition_explorer --family gnp-sparse --algo mpx --beta 0.2 --csv
//
// Algorithms: en (Theorem 1), ms (Theorem 2), hr (Theorem 3),
//             ls (Linial–Saks), mpx (padded partition).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/linial_saks.hpp"
#include "decomposition/mpx.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "support/table.hpp"

namespace {

using namespace dsnd;

struct Args {
  std::string family = "gnp-sparse";
  std::optional<std::string> file;
  std::string algo = "en";
  VertexId n = 512;
  std::int32_t k = 0;
  std::int32_t lambda = 3;
  double beta = 0.2;
  double c = 4.0;
  std::uint64_t seed = 1;
  bool dump_clusters = false;
  bool csv = false;
};

void usage() {
  std::cout <<
      "usage: decomposition_explorer [--family NAME | --file PATH]\n"
      "         [--algo en|ms|hr|ls|mpx] [--n N] [--k K] [--lambda L]\n"
      "         [--beta B] [--c C] [--seed S] [--clusters] [--csv]\n"
      "families:";
  for (const GraphFamily& family : standard_families()) {
    std::cout << ' ' << family.name;
  }
  std::cout << '\n';
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage();
      return std::nullopt;
    } else if (flag == "--clusters") {
      args.dump_clusters = true;
    } else if (flag == "--csv") {
      args.csv = true;
    } else {
      const char* value = next();
      if (value == nullptr) return std::nullopt;
      if (flag == "--family") args.family = value;
      else if (flag == "--file") args.file = value;
      else if (flag == "--algo") args.algo = value;
      else if (flag == "--n") args.n = std::atoi(value);
      else if (flag == "--k") args.k = std::atoi(value);
      else if (flag == "--lambda") args.lambda = std::atoi(value);
      else if (flag == "--beta") args.beta = std::atof(value);
      else if (flag == "--c") args.c = std::atof(value);
      else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
      else {
        std::cerr << "unknown flag " << flag << "\n";
        usage();
        return std::nullopt;
      }
    }
  }
  return args;
}

void report_clustering(const Graph& g, const Clustering& clustering,
                       const Args& args) {
  const DecompositionReport report = validate_decomposition(g, clustering);
  Table table({"metric", "value"});
  table.row().cell("clusters").cell(report.num_clusters);
  table.row().cell("colors").cell(report.num_colors);
  table.row().cell("max strong diameter").cell(
      report.max_strong_diameter == kInfiniteDiameter
          ? "inf"
          : std::to_string(report.max_strong_diameter));
  table.row().cell("max weak diameter").cell(
      report.max_weak_diameter == kInfiniteDiameter
          ? "inf"
          : std::to_string(report.max_weak_diameter));
  table.row().cell("disconnected clusters").cell(
      report.disconnected_clusters);
  table.row().cell("avg cluster size").cell(report.avg_cluster_size, 1);
  table.row().cell("max cluster size").cell(
      static_cast<std::int64_t>(report.max_cluster_size));
  table.row().cell("complete partition").cell(
      report.complete ? "yes" : "NO");
  table.row().cell("proper phase coloring").cell(
      report.proper_phase_coloring ? "yes" : "NO");
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (args.dump_clusters) {
    Table clusters({"cluster", "color", "center", "size", "members"});
    const ClusterMembers members = clustering.members_csr();
    for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
      std::string list;
      for (const VertexId v : members.of(c)) {
        if (!list.empty()) list += ' ';
        list += std::to_string(v);
        if (list.size() > 60) {
          list += " ...";
          break;
        }
      }
      clusters.row()
          .cell(static_cast<std::int64_t>(c))
          .cell(clustering.color_of(c))
          .cell(static_cast<std::int64_t>(clustering.center_of(c)))
          .cell(static_cast<std::int64_t>(members.size_of(c)))
          .cell(list);
    }
    if (args.csv) {
      clusters.print_csv(std::cout);
    } else {
      clusters.print(std::cout);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto maybe_args = parse(argc, argv);
  if (!maybe_args) return 1;
  const Args& args = *maybe_args;

  const Graph g = args.file ? load_edge_list(*args.file)
                            : family_by_name(args.family).make(args.n,
                                                               args.seed);
  std::cout << "graph: " << describe(g) << "\n";

  if (args.algo == "en") {
    const DecompositionRun run = run_schedule(
        g, theorem1_schedule(g.num_vertices(), args.k, args.c), args.seed);
    std::cout << "Elkin–Neiman Theorem 1: k=" << run.k << " phases="
              << run.carve.phases_used << " rounds=" << run.carve.rounds
              << (run.carve.retries > 0
                      ? " [" + std::to_string(run.carve.retries) +
                            " recarve retries]"
                      : "")
              << (run.carve.radius_overflow ? " [radius overflow]" : "")
              << "\n";
    report_clustering(g, run.clustering(), args);
  } else if (args.algo == "ms") {
    const DecompositionRun run = run_schedule(
        g,
        theorem2_schedule(g.num_vertices(), args.k, std::max(args.c, 6.0)),
        args.seed);
    std::cout << "Elkin–Neiman Theorem 2 (multistage): k=" << run.k
              << " phases=" << run.carve.phases_used << "\n";
    report_clustering(g, run.clustering(), args);
  } else if (args.algo == "hr") {
    const DecompositionRun run = run_schedule(
        g, theorem3_schedule(g.num_vertices(), args.lambda, args.c),
        args.seed);
    std::cout << "Elkin–Neiman Theorem 3 (high radius): lambda="
              << args.lambda << " phases=" << run.carve.phases_used << "\n";
    report_clustering(g, run.clustering(), args);
  } else if (args.algo == "ls") {
    LinialSaksOptions options;
    options.k = args.k;
    options.seed = args.seed;
    const DecompositionRun run = linial_saks_decomposition(g, options);
    std::cout << "Linial–Saks: k=" << run.k << " phases="
              << run.carve.phases_used << "\n";
    report_clustering(g, run.clustering(), args);
  } else if (args.algo == "mpx") {
    const MpxResult result =
        mpx_partition(g, {.beta = args.beta, .seed = args.seed});
    std::cout << "MPX padded partition: beta=" << args.beta
              << " cut_fraction=" << result.cut_fraction << "\n";
    report_clustering(g, result.clustering, args);
  } else {
    std::cerr << "unknown algorithm " << args.algo << "\n";
    usage();
    return 1;
  }
  return 0;
}
