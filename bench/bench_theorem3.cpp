// E3 — Theorem 3 (Section 2.2, high radius regime): fixing the color
// budget at lambda <= ln n yields a strong (2(cn)^{1/lambda} ln(cn),
// lambda) decomposition in lambda (cn)^{1/lambda} ln(cn) rounds with
// probability >= 1 - 3/c — the inverse tradeoff of Theorem 1.
#include <iostream>

#include "bench_common.hpp"
#include "decomposition/high_radius.hpp"
#include "support/stats.hpp"

int main() {
  using namespace dsnd;
  const double c = 4.0;
  bench::print_header(
      "E3 / Theorem 3 (high radius regime)",
      "claim: strong (2(cn)^{1/lambda} ln(cn), lambda) decomposition; "
      "success prob >= 1 - 3/c  (c = 4)");

  Table table({"family", "n", "lambda", "colors_max", "D_max", "D_bound",
               "retries", "success", "check"});
  const int seeds = 6 * bench::scale();
  for (const std::string& family : bench::default_families()) {
    for (const VertexId n : {256, 1024}) {
      for (const std::int32_t lambda : {1, 2, 3, 4, 6}) {
        Summary colors;
        Summary diameters;
        bench::RetryStats stats;
        int successes = 0;
        int diameter_runs = 0;
        bool violated = false;
        double colors_max = 0;
        // Promised bounds from the run itself (see bench_theorem2).
        TheoremBounds bounds;
        for (int s = 0; s < seeds; ++s) {
          const Graph g = family_by_name(family).make(
              n, static_cast<std::uint64_t>(s) + 1);
          const DecompositionRun run =
              run_schedule(g, theorem3_schedule(g.num_vertices(), lambda, c),
                           static_cast<std::uint64_t>(s) * 15485863 + 7);
          bounds = run.bounds;
          colors.add(run.carve.phases_used);
          colors_max = std::max(colors_max,
                                static_cast<double>(run.carve.phases_used));
          if (run.carve.exhausted_within_target) ++successes;
          stats.observe(run.carve);
          if (!bench::accepted_truncated_samples(run.carve)) {
            const DecompositionReport report = validate_decomposition(
                g, run.clustering(), /*compute_weak=*/false);
            ++diameter_runs;
            diameters.add(report.max_strong_diameter);
            if (report.max_strong_diameter == kInfiniteDiameter ||
                static_cast<double>(report.max_strong_diameter) >
                    run.bounds.strong_diameter) {
              violated = true;
            }
          }
        }
        table.row()
            .cell(family)
            .cell(static_cast<std::int64_t>(n))
            .cell(lambda)
            .cell(colors_max, 0)
            .cell(diameter_runs > 0 ? format_double(diameters.max(), 0)
                                    : "-")
            .cell(bounds.strong_diameter, 0)
            .cell(static_cast<std::int64_t>(stats.retries))
            .cell(static_cast<double>(successes) / seeds, 2)
            .cell(violated ? "VIOLATED" : "ok");
      }
    }
  }
  table.print(std::cout);
  std::cout << "\ncolors_max should be <= lambda on success runs; D_max "
               "stays far below the (loose) worst-case bound because real "
               "graphs have small diameter.\n";
  return 0;
}
