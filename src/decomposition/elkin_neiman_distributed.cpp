#include "decomposition/elkin_neiman_distributed.hpp"

#include "support/assert.hpp"

namespace dsnd {

namespace {

/// The distributed protocol supports only the paper's exact rule set;
/// the ablation knobs (margin, early stop) are centralized-only.
void require_protocol_mode(const Graph& g, bool run_to_completion) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  DSND_REQUIRE(run_to_completion,
               "the distributed protocol always carves to completion");
}

}  // namespace

DistributedRun elkin_neiman_distributed(const Graph& g,
                                        const ElkinNeimanOptions& options,
                                        const EngineOptions& engine_options) {
  require_protocol_mode(g, options.run_to_completion);
  DSND_REQUIRE(options.margin == 1.0,
               "the distributed protocol implements the paper's margin of 1");
  return run_schedule_distributed(
      g,
      with_overflow_policy(
          theorem1_schedule(g.num_vertices(), options.k, options.c),
          options.overflow_policy, options.max_retries_per_phase),
      options.seed, engine_options);
}

DistributedRun multistage_distributed(const Graph& g,
                                      const MultistageOptions& options,
                                      const EngineOptions& engine_options) {
  require_protocol_mode(g, options.run_to_completion);
  return run_schedule_distributed(
      g,
      with_overflow_policy(
          theorem2_schedule(g.num_vertices(), options.k, options.c),
          options.overflow_policy, options.max_retries_per_phase),
      options.seed, engine_options);
}

DistributedRun high_radius_distributed(const Graph& g,
                                       const HighRadiusOptions& options,
                                       const EngineOptions& engine_options) {
  require_protocol_mode(g, options.run_to_completion);
  return run_schedule_distributed(
      g,
      with_overflow_policy(
          theorem3_schedule(g.num_vertices(), options.lambda, options.c),
          options.overflow_policy, options.max_retries_per_phase),
      options.seed, engine_options);
}

}  // namespace dsnd
