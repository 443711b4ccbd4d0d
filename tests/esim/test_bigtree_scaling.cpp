// Scaling smoke for the hierarchical path at real paper scale (~8k MNA
// unknowns — a size the flat solver's quadratic ordering makes painful,
// which is why this binary carries the `slow` ctest label and the
// sanitizer jobs skip it).  Checks the kAuto heuristic engages the
// hierarchical path on its own, the transient completes with sane rails,
// and steady-state Newton iterations add zero block factorizations.
#include <gtest/gtest.h>

#include <cmath>

#include "clocktree/electrical.hpp"
#include "esim/engine.hpp"

namespace sks::esim {
namespace {

TEST(BigTreeScaling, AutoModeRunsHierarchicalAt8kUnknowns) {
  clocktree::BigClockTreeOptions options;
  options.levels = 5;  // 1024 sinks, ~8k MNA unknowns
  const auto net = clocktree::make_big_clock_tree(options);
  ASSERT_GT(net.circuit.node_count(), 4096u);

  Simulator sim(net.circuit);  // default kAuto: size is past the threshold
  EXPECT_TRUE(sim.hierarchical_path_active());

  TransientOptions t;
  t.t_end = 1e-9;
  t.dt = 10e-12;
  const auto short_run = sim.run_transient(t);
  t.t_end = 2e-9;
  const auto long_run = sim.run_transient(t);

  EXPECT_GT(long_run.stats.newton_iterations,
            short_run.stats.newton_iterations);
  EXPECT_EQ(long_run.stats.schur_block_factorizations,
            short_run.stats.schur_block_factorizations)
      << "steady-state iterations must not refactor linear blocks";
  EXPECT_EQ(long_run.stats.schur_interface_solves,
            long_run.stats.newton_iterations);

  // Rails stay physical across every node of the 8k-unknown solution.
  for (const auto& node : long_run.node_v) {
    for (const double v : node) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GT(v, -1.0);
      ASSERT_LT(v, 6.0);
    }
  }
}

}  // namespace
}  // namespace sks::esim
