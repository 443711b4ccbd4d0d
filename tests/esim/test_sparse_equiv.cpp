// Golden equivalence of the engine against the test-only dense reference
// (dense_reference.hpp): with backward Euler and tight Newton tolerances, a
// reference Newton solve from each recorded point must land on the
// engine's next recorded point.  Singular systems must fail on both, and
// runs must be byte-stable run to run.  Also stresses the reusable
// SolveWorkspace across mode switches, repeated solves and share-nothing
// parallel Simulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cell/stimuli.hpp"
#include "dense_reference.hpp"
#include "esim/benchnets.hpp"
#include "esim/engine.hpp"
#include "util/error.hpp"

namespace sks::esim {
namespace {

// Tight Newton tolerances pin each step's solution well below the 1e-9
// comparison band.
void tighten(TransientOptions& options) {
  options.newton.vtol = 1e-9;
  options.newton.itol = 1e-12;
}

TransientResult run_with_mode(const Circuit& circuit,
                              const TransientOptions& options,
                              SolverMode mode) {
  Simulator sim(circuit);
  sim.set_solver_mode(mode);
  return sim.run_transient(options);
}

// Backward Euler makes every step a function of the previous recorded point
// alone (trapezoidal would also need the capacitor current history), so the
// engine's trajectory can be checked one step at a time.
void expect_matches_reference(const Circuit& circuit,
                              TransientOptions options) {
  options.trapezoidal = false;
  tighten(options);
  const auto run = run_with_mode(circuit, options, SolverMode::kSparse);
  ASSERT_GT(run.time.size(), 1u);
  const std::size_t n_voltage = circuit.node_count() - 1;
  const auto& caps = circuit.capacitors();
  const auto recorded = [&](std::size_t s) {
    std::vector<double> x;
    for (std::size_t i = 1; i <= n_voltage; ++i) x.push_back(run.node_v[i][s]);
    for (const auto& current : run.vsrc_i) x.push_back(current[s]);
    return x;
  };
  double worst = 0.0;
  for (std::size_t s = 0; s + 1 < run.time.size(); ++s) {
    std::vector<double> cap_v(caps.size());
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      cap_v[ci] = run.node_v[caps[ci].a.index][s] -
                  run.node_v[caps[ci].b.index][s];
    }
    std::vector<double> x = recorded(s);
    ASSERT_TRUE(dense_newton_solve(circuit, x, run.time[s + 1],
                                   run.time[s + 1] - run.time[s], cap_v,
                                   options.gmin, options.newton))
        << "reference Newton failed on step " << s;
    const std::vector<double> next = recorded(s + 1);
    for (std::size_t i = 0; i < n_voltage; ++i) {
      worst = std::max(worst, std::fabs(x[i] - next[i]));
    }
    for (std::size_t i = n_voltage; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], next[i], 1e-6) << "branch current, step " << s;
    }
  }
  EXPECT_LE(worst, 1e-9);
  // Every NR iteration runs a refactor, a first-time factor, or (on a
  // degenerate pivot) a refactor attempt followed by a rebuild.
  EXPECT_GE(run.stats.lu_refactorizations + run.stats.lu_pattern_rebuilds,
            run.stats.newton_iterations);
  EXPECT_LE(run.stats.lu_refactorizations, run.stats.newton_iterations);
  EXPECT_EQ(run.stats.lu_factorizations, run.stats.lu_pattern_rebuilds);
  EXPECT_GT(run.stats.sparse_nnz, 0u);
}

cell::SensorBench fig2_bench(double skew) {
  const cell::Technology tech;
  cell::SensorOptions options;  // paper Fig. 2: the basic sensing cell
  options.load_y1 = options.load_y2 = 160e-15;
  cell::ClockPairStimulus stim;
  stim.skew = skew;
  return cell::make_sensor_bench(tech, options, stim);
}

cell::SensorBench fig3_bench(double skew) {
  const cell::Technology tech;
  cell::SensorOptions options;  // paper Fig. 3: the full-swing variant
  options.variant = cell::SensorVariant::kFullSwing;
  options.load_y1 = options.load_y2 = 120e-15;
  cell::ClockPairStimulus stim;
  stim.skew = skew;
  return cell::make_sensor_bench(tech, options, stim);
}

TEST(SparseEquivalence, Fig2SensorTransientMatchesDense) {
  const auto bench = fig2_bench(0.2e-9);
  expect_matches_reference(bench.circuit,
                           cell::sensor_sim_options(bench.stimulus, 5e-12));
}

TEST(SparseEquivalence, Fig3FullSwingSensorMatchesDense) {
  const auto bench = fig3_bench(0.15e-9);
  expect_matches_reference(bench.circuit,
                           cell::sensor_sim_options(bench.stimulus, 5e-12));
}

TEST(SparseEquivalence, FaultInjectedVariantsMatchDense) {
  // The testability experiments run on fault-injected copies; the engine
  // must match the reference on defective circuits too (different
  // conduction topology, occasionally much stiffer systems).
  for (const MosFault fault : {MosFault::kStuckOpen, MosFault::kStuckOn}) {
    auto bench = fig2_bench(0.1e-9);
    ASSERT_FALSE(bench.circuit.mosfets().empty());
    bench.circuit.mosfets()[0].fault = fault;
    expect_matches_reference(bench.circuit,
                             cell::sensor_sim_options(bench.stimulus, 5e-12));
  }
}

TEST(SparseEquivalence, BufferedClockTreeMatchesDense) {
  ClockTreeOptions tree;
  tree.levels = 4;
  const auto net = make_clock_tree(tree);
  TransientOptions options;
  options.t_end = 0.5e-9;
  options.dt = 2e-12;
  expect_matches_reference(net.circuit, options);
}

TEST(SparseEquivalence, AdaptiveSteppingMatchesDense) {
  const auto bench = fig2_bench(0.2e-9);
  auto options = cell::sensor_sim_options(bench.stimulus, 5e-12);
  options.adaptive = true;
  options.dv_max = 0.2;
  options.dt_max = 50e-12;
  // Every accepted step of the adaptive grid, rejected attempts skipped,
  // must still be the reference's solution from the previous point.
  expect_matches_reference(bench.circuit, options);
}

Circuit singular_circuit() {
  // Two ideal sources pin the same node to different voltages: duplicate
  // MNA constraint rows, structurally singular for any gmin.
  Circuit c;
  const auto n = c.node("n");
  c.add_vsource("V1", n, c.ground(), Waveform::dc(1.0));
  c.add_vsource("V2", n, c.ground(), Waveform::dc(2.0));
  c.add_resistor("R1", n, c.ground(), 1000.0);
  return c;
}

TEST(SparseEquivalence, SingularCircuitFailsIdenticallyOnBothPaths) {
  const Circuit circuit = singular_circuit();
  Simulator sim(circuit);
  try {
    sim.dc_operating_point();
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.phase(), "dc");
    EXPECT_GT(sim.last_stats().lu_singular, 0u)
        << "singular bailouts must be classified as such, not as "
           "generic Newton failures";
    EXPECT_EQ(sim.last_stats().lu_nonfinite, 0u);
  }
  // The reference LU classifies the same DC Jacobian as singular.
  std::vector<double> x(circuit.node_count() - 1 + circuit.vsources().size(),
                        0.0);
  std::vector<double> f, dx;
  DenseMatrix j;
  assemble_dense(circuit, x, 0.0, -1.0, {}, 1e-12, f, j);
  EXPECT_EQ(lu_solve(j, f, dx), LuStatus::kSingular);
}

TEST(SparseEquivalence, SparseRunIsDeterministic) {
  const auto bench = fig2_bench(0.12e-9);
  const auto options = cell::sensor_sim_options(bench.stimulus, 5e-12);
  const auto a = run_with_mode(bench.circuit, options, SolverMode::kSparse);
  const auto b = run_with_mode(bench.circuit, options, SolverMode::kSparse);
  ASSERT_EQ(a.time.size(), b.time.size());
  for (std::size_t n = 0; n < a.node_v.size(); ++n) {
    for (std::size_t s = 0; s < a.time.size(); ++s) {
      ASSERT_EQ(a.node_v[n][s], b.node_v[n][s]) << "node " << n;
    }
  }
}

// The sensing cell once ran dense below 24 unknowns, and SKS_SOLVER could
// force either path. Both are gone: the environment is not read, kAuto
// runs the cell on the flat sparse plan, and an explicit kSparse gives the
// same bytes.
TEST(SparseEquivalence, EnvVarSelectsPathAndExplicitModeWins) {
  const auto bench = fig2_bench(0.2e-9);
  const auto options = cell::sensor_sim_options(bench.stimulus, 10e-12);
  const auto expected =
      run_with_mode(bench.circuit, options, SolverMode::kSparse);
  for (const char* value : {"dense", "sparse", "hierarchical"}) {
    ::setenv("SKS_SOLVER", value, 1);
    Simulator sim(bench.circuit);
    EXPECT_EQ(sim.solver_mode(), SolverMode::kAuto);
    EXPECT_FALSE(sim.hierarchical_path_active()) << "SKS_SOLVER=" << value;
    const auto run = sim.run_transient(options);
    EXPECT_GT(run.stats.sparse_nnz, 0u) << "SKS_SOLVER=" << value;
    EXPECT_EQ(run.stats.lu_factorizations, run.stats.lu_pattern_rebuilds);
    ASSERT_EQ(run.time.size(), expected.time.size());
    for (std::size_t n = 0; n < expected.node_v.size(); ++n) {
      for (std::size_t s = 0; s < expected.time.size(); ++s) {
        ASSERT_EQ(run.node_v[n][s], expected.node_v[n][s])
            << "SKS_SOLVER=" << value << " node " << n;
      }
    }
  }
  ::unsetenv("SKS_SOLVER");
}

// --- SolveWorkspace reuse (suite name is in the TSan ctest filter) ---

TEST(SolverWorkspace, SurvivesRepeatedSolvesAndModeSwitches) {
  const auto bench = fig2_bench(0.2e-9);
  auto options = cell::sensor_sim_options(bench.stimulus, 10e-12);
  Simulator sim(bench.circuit);
  std::vector<double> reference;
  for (int round = 0; round < 6; ++round) {
    sim.set_solver_mode(round % 2 == 0 ? SolverMode::kSparse
                                       : SolverMode::kHierarchical);
    const auto result = sim.run_transient(options);
    const auto dc = sim.dc_solution();
    ASSERT_FALSE(result.time.empty());
    if (reference.empty()) {
      reference = dc.node_v;
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_NEAR(dc.node_v[i], reference[i], 1e-7) << "round " << round;
      }
    }
  }
}

TEST(SolverWorkspace, ParallelSimulatorsShareNothing) {
  // One Simulator per thread on the same circuit value: the workspace and
  // stamp plan are per-instance, so concurrent solves must neither race
  // (TSan-checked) nor perturb each other's results.
  const auto bench = fig2_bench(0.15e-9);
  const auto options = cell::sensor_sim_options(bench.stimulus, 10e-12);
  const auto expected =
      run_with_mode(bench.circuit, options, SolverMode::kSparse);
  constexpr int kThreads = 4;
  std::vector<TransientResult> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      results[static_cast<std::size_t>(w)] =
          run_with_mode(bench.circuit, options, SolverMode::kSparse);
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& result : results) {
    ASSERT_EQ(result.time.size(), expected.time.size());
    for (std::size_t n = 0; n < expected.node_v.size(); ++n) {
      for (std::size_t s = 0; s < expected.time.size(); ++s) {
        ASSERT_EQ(result.node_v[n][s], expected.node_v[n][s]);
      }
    }
  }
}

TEST(SolverWorkspace, MovedSimulatorKeepsItsPlan) {
  ClockTreeOptions tree;
  tree.levels = 4;
  const auto net = make_clock_tree(tree);
  Simulator a(net.circuit);
  a.set_solver_mode(SolverMode::kSparse);
  const auto before = a.dc_solution();
  Simulator b(std::move(a));
  const auto after = b.dc_solution();
  ASSERT_EQ(before.node_v.size(), after.node_v.size());
  for (std::size_t i = 0; i < before.node_v.size(); ++i) {
    EXPECT_EQ(before.node_v[i], after.node_v[i]);
  }
  EXPECT_GT(after.stats.sparse_nnz, 0u);
}

}  // namespace
}  // namespace sks::esim
