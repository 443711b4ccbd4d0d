// Hierarchical Schur-complement path: golden equivalence against the flat
// sparse solver on buffered clock networks, partition/unit coverage of the
// block-elimination machinery, the steady-state zero-refactorization
// guarantee, parallel-elimination determinism, kAuto's size rule, and
// option validation of the big-tree generators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "cell/measure.hpp"
#include "cell/skew_sensor.hpp"
#include "cell/stimuli.hpp"
#include "clocktree/electrical.hpp"
#include "esim/benchnets.hpp"
#include "esim/engine.hpp"
#include "esim/schur.hpp"
#include "esim/trace.hpp"
#include "par/pool.hpp"
#include "util/error.hpp"

namespace sks::esim {
namespace {

void tighten(TransientOptions& options) {
  options.newton.vtol = 1e-9;
  options.newton.itol = 1e-12;
}

TransientResult run_with_mode(const Circuit& circuit,
                              const TransientOptions& options,
                              SolverMode mode,
                              par::ThreadPool* pool = nullptr) {
  Simulator sim(circuit);
  sim.set_solver_mode(mode);
  if (pool != nullptr) sim.set_pool(pool);
  return sim.run_transient(options);
}

void expect_results_match(const TransientResult& a, const TransientResult& b,
                          double tol) {
  ASSERT_EQ(a.time.size(), b.time.size());
  ASSERT_EQ(a.node_v.size(), b.node_v.size());
  double worst = 0.0;
  for (std::size_t n = 0; n < a.node_v.size(); ++n) {
    for (std::size_t s = 0; s < a.time.size(); ++s) {
      worst = std::max(worst, std::fabs(a.node_v[n][s] - b.node_v[n][s]));
    }
  }
  EXPECT_LE(worst, tol);
  ASSERT_EQ(a.vsrc_i.size(), b.vsrc_i.size());
  for (std::size_t v = 0; v < a.vsrc_i.size(); ++v) {
    for (std::size_t s = 0; s < a.time.size(); ++s) {
      EXPECT_NEAR(a.vsrc_i[v][s], b.vsrc_i[v][s], 1e-6)
          << "vsrc " << v << " step " << s;
    }
  }
}

// The tentpole contract: the hierarchical path is an exact drop-in for the
// flat sparse solve, and its counters show the interface system (not the
// blocks) is what gets re-solved each Newton iteration.
void expect_hier_matches_sparse(const Circuit& circuit,
                                TransientOptions options, double tol = 1e-9) {
  tighten(options);
  const auto flat = run_with_mode(circuit, options, SolverMode::kSparse);
  const auto hier = run_with_mode(circuit, options, SolverMode::kHierarchical);
  expect_results_match(flat, hier, tol);
  EXPECT_EQ(flat.stats.schur_interface_solves, 0u);
  EXPECT_GT(hier.stats.schur_block_factorizations, 0u);
  // Every Newton iteration performs exactly one interface solve, except
  // the (rare, path-identical) iterations that bail out singular before
  // the solve completes — e.g. an early DC-continuation rung.
  EXPECT_EQ(hier.stats.schur_interface_solves + hier.stats.lu_singular,
            hier.stats.newton_iterations);
}

// --- partition_linear_blocks -------------------------------------------

SparseMatrix chain_pattern(std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  for (std::uint32_t i = 0; i < n; ++i) {
    entries.push_back({i, i});
    if (i + 1 < n) {
      entries.push_back({i, i + 1});
      entries.push_back({i + 1, i});
    }
  }
  return SparseMatrix(n, std::move(entries));
}

TEST(HierPartition, ChainSplitsAtInterfaceUnknowns) {
  const SparseMatrix a = chain_pattern(5);
  std::vector<std::uint8_t> mask(5, 0);
  mask[2] = 1;
  const HierPartition p = partition_linear_blocks(a, mask);
  EXPECT_EQ(p.block_count, 2u);
  EXPECT_EQ(p.interface_count, 1u);
  EXPECT_EQ(p.largest_block, 2u);
  const std::vector<std::int32_t> expected = {0, 0, -1, 1, 1};
  EXPECT_EQ(p.block_of, expected);
}

TEST(HierPartition, DeterministicAcrossCalls) {
  const SparseMatrix a = chain_pattern(64);
  std::vector<std::uint8_t> mask(64, 0);
  for (std::size_t i = 7; i < 64; i += 9) mask[i] = 1;
  const HierPartition p1 = partition_linear_blocks(a, mask);
  const HierPartition p2 = partition_linear_blocks(a, mask);
  EXPECT_EQ(p1.block_of, p2.block_of);
  EXPECT_EQ(p1.block_count, p2.block_count);
  EXPECT_EQ(p1.largest_block, p2.largest_block);
}

TEST(HierPartition, AllInterfaceHasNoBlocks) {
  const SparseMatrix a = chain_pattern(6);
  const std::vector<std::uint8_t> mask(6, 1);
  const HierPartition p = partition_linear_blocks(a, mask);
  EXPECT_EQ(p.block_count, 0u);
  EXPECT_EQ(p.interface_count, 6u);
  EXPECT_EQ(p.largest_block, 0u);
}

TEST(HierPartition, MaskSizeMismatchThrows) {
  const SparseMatrix a = chain_pattern(4);
  const std::vector<std::uint8_t> mask(3, 0);
  EXPECT_THROW(partition_linear_blocks(a, mask), sks::Error);
}

// --- HierarchicalSolver unit tests --------------------------------------

// Diagonally dominant tridiagonal test system with two interface unknowns
// and one long-range interior->interface coupling.
struct SyntheticSystem {
  SparseMatrix a;
  std::vector<std::uint8_t> mask;
  std::vector<double> b;

  explicit SyntheticSystem(std::size_t n = 60) {
    // Interface at n/3 and 2n/3 (20 and 40 at the default size), with one
    // long-range coupling into the second interface row.  Scales down so
    // the small-system decline case can reuse the same shape.
    const std::uint32_t j1 = static_cast<std::uint32_t>(n / 3);
    const std::uint32_t j2 = static_cast<std::uint32_t>(2 * n / 3);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
    for (std::uint32_t i = 0; i < n; ++i) {
      entries.push_back({i, i});
      if (i + 1 < n) {
        entries.push_back({i, i + 1});
        entries.push_back({i + 1, i});
      }
    }
    entries.push_back({5, j2});
    entries.push_back({j2, 5});
    a = SparseMatrix(n, std::move(entries));
    mask.assign(n, 0);
    mask[j1] = 1;
    mask[j2] = 1;
    fill_values(0);
    b.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = 0.25 + 0.5 * static_cast<double>((i * 7) % 11);
    }
  }

  // `variant` perturbs the linear stamps, standing in for a different
  // (gmin, h) companion configuration.
  void fill_values(int variant) {
    const std::size_t n = a.size();
    const std::size_t j2 = 2 * n / 3;
    for (double* v = a.values(); v != a.values() + a.values_size(); ++v) {
      *v = 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      a.values()[a.slot(i, i)] =
          4.0 + 1e-3 * static_cast<double>(i) + 0.1 * variant;
      if (i + 1 < n) {
        a.values()[a.slot(i, i + 1)] = -1.0;
        a.values()[a.slot(i + 1, i)] = -1.0;
      }
    }
    a.values()[a.slot(5, j2)] = -0.5;
    a.values()[a.slot(j2, 5)] = -0.5;
  }
};

std::vector<double> flat_solve(SparseMatrix a, const std::vector<double>& b) {
  SparseLu lu;
  lu.analyze(a);
  EXPECT_EQ(lu.factor(a), SparseLuStatus::kOk);
  std::vector<double> x;
  lu.solve(b, x);
  return x;
}

TEST(HierarchicalSolverUnit, MatchesFlatLuAndCachesBlockFactors) {
  SyntheticSystem sys;
  HierarchicalSolver solver;
  ASSERT_TRUE(solver.build(sys.a, sys.mask));
  EXPECT_EQ(solver.partition().block_count, 3u);
  EXPECT_EQ(solver.partition().interface_count, 2u);

  const SchurConfigKey key_a{1e-12, 1e-11, true};
  std::vector<double> x;
  ASSERT_EQ(solver.solve(sys.a, key_a, sys.b, x), SparseLuStatus::kOk);
  const std::vector<double> reference = flat_solve(sys.a, sys.b);
  ASSERT_EQ(x.size(), reference.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], reference[i], 1e-10) << "unknown " << i;
  }
  SchurStats stats = solver.take_stats();
  EXPECT_EQ(stats.block_factorizations, 3u);
  EXPECT_EQ(stats.interface_solves, 1u);
  EXPECT_EQ(stats.interface_factors, 1u);

  // Same configuration again: the cached block factors are reused and only
  // the interface refactors.
  ASSERT_EQ(solver.solve(sys.a, key_a, sys.b, x), SparseLuStatus::kOk);
  stats = solver.take_stats();
  EXPECT_EQ(stats.block_factorizations, 0u);
  EXPECT_EQ(stats.interface_solves, 1u);
  EXPECT_EQ(stats.interface_refactors, 1u);

  // A second configuration refreshes the blocks once; alternating between
  // the two (trapezoidal <-> backward Euler around breakpoints) must hit
  // the two-slot cache with zero further block factorizations.
  SyntheticSystem other;
  other.fill_values(1);
  const SchurConfigKey key_b{1e-12, 1e-11, false};
  ASSERT_EQ(solver.solve(other.a, key_b, sys.b, x), SparseLuStatus::kOk);
  EXPECT_EQ(solver.take_stats().block_factorizations, 3u);
  for (int round = 0; round < 4; ++round) {
    const bool use_a = round % 2 == 0;
    ASSERT_EQ(solver.solve(use_a ? sys.a : other.a, use_a ? key_a : key_b,
                           sys.b, x),
              SparseLuStatus::kOk);
    EXPECT_EQ(solver.take_stats().block_factorizations, 0u)
        << "round " << round;
  }
  EXPECT_GT(solver.memory_bytes(), 0u);
  EXPECT_GT(solver.udiag_max_abs(), 0.0);
}

TEST(HierarchicalSolverUnit, SingularBlockIsReported) {
  SyntheticSystem sys;
  // Zero out row/column 30 (interior of the middle block).
  sys.a.values()[sys.a.slot(30, 30)] = 0.0;
  sys.a.values()[sys.a.slot(30, 29)] = 0.0;
  sys.a.values()[sys.a.slot(30, 31)] = 0.0;
  sys.a.values()[sys.a.slot(29, 30)] = 0.0;
  sys.a.values()[sys.a.slot(31, 30)] = 0.0;
  HierarchicalSolver solver;
  ASSERT_TRUE(solver.build(sys.a, sys.mask));
  std::vector<double> x;
  EXPECT_EQ(solver.solve(sys.a, SchurConfigKey{1e-12, 1e-11, true}, sys.b, x),
            SparseLuStatus::kSingular);
}

TEST(HierarchicalSolverUnit, DeclinesWhenNoExploitableStructure) {
  {
    // Everything interface: nothing to eliminate.
    SyntheticSystem sys;
    sys.mask.assign(sys.mask.size(), 1);
    HierarchicalSolver solver;
    EXPECT_FALSE(solver.build(sys.a, sys.mask));
    EXPECT_FALSE(solver.built());
  }
  {
    // Interior below kMinInteriorUnknowns.
    SyntheticSystem sys(12);
    HierarchicalSolver solver;
    EXPECT_FALSE(solver.build(sys.a, sys.mask));
  }
}

// --- solver-path equivalence on clock networks ---------------------------

TEST(HierarchicalEquivalence, MidTreeMatchesFlatSparse) {
  ClockTreeOptions tree;
  tree.levels = 5;  // ~107 unknowns
  const auto net = make_clock_tree(tree);
  TransientOptions options;
  options.t_end = 0.5e-9;
  options.dt = 2e-12;
  expect_hier_matches_sparse(net.circuit, options);
}

clocktree::ElectricalNet big_htree(std::size_t levels) {
  clocktree::BigClockTreeOptions options;
  options.topology = clocktree::BigTreeTopology::kHTree;
  options.levels = levels;
  return clocktree::make_big_clock_tree(options);
}

TEST(HierarchicalEquivalence, BigHTreeMatchesFlatSparse) {
  const auto net = big_htree(4);  // ~2k unknowns
  ASSERT_GT(net.circuit.node_count(), 1000u);
  TransientOptions options;
  options.t_end = 1e-9;
  options.dt = 10e-12;
  expect_hier_matches_sparse(net.circuit, options);
}

TEST(HierarchicalEquivalence, FaultedBigTreeMatchesFlatSparse) {
  // Resistive open on the last sink's edge: the defective-circuit verdicts
  // downstream depend on both paths agreeing on faulted nets too.
  clocktree::BigClockTreeOptions options;
  options.levels = 4;
  const auto pristine = clocktree::make_big_clock_tree(options);
  options.defect_node = pristine.tree.sinks().back();
  options.defect_r_scale = 500.0;
  const auto net = clocktree::make_big_clock_tree(options);
  TransientOptions sim;
  sim.t_end = 1e-9;
  sim.dt = 10e-12;
  expect_hier_matches_sparse(net.circuit, sim);
}

TEST(HierarchicalEquivalence, DmeTopologyMatchesFlatSparse) {
  clocktree::BigClockTreeOptions options;
  options.topology = clocktree::BigTreeTopology::kDme;
  options.levels = 3;  // 64 sinks on the zero-skew merge tree
  const auto net = clocktree::make_big_clock_tree(options);
  TransientOptions sim;
  sim.t_end = 0.5e-9;
  sim.dt = 5e-12;
  expect_hier_matches_sparse(net.circuit, sim);
}

TEST(HierarchicalEquivalence, AdaptiveSteppingMatchesFlatSparse) {
  const auto net = big_htree(4);
  TransientOptions options;
  options.t_end = 1e-9;
  options.dt = 5e-12;
  options.adaptive = true;
  options.dv_max = 0.2;
  options.dt_max = 50e-12;
  // expect_hier_matches_sparse asserts equal step grids, so the adaptive
  // accept/reject decisions must coincide on both paths.
  expect_hier_matches_sparse(net.circuit, options);
}

// --- sensor verdicts across solver paths ---------------------------------

struct SensorVerdict {
  cell::SensorMeasurement measurement;
  TransientResult result;
};

SensorVerdict sensed_tree_verdict(const clocktree::ElectricalNet& net,
                                  SolverMode mode) {
  // Attach the paper's sensing cell across the first and last sinks, driven
  // by the tree's own clock (the integration the scheme is built for).
  Circuit circuit = net.circuit;
  const cell::Technology tech;
  cell::SensorOptions sensor;
  sensor.phi1_node = net.sinks.front();
  sensor.phi2_node = net.sinks.back();
  sensor.vdd_node = circuit.node("vdd");
  cell::build_skew_sensor(circuit, tech, sensor);

  TransientOptions options;
  options.dt = 10e-12;
  cell::ClockPairStimulus window;  // observation window for interpretation
  window.edge_time = 0.0;          // tree clock edge launches at t = 0
  window.slew1 = window.slew2 = 1e-10;
  options.t_end = window.strobe_time() + 0.5e-9;
  tighten(options);

  SensorVerdict v;
  v.result = run_with_mode(circuit, options, mode);
  const auto y1 = Trace::node_voltage(v.result, circuit, "y1");
  const auto y2 = Trace::node_voltage(v.result, circuit, "y2");
  v.measurement = cell::interpret_sensor(y1, y2, window, 2.75);
  return v;
}

TEST(HierarchicalEquivalence, SensorVerdictMatchesFlatSparse) {
  clocktree::BigClockTreeOptions options;
  options.levels = 4;
  // A 2 mm die buffered every level lands the clock at the sinks well
  // inside the observation window; 2000x on the last sink's wire shifts
  // its arrival by ~0.43 ns, past the sensing cell's tau_min.
  options.chip_width = 2e-3;
  options.buffer_every = 1;
  const auto pristine = clocktree::make_big_clock_tree(options);
  options.defect_node = pristine.tree.sinks().back();
  options.defect_r_scale = 2000.0;
  const auto faulted = clocktree::make_big_clock_tree(options);

  const auto p_flat = sensed_tree_verdict(pristine, SolverMode::kSparse);
  const auto p_hier = sensed_tree_verdict(pristine, SolverMode::kHierarchical);
  expect_results_match(p_flat.result, p_hier.result, 1e-9);
  EXPECT_EQ(p_flat.measurement.indication, p_hier.measurement.indication);
  EXPECT_FALSE(p_hier.measurement.error())
      << "symmetric H-tree has (near) zero skew";

  const auto f_flat = sensed_tree_verdict(faulted, SolverMode::kSparse);
  const auto f_hier = sensed_tree_verdict(faulted, SolverMode::kHierarchical);
  expect_results_match(f_flat.result, f_hier.result, 1e-9);
  EXPECT_EQ(f_flat.measurement.indication, f_hier.measurement.indication);
  EXPECT_TRUE(f_hier.measurement.error())
      << "500x resistive open on a sink edge must trip the sensor";
}

// --- steady-state and parallelism guarantees -----------------------------

TEST(Hierarchical, SteadyStateAddsNoBlockFactorizations) {
  const auto net = big_htree(4);
  TransientOptions short_run;
  short_run.t_end = 1e-9;
  short_run.dt = 10e-12;
  tighten(short_run);
  TransientOptions long_run = short_run;
  long_run.t_end = 2e-9;

  const auto a =
      run_with_mode(net.circuit, short_run, SolverMode::kHierarchical);
  const auto b =
      run_with_mode(net.circuit, long_run, SolverMode::kHierarchical);
  EXPECT_GT(b.stats.newton_iterations, a.stats.newton_iterations);
  // Block factors depend only on the set of companion configurations (DC
  // continuation rungs + trapezoidal/backward-Euler at the fixed dt), which
  // the longer run shares exactly: zero extra factorizations in steady
  // state, while every iteration re-solves the interface.
  EXPECT_EQ(b.stats.schur_block_factorizations,
            a.stats.schur_block_factorizations);
  EXPECT_EQ(a.stats.schur_interface_solves, a.stats.newton_iterations);
  EXPECT_EQ(b.stats.schur_interface_solves, b.stats.newton_iterations);
}

TEST(Hierarchical, ParallelBlockEliminationIsBitIdentical) {
  const auto net = big_htree(4);
  TransientOptions options;
  options.t_end = 0.3e-9;
  options.dt = 10e-12;
  tighten(options);
  const auto serial =
      run_with_mode(net.circuit, options, SolverMode::kHierarchical);
  par::ThreadPool pool(4);
  const auto parallel =
      run_with_mode(net.circuit, options, SolverMode::kHierarchical, &pool);
  ASSERT_EQ(serial.time.size(), parallel.time.size());
  for (std::size_t n = 0; n < serial.node_v.size(); ++n) {
    for (std::size_t s = 0; s < serial.time.size(); ++s) {
      ASSERT_EQ(serial.node_v[n][s], parallel.node_v[n][s])
          << "node " << n << " step " << s;
    }
  }
}

// A source driving an RC ladder, `unknowns` MNA unknowns in all: the
// source node and branch current form the interface, the ladder one
// linear block.
Circuit rc_ladder(std::size_t unknowns) {
  Circuit c;
  NodeId prev = c.node("n0");
  c.add_vsource("vin", prev, c.ground(), Waveform::dc(1.0));
  for (std::size_t i = 1; i + 1 < unknowns; ++i) {
    const NodeId next = c.node("n" + std::to_string(i));
    c.add_resistor("r" + std::to_string(i), prev, next, 100.0);
    c.add_capacitor("c" + std::to_string(i), next, c.ground(), 1e-15);
    prev = next;
  }
  return c;
}

TEST(Hierarchical, AutoModeResolvesByUnknownCount) {
  const std::size_t threshold = Simulator::kHierarchicalAutoThreshold;
  Simulator below(rc_ladder(threshold - 1));
  Simulator at(rc_ladder(threshold));
  ASSERT_EQ(below.solver_mode(), SolverMode::kAuto);
  EXPECT_FALSE(below.hierarchical_path_active()) << "flat below the threshold";
  EXPECT_TRUE(at.hierarchical_path_active()) << "Schur at the threshold";

  // An explicit mode overrides the size rule, and switching it rebuilds the
  // stamp plan for the new LU back end.
  below.set_solver_mode(SolverMode::kHierarchical);
  EXPECT_TRUE(below.hierarchical_path_active());
  at.set_solver_mode(SolverMode::kSparse);
  EXPECT_FALSE(at.hierarchical_path_active());
  EXPECT_EQ(at.dc_solution().stats.schur_interface_solves, 0u);
}

// SKS_SOLVER once overrode kAuto from the environment. The variable is no
// longer read: whatever it holds, the unknown count picks the path and an
// explicit set_solver_mode still wins over it.
TEST(Hierarchical, EnvVarSelectsPathAndExplicitModeWins) {
  const std::size_t threshold = Simulator::kHierarchicalAutoThreshold;
  const Circuit small = rc_ladder(threshold - 1);
  const Circuit big = rc_ladder(threshold);
  for (const char* value : {"sparse", "dense", "hierarchical"}) {
    ::setenv("SKS_SOLVER", value, 1);
    Simulator below(small);
    Simulator at(big);
    EXPECT_FALSE(below.hierarchical_path_active()) << "SKS_SOLVER=" << value;
    EXPECT_TRUE(at.hierarchical_path_active()) << "SKS_SOLVER=" << value;
    below.set_solver_mode(SolverMode::kHierarchical);
    at.set_solver_mode(SolverMode::kSparse);
    EXPECT_TRUE(below.hierarchical_path_active()) << "SKS_SOLVER=" << value;
    EXPECT_FALSE(at.hierarchical_path_active()) << "SKS_SOLVER=" << value;
  }
  ::unsetenv("SKS_SOLVER");
}

TEST(Hierarchical, FallsBackToFlatSparseWithoutStructure) {
  // An all-MOSFET sensing cell has no linear subtrees to split off: the
  // build declines and the run must be byte-identical to the flat path.
  const cell::Technology tech;
  cell::SensorOptions options;
  cell::ClockPairStimulus stim;
  stim.skew = 0.2e-9;
  const auto bench = cell::make_sensor_bench(tech, options, stim);
  const auto sim_options = cell::sensor_sim_options(stim, 10e-12);
  {
    Simulator sim(bench.circuit);
    sim.set_solver_mode(SolverMode::kHierarchical);
    EXPECT_FALSE(sim.hierarchical_path_active());
  }
  const auto flat = run_with_mode(bench.circuit, sim_options,
                                  SolverMode::kSparse);
  const auto hier = run_with_mode(bench.circuit, sim_options,
                                  SolverMode::kHierarchical);
  ASSERT_EQ(flat.time.size(), hier.time.size());
  EXPECT_EQ(hier.stats.schur_block_factorizations, 0u);
  EXPECT_EQ(hier.stats.schur_interface_solves, 0u);
  for (std::size_t n = 0; n < flat.node_v.size(); ++n) {
    for (std::size_t s = 0; s < flat.time.size(); ++s) {
      ASSERT_EQ(flat.node_v[n][s], hier.node_v[n][s]) << "node " << n;
    }
  }
}

TEST(Hierarchical, SingularInterfaceIsClassified) {
  // Two ideal sources pin the tree root to different voltages: duplicate
  // constraint rows land in the interface block, so the Schur system (not
  // a linear block) is singular — and must be classified as such.
  ClockTreeOptions tree;
  tree.levels = 5;
  const auto net = make_clock_tree(tree);
  Circuit circuit = net.circuit;
  circuit.add_vsource("vdup1", net.root, circuit.ground(), Waveform::dc(1.0));
  circuit.add_vsource("vdup2", net.root, circuit.ground(), Waveform::dc(2.0));
  Simulator sim(circuit);
  sim.set_solver_mode(SolverMode::kHierarchical);
  ASSERT_TRUE(sim.hierarchical_path_active());
  try {
    sim.dc_operating_point();
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_EQ(e.phase(), "dc");
    EXPECT_GT(sim.last_stats().lu_singular, 0u);
    EXPECT_EQ(sim.last_stats().lu_nonfinite, 0u);
  }
}

// --- generator option validation -----------------------------------------

TEST(BenchnetValidation, MakeClockTreeRejectsDegenerateOptions) {
  const auto expect_throws = [](auto mutate) {
    ClockTreeOptions options;
    mutate(options);
    EXPECT_THROW(make_clock_tree(options), sks::Error);
  };
  expect_throws([](ClockTreeOptions& o) { o.levels = 0; });
  expect_throws([](ClockTreeOptions& o) { o.levels = 25; });
  expect_throws([](ClockTreeOptions& o) { o.buffer_every = -1; });
  expect_throws([](ClockTreeOptions& o) { o.r_segment = 0.0; });
  expect_throws([](ClockTreeOptions& o) { o.c_segment = -1e-15; });
  expect_throws([](ClockTreeOptions& o) { o.c_leaf = -1e-15; });
  expect_throws([](ClockTreeOptions& o) { o.driver_resistance = 0.0; });
  expect_throws([](ClockTreeOptions& o) { o.vdd = 0.0; });
  ClockTreeOptions ok;
  ok.levels = 2;
  ok.buffer_every = 0;  // bare RC is valid
  EXPECT_NO_THROW(make_clock_tree(ok));
}

TEST(BigTreeValidation, MakeBigClockTreeRejectsDegenerateOptions) {
  const auto expect_throws = [](auto mutate) {
    clocktree::BigClockTreeOptions options;
    options.levels = 2;
    mutate(options);
    EXPECT_THROW(clocktree::make_big_clock_tree(options), sks::Error);
  };
  expect_throws([](clocktree::BigClockTreeOptions& o) { o.levels = 0; });
  expect_throws([](clocktree::BigClockTreeOptions& o) { o.levels = 9; });
  expect_throws([](clocktree::BigClockTreeOptions& o) { o.chip_width = 0.0; });
  expect_throws(
      [](clocktree::BigClockTreeOptions& o) { o.sink_cap = -1e-15; });
  expect_throws([](clocktree::BigClockTreeOptions& o) {
    o.defect_node = 1u << 20;  // far past the tree size
  });
  expect_throws([](clocktree::BigClockTreeOptions& o) {
    o.defect_node = 1;
    o.defect_r_scale = 0.0;
  });
  expect_throws([](clocktree::BigClockTreeOptions& o) { o.vdd = -5.0; });
  expect_throws(
      [](clocktree::BigClockTreeOptions& o) { o.driver_resistance = 0.0; });
  expect_throws([](clocktree::BigClockTreeOptions& o) { o.wire.segments = 0; });
}

TEST(BigTreeValidation, ToCircuitRejectsMismatchedEdgeScale) {
  clocktree::ClockTree tree;
  tree.add_node(0, clocktree::Point{1e-3, 0.0});
  clocktree::ElectricalOptions options;
  options.edge_r_scale.assign(5, 1.0);  // tree has 2 nodes
  EXPECT_THROW(clocktree::to_circuit(tree, options), sks::Error);
}

TEST(BigTreeValidation, DeterministicNetlistAndSinkCount) {
  clocktree::BigClockTreeOptions options;
  options.levels = 3;
  const auto a = clocktree::make_big_clock_tree(options);
  const auto b = clocktree::make_big_clock_tree(options);
  EXPECT_EQ(a.sinks.size(), 64u);  // 4^3
  EXPECT_EQ(a.circuit.node_count(), b.circuit.node_count());
  EXPECT_EQ(a.sinks, b.sinks);
  EXPECT_EQ(a.tree.sinks().size(), a.sinks.size());
}

}  // namespace
}  // namespace sks::esim
