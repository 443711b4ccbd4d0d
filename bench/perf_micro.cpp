// Micro-benchmarks (google-benchmark) for the computational kernels:
// transient simulation throughput, Elmore analysis, DME construction,
// fault simulation and the behavioural scheme loop.
//
// Every run writes BENCH_perf_micro.json (obs::Report schema): the solver
// counters accumulated across all benchmark iterations, so the repo's perf
// trajectory can track both wall times (google-benchmark's own output) and
// the work done per iteration (NR iterations, LU factorizations) — a
// regression in either shows up in the diff of this file across PRs.
// `--profile` additionally enables the span timers.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cell/measure.hpp"
#include "esim/benchnets.hpp"
#include "clocktree/dme.hpp"
#include "clocktree/electrical.hpp"
#include "clocktree/htree.hpp"
#include "fault/campaign.hpp"
#include "fault/universe.hpp"
#include "logic/masking.hpp"
#include "obs/report.hpp"
#include "scheme/montecarlo.hpp"
#include "scheme/scheme.hpp"
#include "util/prng.hpp"

using namespace sks;

namespace {

void BM_TransientSensorEdge(benchmark::State& state) {
  const cell::Technology tech;
  cell::SensorOptions options;
  options.load_y1 = options.load_y2 = 160e-15;
  cell::ClockPairStimulus stim;
  stim.skew = 0.2e-9;
  const auto bench_setup = cell::make_sensor_bench(tech, options, stim);
  const auto sim_options =
      cell::sensor_sim_options(stim, state.range(0) * 1e-12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(esim::simulate(bench_setup.circuit, sim_options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TransientSensorEdge)->Arg(2)->Arg(5)->Arg(10);

// The largest bundled netlist: a buffered binary clock tree with ~100 MNA
// unknowns, simulated over one clock edge.
esim::TransientOptions clock_tree_sim_options() {
  esim::TransientOptions o;
  o.t_end = 1e-9;
  o.dt = 2e-12;
  return o;
}

void BM_TransientClockTreeSparse(benchmark::State& state) {
  const auto net = esim::make_clock_tree({});
  const auto options = clock_tree_sim_options();
  for (auto _ : state) {
    // Construct inside the loop: campaign layers build one Simulator per
    // work item, so the symbolic prepass is part of the measured cost.
    esim::Simulator sim(net.circuit);
    sim.set_solver_mode(esim::SolverMode::kSparse);
    benchmark::DoNotOptimize(sim.run_transient(options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TransientClockTreeSparse);

// Synthesized big clock trees (2k-33k MNA unknowns): the hierarchical
// Schur path against flat sparse over a single clock edge.  One edge (not
// a full period) because that is where the ordering cost dominates and the
// partitioned solve pays off hardest — the fixed-workload section below
// measures the same points for the gated speedup.
esim::TransientOptions big_tree_sim_options() {
  esim::TransientOptions o;
  o.t_end = 0.5e-9;
  o.dt = 10e-12;
  o.record_waveforms = false;  // 33k nodes x 50 steps of samples is all RSS
  return o;
}

clocktree::ElectricalNet make_big_tree_net(std::size_t levels) {
  clocktree::BigClockTreeOptions big;
  big.levels = levels;
  return clocktree::make_big_clock_tree(big);
}

void BM_TransientBigTree(benchmark::State& state, esim::SolverMode mode) {
  const auto net = make_big_tree_net(static_cast<std::size_t>(state.range(0)));
  const auto options = big_tree_sim_options();
  for (auto _ : state) {
    esim::Simulator sim(net.circuit);
    sim.set_solver_mode(mode);
    benchmark::DoNotOptimize(sim.run_transient(options));
  }
  state.SetLabel(std::to_string(net.circuit.node_count()) + " nodes");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_TransientBigTreeHier(benchmark::State& state) {
  BM_TransientBigTree(state, esim::SolverMode::kHierarchical);
}
BENCHMARK(BM_TransientBigTreeHier)->Arg(4)->Arg(5)->Arg(6);

void BM_TransientBigTreeSparse(benchmark::State& state) {
  BM_TransientBigTree(state, esim::SolverMode::kSparse);
}
BENCHMARK(BM_TransientBigTreeSparse)->Arg(4)->Arg(5)->Arg(6);

void BM_DcOperatingPoint(benchmark::State& state) {
  const cell::Technology tech;
  cell::SensorOptions options;
  const auto bench_setup =
      cell::make_sensor_bench(tech, options, cell::ClockPairStimulus{});
  esim::Simulator sim(bench_setup.circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.dc_operating_point());
  }
}
BENCHMARK(BM_DcOperatingPoint);

void BM_ElmoreAnalysisHTree(benchmark::State& state) {
  clocktree::HTreeOptions o;
  o.levels = static_cast<std::size_t>(state.range(0));
  o.buffer_levels = 2;
  const auto tree = build_h_tree(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocktree::analyze(tree, {}));
  }
  state.SetLabel(std::to_string(tree.sinks().size()) + " sinks");
}
BENCHMARK(BM_ElmoreAnalysisHTree)->Arg(2)->Arg(3)->Arg(4);

void BM_DmeConstruction(benchmark::State& state) {
  util::Prng prng(1);
  std::vector<clocktree::Sink> sinks;
  for (int i = 0; i < state.range(0); ++i) {
    sinks.push_back({{prng.uniform(0.0, 8e-3), prng.uniform(0.0, 8e-3)},
                     50e-15});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocktree::build_zero_skew_tree(sinks, {}));
  }
}
BENCHMARK(BM_DmeConstruction)->Arg(16)->Arg(64)->Arg(256);

void BM_SingleFaultSimulation(benchmark::State& state) {
  const cell::Technology tech;
  cell::SensorOptions options;
  options.load_y1 = options.load_y2 = 160e-15;
  cell::ClockPairStimulus stim;
  stim.full_clock = true;
  const auto bench_setup = cell::make_sensor_bench(tech, options, stim);
  fault::TestPlan plan = fault::default_sensor_test_plan(
      bench_setup, tech.interpretation_threshold(), 1);
  plan.dt = 10e-12;
  const auto good = fault::observe(bench_setup.circuit, plan);
  const auto f = fault::Fault::stuck_open("d");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::test_fault(bench_setup.circuit, good, f, plan));
  }
}
BENCHMARK(BM_SingleFaultSimulation);

// Fig. 5-style Monte-Carlo population, scalar vs the batched SoA solver.
// Serial (threads = 1) so the wall ratio isolates the lane-vectorization
// win; the per-sample verdicts are identical on both paths (test_batch /
// test_montecarlo pin that).
scheme::McOptions mc_bench_options(std::size_t lanes) {
  scheme::McOptions mc;
  mc.samples = 32;  // one full block at the widest measured lane count
  mc.threads = 1;
  mc.dt = 10e-12;
  mc.batch = lanes;  // 1 = scalar golden path
  return mc;
}

void BM_MonteCarlo(benchmark::State& state, std::size_t lanes) {
  const cell::Technology tech;
  const cell::SensorOptions base;
  const auto mc = mc_bench_options(lanes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme::run_vmin_montecarlo(tech, base, mc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(mc.samples));
}

void BM_MonteCarloScalar(benchmark::State& state) {
  BM_MonteCarlo(state, 1);
}
BENCHMARK(BM_MonteCarloScalar);

void BM_MonteCarloBatch(benchmark::State& state) {
  BM_MonteCarlo(state, 32);
}
BENCHMARK(BM_MonteCarloBatch);

void BM_SchemeCycles(benchmark::State& state) {
  clocktree::HTreeOptions ho;
  ho.levels = 3;
  ho.buffer_levels = 2;
  scheme::SchemeOptions so;
  so.placement.criticality.samples = 20;
  so.placement.max_pair_distance = 2.5e-3;
  scheme::TestingScheme scheme_under_test(
      build_h_tree(ho), clocktree::AnalysisOptions{},
      scheme::SensorCalibration::default_table(), so);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheme_under_test.run({}, static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchemeCycles)->Arg(100)->Arg(1000);

void BM_MaskingExperiment(benchmark::State& state) {
  logic::MaskingScenario s;
  s.delay_fault = 0.6e-9;
  s.clock_delay_ff2 = 0.7e-9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::run_masking_experiment(s));
  }
}
BENCHMARK(BM_MaskingExperiment);

// Deterministic calibration pass for the CI bench-regression gate: run
// each hot kernel a FIXED number of times with the registry zeroed, and
// snapshot the solver counters into `values.fixed.*` of the report.  These
// numbers are pure work counts (no clocks, no adaptive iteration counts),
// so tools/bench_gate.py can fail on ANY increase — unlike the registry
// totals below, which scale with google-benchmark's dynamic iteration
// counts and are only good for order-of-magnitude eyeballing.
struct FixedWorkload {
  // Gated: pure work counts, any increase fails the bench gate.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  // Informational wall times (machine-dependent, not gated).
  std::vector<std::pair<std::string, double>> wall;
};

FixedWorkload fixed_workload_counters() {
  FixedWorkload out;
  obs::registry().reset();

  // Streaming-accumulator guard: pre-create the counters the obs stream /
  // timeline layers bump on every update so they appear in `fixed.*` even
  // when untouched.  The gate requires all of them to stay EXACTLY zero
  // across the fixed solves below — proof that with streaming disabled no
  // stream accumulator, timeline snapshot, profile build, or instrumented
  // memory-gauge update rides the Newton hot path (same pattern as the
  // DiagRing null-check guarantee).
  obs::registry().counter("obs.stream_updates");
  obs::registry().counter("obs.timeline_snapshots");
  obs::registry().counter("obs.profile_builds");
  obs::registry().counter("obs.mem_gauge_updates");

  const cell::Technology tech;
  {  // one transient sensor edge (the BM_TransientSensorEdge kernel)
    cell::SensorOptions options;
    options.load_y1 = options.load_y2 = 160e-15;
    cell::ClockPairStimulus stim;
    stim.skew = 0.2e-9;
    const auto setup = cell::make_sensor_bench(tech, options, stim);
    esim::simulate(setup.circuit, cell::sensor_sim_options(stim, 5e-12));
  }
  {  // one DC operating point
    const auto setup =
        cell::make_sensor_bench(tech, {}, cell::ClockPairStimulus{});
    esim::Simulator sim(setup.circuit);
    sim.dc_operating_point();
  }
  {  // one single-fault test
    cell::SensorOptions options;
    options.load_y1 = options.load_y2 = 160e-15;
    cell::ClockPairStimulus stim;
    stim.full_clock = true;
    const auto setup = cell::make_sensor_bench(tech, options, stim);
    fault::TestPlan plan = fault::default_sensor_test_plan(
        setup, tech.interpretation_threshold(), 1);
    plan.dt = 10e-12;
    const auto good = fault::observe(setup.circuit, plan);
    fault::test_fault(setup.circuit, good, fault::Fault::stuck_open("d"),
                      plan);
  }

  out.counters = obs::registry().counters();

  // Solver fast path on the largest bundled netlist: one fixed clock-tree
  // transient in its own counter window (esim.* counters only) so the gate
  // can check the sparse path does no more LU work than it did at the last
  // rebaseline.
  {
    obs::registry().reset();
    esim::Simulator sim(esim::make_clock_tree({}).circuit);
    sim.set_solver_mode(esim::SolverMode::kSparse);
    const auto result = sim.run_transient(clock_tree_sim_options());
    for (const auto& [name, value] : obs::registry().counters()) {
      if (name.rfind("esim.", 0) == 0) {
        out.counters.emplace_back("clocktree_sparse." + name, value);
      }
    }
    out.wall.emplace_back("solver.clocktree_sparse_wall_s",
                          result.stats.wall_seconds);
  }

  // Batched Monte-Carlo fast path: the same fixed 32-sample fig5-style
  // population once scalar and once batched (one full 32-lane block), each
  // in its own counter window.  The batch.* counters are pure work counts
  // (lane occupancy, fallback count, refactorization sweeps — all
  // draw-deterministic), so any change fails the gate; the wall ratio is
  // the headline solver.mc_batch_speedup the gate windows.
  double mc_scalar_wall = 0.0, mc_batch_wall = 0.0;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{32}}) {
    obs::registry().reset();
    scheme::McRunStats mc_stats;
    scheme::run_vmin_montecarlo(tech, {}, mc_bench_options(lanes),
                                &mc_stats);
    (lanes == 1 ? mc_scalar_wall : mc_batch_wall) = mc_stats.wall_seconds;
    if (lanes != 1) {
      for (const auto& [name, value] : obs::registry().counters()) {
        if (name.rfind("batch.", 0) == 0) {
          out.counters.emplace_back("mc_" + name, value);
        }
      }
    }
  }
  out.wall.emplace_back("solver.mc_scalar_wall_s", mc_scalar_wall);
  out.wall.emplace_back("solver.mc_batch_wall_s", mc_batch_wall);
  if (mc_batch_wall > 0.0) {
    out.wall.emplace_back("solver.mc_batch_speedup",
                          mc_scalar_wall / mc_batch_wall);
  }

  // Hierarchical Schur path: the wall-time-vs-size curve on synthesized
  // big clock trees (levels 4/5/6 ~ 2k/8k/33k unknowns on both paths,
  // level 7 ~ 131k hierarchical-only — flat sparse spends minutes in the
  // global ordering there).  Counters are per-(size, mode) windows; the
  // headline solver.bigtree_hier_speedup is the flat/hier wall ratio at
  // the largest size flat sparse still runs (level 6), which the bench
  // gate windows at >= 5x.
  const auto bigtree_options = big_tree_sim_options();
  double hier_wall_l6 = 0.0, sparse_wall_l6 = 0.0;
  for (const std::size_t levels : {std::size_t{4}, std::size_t{5},
                                   std::size_t{6}, std::size_t{7}}) {
    const auto bignet = make_big_tree_net(levels);
    const std::string size_tag = "bigtree_l" + std::to_string(levels);
    for (const auto mode :
         {esim::SolverMode::kSparse, esim::SolverMode::kHierarchical}) {
      const bool hier = mode == esim::SolverMode::kHierarchical;
      if (!hier && levels >= 7) continue;
      obs::registry().reset();
      esim::Simulator sim(bignet.circuit);
      sim.set_solver_mode(mode);
      const auto result = sim.run_transient(bigtree_options);
      const std::string prefix = size_tag + (hier ? "_hier." : "_sparse.");
      for (const auto& [name, value] : obs::registry().counters()) {
        if (name.rfind("esim.", 0) == 0 || name.rfind("schur.", 0) == 0) {
          out.counters.emplace_back(prefix + name, value);
        }
      }
      out.wall.emplace_back(
          "solver." + size_tag + (hier ? "_hier_wall_s" : "_sparse_wall_s"),
          result.stats.wall_seconds);
      if (hier) {
        // The Schur working set (block factors, interface clique,
        // workspaces) straight off the solver — the same number the
        // instrumented runs export as the mem.schur_bytes gauge, which
        // plain bench runs keep disabled to stay off the hot path.
        out.wall.emplace_back("mem." + size_tag + "_schur_bytes",
                              static_cast<double>(sim.schur_memory_bytes()));
      }
      if (levels == 6) {
        (hier ? hier_wall_l6 : sparse_wall_l6) = result.stats.wall_seconds;
      }
    }
  }
  if (hier_wall_l6 > 0.0) {
    out.wall.emplace_back("solver.bigtree_hier_speedup",
                          sparse_wall_l6 / hier_wall_l6);
  }

  // Steady-state refactorization guard: the per-config linear-block
  // factorizations are paid once when a companion configuration is first
  // seen, so doubling the simulated time (more Newton iterations over the
  // same configs) must add exactly ZERO block factorizations.  Emitted as
  // a fixed counter the gate requires to stay 0.
  {
    const auto bignet = make_big_tree_net(4);
    std::uint64_t block_factorizations[2] = {0, 0};
    std::size_t slot = 0;
    for (const double t_end : {0.5e-9, 1e-9}) {
      esim::Simulator sim(bignet.circuit);
      sim.set_solver_mode(esim::SolverMode::kHierarchical);
      auto o = bigtree_options;
      o.t_end = t_end;
      block_factorizations[slot++] =
          sim.run_transient(o).stats.schur_block_factorizations;
    }
    out.counters.emplace_back(
        "bigtree_steady.extra_block_factorizations",
        block_factorizations[1] - block_factorizations[0]);
  }

  obs::registry().reset();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags (--profile, --threads N) before google-benchmark sees
  // the arguments.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--profile") continue;
    if (arg == "--threads") {
      if (i + 1 < argc) ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  bench::profile_init(argc, argv);

  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  const auto fixed = fixed_workload_counters();

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Always emit the machine-readable counter report; timers ride along
  // only under --profile (they perturb the measured loops).  Memory
  // gauges are sampled unconditionally (one cold getrusage) so the bench
  // history carries a peak-RSS / page-fault trend even in plain runs.
  obs::record_mem_gauges();
  obs::Report report("perf_micro");
  report.set_meta("bench", "perf_micro");
  report.capture_provenance();
  report.set_meta("threads", std::to_string(par::default_threads()));
  report.set_meta("lane_width",
                  std::to_string(esim::resolve_batch_lanes(
                      0, esim::kDefaultBatchLanes)));
  report.capture_registry();
  // A traced run (--trace-out / SKS_TRACE=1) also embeds the aggregated
  // call-tree profile, which is what `sks-report attribute` diffs when the
  // bench gate trips.
  if (obs::tracer().enabled()) report.capture_profile();
  for (const auto& [name, value] : fixed.counters) {
    report.set_value("fixed." + name, static_cast<double>(value));
  }
  for (const auto& [name, value] : fixed.wall) {
    report.set_value(name, value);
  }
  report.write_json("BENCH_perf_micro.json");
  std::cout << "perf counters written to BENCH_perf_micro.json" << std::endl;
  return 0;
}
