// Failure postmortem bundles: forced non-convergence must carry the
// failure context on its ConvergenceError, emit a self-contained bundle
// whose classifier names the right class and whose manifest names the LU
// back end that ran, and embed a netlist that reproduces the same failure
// class on that back end when re-run from the bundle alone.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "esim/benchnets.hpp"
#include "esim/engine.hpp"
#include "esim/postmortem.hpp"
#include "esim/spice_io.hpp"
#include "obs/diag.hpp"
#include "util/error.hpp"

namespace sks::esim {
namespace {

namespace fs = std::filesystem;

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

std::string unique_dir(const std::string& tag) {
  static int seq = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("sks_pm_" + std::to_string(::getpid()) + "_" + tag +
                        "_" + std::to_string(seq++));
  return dir.string();
}

struct CapturedFailure {
  std::string phase;
  std::string worst_node;
  double sim_time = 0.0;
  long iterations = 0;
  std::string bundle;
  SolveStats stats;
};

CapturedFailure fail_dc(const Circuit& circuit, SolverMode mode,
                        const std::string& postmortem_dir) {
  Simulator sim(circuit);
  sim.set_solver_mode(mode);
  if (!postmortem_dir.empty()) sim.set_postmortem_dir(postmortem_dir);
  CapturedFailure out;
  try {
    sim.dc_operating_point();
    ADD_FAILURE() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    out.phase = e.phase();
    out.worst_node = e.worst_node();
    out.sim_time = e.sim_time();
    out.iterations = e.iterations();
    out.bundle = e.bundle_path();
    out.stats = sim.last_stats();
  }
  return out;
}

// Re-run a bundle's netlist on the bundle's LU back end, the way
// `sks-report repro` does, and check the same failure class comes back.
void expect_bundle_reproduces(const std::string& bundle) {
  const BundleManifest manifest = read_postmortem_manifest(bundle);
  std::ifstream in(fs::path(bundle) / manifest.netlist_file);
  ASSERT_TRUE(in.good());
  std::ostringstream netlist;
  netlist << in.rdbuf();
  Simulator rerun(parse_spice(netlist.str()));
  rerun.set_solver_mode(manifest.solver_mode == "hierarchical"
                            ? SolverMode::kHierarchical
                            : SolverMode::kSparse);
  EXPECT_EQ(rerun.hierarchical_path_active(),
            manifest.solver_mode == "hierarchical");
  rerun.set_diagnostics(true);
  try {
    rerun.dc_solution(manifest.t);
    FAIL() << "bundle netlist should not converge";
  } catch (const ConvergenceError& e) {
    obs::FailureEvidence evidence;
    evidence.phase = e.phase();
    evidence.lu_singular = rerun.last_stats().lu_singular;
    evidence.lu_nonfinite = rerun.last_stats().lu_nonfinite;
    ASSERT_NE(rerun.diag_ring(), nullptr);
    evidence.tail = rerun.diag_ring()->snapshot();
    EXPECT_EQ(obs::to_string(obs::classify_failure(evidence)),
              manifest.failure_class);
  }
}

TEST(Postmortem, ConvergenceErrorPayloadCarriesFailureContext) {
  const CapturedFailure f = fail_dc(singular_circuit(), SolverMode::kAuto, "");
  EXPECT_EQ(f.phase, "dc");
  EXPECT_EQ(f.worst_node, "n");
  EXPECT_EQ(f.sim_time, 0.0);
  EXPECT_EQ(f.iterations, static_cast<long>(f.stats.newton_iterations));
  EXPECT_GT(f.stats.lu_singular, 0u);
  EXPECT_EQ(f.stats.lu_nonfinite, 0u);
  // No bundle directory configured: no bundle path on the error.
  EXPECT_TRUE(f.bundle.empty());
}

TEST(Postmortem, BundleWrittenAndCorrectlyClassified) {
  const std::string dir = unique_dir("classify");
  const CapturedFailure f = fail_dc(singular_circuit(), SolverMode::kAuto, dir);
  ASSERT_FALSE(f.bundle.empty());
  EXPECT_EQ(f.bundle.rfind(dir, 0), 0u)
      << "bundle must live under the configured directory";
  EXPECT_TRUE(fs::exists(fs::path(f.bundle) / "manifest.json"));
  EXPECT_TRUE(fs::exists(fs::path(f.bundle) / "netlist.sp"));
  EXPECT_TRUE(fs::exists(fs::path(f.bundle) / "iterations.json"));

  const BundleManifest manifest = read_postmortem_manifest(f.bundle);
  EXPECT_EQ(manifest.phase, "dc");
  EXPECT_EQ(manifest.failure_class, "singular_system");
  EXPECT_EQ(manifest.solver_mode, "sparse");
  EXPECT_GT(manifest.lu_singular, 0u);
  EXPECT_FALSE(manifest.has_transient);

  // `sks-report explain` re-derives the class instead of trusting the
  // manifest; both routes must agree.
  const auto tail = read_postmortem_iterations(f.bundle);
  EXPECT_FALSE(tail.empty());
  EXPECT_EQ(classify_bundle(manifest, tail),
            obs::FailureClass::kSingularSystem);
  fs::remove_all(dir);
}

TEST(Postmortem, BundleNetlistReproducesSameFailureClass) {
  const std::string dir = unique_dir("roundtrip");
  const CapturedFailure f = fail_dc(singular_circuit(), SolverMode::kAuto, dir);
  ASSERT_FALSE(f.bundle.empty());
  expect_bundle_reproduces(f.bundle);
  fs::remove_all(dir);
}

TEST(Postmortem, HierarchicalBundleRecordsAndReproducesItsPath) {
  // Two ideal sources pin a partitionable clock tree's root to different
  // voltages: the Schur interface system is singular.
  const auto net = make_clock_tree({});
  Circuit circuit = net.circuit;
  circuit.add_vsource("vdup1", net.root, circuit.ground(), Waveform::dc(1.0));
  circuit.add_vsource("vdup2", net.root, circuit.ground(), Waveform::dc(2.0));
  const std::string dir = unique_dir("hier");
  const CapturedFailure f =
      fail_dc(circuit, SolverMode::kHierarchical, dir);
  ASSERT_FALSE(f.bundle.empty());
  const BundleManifest manifest = read_postmortem_manifest(f.bundle);
  EXPECT_EQ(manifest.solver_mode, "hierarchical");
  EXPECT_EQ(manifest.failure_class, "singular_system");
  expect_bundle_reproduces(f.bundle);
  fs::remove_all(dir);
}

TEST(Postmortem, DiagnosticsOffByDefaultAndSwitchable) {
  Simulator sim(singular_circuit());
  EXPECT_FALSE(sim.diagnostics_enabled());
  EXPECT_EQ(sim.diag_ring(), nullptr);
  sim.set_diagnostics(true);
  EXPECT_TRUE(sim.diagnostics_enabled());
  ASSERT_NE(sim.diag_ring(), nullptr);
  try {
    sim.dc_operating_point();
  } catch (const ConvergenceError&) {
  }
  EXPECT_FALSE(sim.diag_ring()->empty())
      << "failed iterations must be recorded";
  sim.set_diagnostics(false);
  EXPECT_EQ(sim.diag_ring(), nullptr);
}

TEST(Postmortem, EnvVarEnablesBundles) {
  const std::string dir = unique_dir("env");
  ::setenv("SKS_POSTMORTEM", dir.c_str(), 1);
  Simulator sim(singular_circuit());
  ::unsetenv("SKS_POSTMORTEM");
  EXPECT_TRUE(sim.diagnostics_enabled());
  EXPECT_EQ(sim.postmortem_dir(), dir);
  try {
    sim.dc_operating_point();
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_FALSE(e.bundle_path().empty());
    EXPECT_TRUE(fs::exists(fs::path(e.bundle_path()) / "manifest.json"));
  }
  fs::remove_all(dir);
}

TEST(Postmortem, WriterEmitsWaveformTailForTransientContext) {
  // Drive the writer directly with a synthetic transient context; the
  // engine only reaches this path on genuine timestep collapse, which is
  // hard to provoke deterministically from a well-posed netlist.
  Circuit c;
  const auto n = c.node("n");
  c.add_vsource("V1", n, c.ground(), Waveform::dc(1.0));
  c.add_resistor("R1", n, c.ground(), 1000.0);

  TransientResult waves;
  waves.time = {0.0, 1e-12, 2e-12, 3e-12};
  waves.node_v = {{0.0, 0.0, 0.0, 0.0}, {0.0, 0.5, 0.9, 1.0}};
  waves.vsrc_i = {{0.0, 0.0, 0.0, 0.0}};

  obs::DiagRing ring;
  obs::DiagRecord rec;
  rec.t = 3e-12;
  rec.residual = 1.0;
  ring.push(rec);

  TransientOptions tran;
  PostmortemContext ctx;
  ctx.circuit = &c;
  ctx.phase = "transient";
  ctx.failure_class = "timestep_collapse";
  ctx.message = "synthetic";
  ctx.t = 3e-12;
  ctx.dt_at_floor = true;
  ctx.transient = &tran;
  ctx.ring = &ring;
  ctx.waveforms = &waves;

  PostmortemOptions opt;
  opt.dir = unique_dir("waves");
  opt.waveform_tail = 2;
  const std::string bundle = write_postmortem_bundle(ctx, opt);
  EXPECT_TRUE(fs::exists(fs::path(bundle) / "waveforms.vcd"));

  const BundleManifest manifest = read_postmortem_manifest(bundle);
  EXPECT_EQ(manifest.phase, "transient");
  EXPECT_TRUE(manifest.dt_at_floor);
  EXPECT_TRUE(manifest.has_transient);
  EXPECT_EQ(classify_bundle(manifest, read_postmortem_iterations(bundle)),
            obs::FailureClass::kTimestepCollapse);
  fs::remove_all(opt.dir);
}

}  // namespace
}  // namespace sks::esim
