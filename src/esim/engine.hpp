// Electrical-level simulation engine.
//
// Solves the circuit with modified nodal analysis (MNA): unknowns are the
// non-ground node voltages plus one branch current per voltage source.  Each
// Newton-Raphson iteration assembles the KCL residual F(x) and its Jacobian
// and solves J dx = -F.
//
// Every solve runs on one stamp plan: a symbolic prepass (once per
// Simulator) records a stamp slot for every device terminal pair; per
// iteration the Jacobian starts from a memcpy of a cached template
// (constant resistor/vsource stamps plus the per-timestep capacitor
// companion conductances) and only the MOSFET gm/gds stamps are
// re-evaluated.  The system is solved with a fill-reducing sparse LU whose
// pivot order and fill pattern are reused across iterations
// (esim/sparse.hpp), falling back to a full re-pivoting factorization when
// a pivot degenerates — or, on big clock networks, with the
// Schur-complement solver over the same matrix (esim/schur.hpp; see
// SolverMode).
//
// DC operating point: plain Newton first, then gmin stepping, then source
// stepping — the standard SPICE continuation ladder.
//
// Transient: fixed base timestep with breakpoint alignment on every source
// corner; trapezoidal integration with a backward-Euler step right after
// each breakpoint (damps the trapezoidal ringing a hard corner would
// excite).  On local Newton failure the step is retried with a halved dt.
//
// Concurrency: a Simulator is share-nothing — it owns its circuit snapshot
// and every piece of solver state, and touches nothing global except the
// obs registry/tracer (both concurrency-safe).  The parallel campaign
// drivers (sks::par) therefore run one Simulator per work item on worker
// threads with no locking.  A single Simulator instance is NOT safe to
// share across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "esim/netlist.hpp"

namespace sks {
class ConvergenceError;
}

namespace sks::obs {
class DiagRing;
}

namespace sks::obs::stream {
class WaveformStreams;
}

namespace sks::par {
class ThreadPool;
}

namespace sks::esim {

// Per-run solver telemetry, accumulated by every public solve entry point
// (dc_operating_point / dc_solution / run_transient) and exposed on the
// result objects.  Counting is always on — the increments are integer adds
// that vanish next to an LU refactorization — and the totals are mirrored
// into the global obs registry (`esim.*` counters) when each run finishes,
// so campaign layers can aggregate across runs they did not start
// themselves.
struct SolveStats {
  // Newton-Raphson.
  std::uint64_t newton_calls = 0;       // newton_solve() invocations
  std::uint64_t newton_iterations = 0;  // NR iterations across all calls
  std::uint64_t newton_failures = 0;    // calls that gave up
  std::uint64_t lu_factorizations = 0;  // full LU factorizations with pivot
                                        // search (= lu_pattern_rebuilds)
  std::uint64_t lu_refactorizations = 0;  // numeric-only refactors on the
                                          // frozen pivot order (the
                                          // per-iteration fast path)
  std::uint64_t lu_pattern_rebuilds = 0;  // full factorizations (the first
                                          // one plus every
                                          // degenerate-pivot fallback)
  std::uint64_t lu_singular = 0;        // LU bailouts on a singular matrix
  std::uint64_t lu_nonfinite = 0;       // LU bailouts on non-finite results
                                        // (overflow/NaN, not singularity)
  std::uint64_t sparse_nnz = 0;         // Jacobian nonzeros (0 = no Newton
                                        // iteration ran)
  // Hierarchical (Schur-complement) path; all zero on the flat path.
  std::uint64_t schur_block_factorizations = 0;  // per-block LU factors
                                                 // (config refreshes only —
                                                 // steady-state Newton
                                                 // iterations add ZERO)
  std::uint64_t schur_interface_solves = 0;      // Schur-system solves (one
                                                 // per Newton iteration)
  // DC continuation ladder.
  std::uint64_t dc_solves = 0;          // dc_solve() invocations
  std::uint64_t dc_gmin_ladders = 0;    // gmin-stepping ladders entered
  std::uint64_t dc_gmin_steps = 0;      // rungs solved across those ladders
  std::uint64_t dc_source_ladders = 0;  // source-stepping ladders entered
  std::uint64_t dc_source_steps = 0;    // rungs solved across those ladders
  std::uint64_t dc_damped_retries = 0;  // heavier-damping ladder restarts
  // Transient stepping.
  std::uint64_t steps_accepted = 0;     // recorded time points (minus t=0)
  std::uint64_t steps_rejected = 0;     // adaptive dv_max rejections
  std::uint64_t dt_halvings = 0;        // halvings after a Newton failure
  std::uint64_t be_fallbacks = 0;       // trapezoidal -> BE fallbacks
  std::uint64_t breakpoints_hit = 0;    // source corners honoured
  double min_dt_used = 0.0;             // smallest accepted step [s]; 0 = n/a
  double wall_seconds = 0.0;            // wall time of the run

  void merge(const SolveStats& other);
};

// Mirror one run's SolveStats into the process-wide obs registry (the
// esim.* counters) and bump esim.runs.  The scalar Simulator calls this
// once per public solve; BatchSimulator (esim/batch.hpp) calls it once per
// non-fallback lane so batched and scalar runs report identically.
void mirror_stats_to_registry(const SolveStats& stats);

// LU back end behind the stamp plan.  kSparse factors the whole system
// with the flat SparseLu; kHierarchical tries the partitioned
// Schur-complement solver (esim/schur.hpp) at any size, falling back to
// flat sparse when the pattern has no exploitable linear-block structure;
// kAuto (the default) is kSparse below
// Simulator::kHierarchicalAutoThreshold unknowns and kHierarchical from
// there on.
enum class SolverMode { kAuto, kSparse, kHierarchical };

// Preallocated per-Simulator solver scratch, reused across every Newton
// iteration, transient step and DC continuation rung so the hot loop is
// allocation-free.  Buffers grow on first use and are never shrunk.
struct SolveWorkspace {
  std::vector<double> f;        // KCL residual
  std::vector<double> rhs;      // -F, destroyed by the linear solve
  std::vector<double> dx;       // Newton update
  std::vector<double> x_saved;  // transient step-retry snapshot
  std::vector<double> trial;    // DC continuation-ladder iterate
};

struct NewtonOptions {
  int max_iterations = 80;
  double vtol = 1e-6;       // max |dV| for convergence [V]
  double itol = 1e-9;       // max |F| residual [A]
  double max_step = 0.5;    // NR voltage-update clamp [V]
};

struct TransientOptions {
  double t_end = 10e-9;       // [s]
  double dt = 2e-12;          // base (and initial) timestep [s]
  double dt_min = 1e-16;      // give up below this [s]
  double gmin = 1e-12;        // conductance floor to ground on every node
  bool trapezoidal = true;    // false => backward Euler everywhere
  // Adaptive timestep (voltage-slope control): a step whose largest node
  // movement exceeds dv_max is rejected and halved; quiet steps grow by
  // 1.5x up to dt_max.  Breakpoints are still honoured exactly.  With
  // adaptive off (default) the step is fixed at `dt`.  run_transient
  // requires dv_max > 0 and dt_max >= dt when adaptive is set.
  bool adaptive = false;
  double dv_max = 0.25;       // [V] per step
  double dt_max = 50e-12;     // [s]
  NewtonOptions newton;

  // Observability taps (src/obs/stream.hpp).  With record_waveforms off
  // the result retains NO per-step arrays (time/node_v/vsrc_i stay empty)
  // so a multi-second soak transient runs in bounded memory; pair it with
  // a stream_tap to keep per-node summary statistics instead.  A non-null
  // stream_tap receives every accepted step's non-ground node voltages
  // (values[i] = node i+1) regardless of record_waveforms.
  bool record_waveforms = true;
  obs::stream::WaveformStreams* stream_tap = nullptr;
};

struct TransientResult {
  std::vector<double> time;
  // node_v[node_index][step]; node 0 (ground) is included and all-zero.
  std::vector<std::vector<double>> node_v;
  // vsrc_i[source_index][step]: MNA branch current, defined as the current
  // flowing from the source's positive terminal *through the source* to the
  // negative terminal.  The current a supply delivers to the circuit is the
  // negative of this.
  std::vector<std::vector<double>> vsrc_i;

  // Solver telemetry for this run (includes the initial DC solve).
  SolveStats stats;

  std::size_t steps() const { return time.size(); }
};

class Simulator {
 public:
  // The circuit is copied: the simulator owns an immutable snapshot.
  explicit Simulator(Circuit circuit);
  ~Simulator();
  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;

  const Circuit& circuit() const { return circuit_; }

  // LU back-end selection (see SolverMode).  The mode is resolved when the
  // stamp plan is built, on the first solve; switching to a different mode
  // drops the plan so the next solve rebuilds it for the new back end.
  void set_solver_mode(SolverMode mode);
  SolverMode solver_mode() const { return solver_mode_; }
  // Whether solves run through the hierarchical Schur solver: kHierarchical
  // tries to partition at any size, kAuto only from
  // kHierarchicalAutoThreshold unknowns; either way a pattern with no
  // exploitable linear-block structure falls back to flat sparse.
  bool hierarchical_path_active() const;
  // Heap footprint of the hierarchical Schur solver (block factors,
  // interface clique, workspaces), 0 when the hierarchical path is not
  // active or the stamp plan has not been built yet.  The same number the
  // instrumented runs export as the mem.schur_bytes gauge; exposed directly
  // so un-instrumented benches can report it without enabling obs.
  std::size_t schur_memory_bytes() const;

  // kAuto attempts the hierarchical partition at this many unknowns (large
  // enough that every mid-size bench keeps its flat-sparse counters
  // bit-identical).
  static constexpr std::size_t kHierarchicalAutoThreshold = 4096;

  // Work-stealing pool used for parallel linear-block elimination on the
  // hierarchical path (nullptr = serial elimination).  Results are
  // bit-identical with or without a pool; the Simulator does not own it and
  // never uses it outside its own solve calls.
  void set_pool(par::ThreadPool* pool);

  // Node voltages (indexed by NodeId::index, ground included as 0 V) at the
  // DC operating point with sources evaluated at time `t`.
  // Throws ConvergenceError when every continuation strategy fails.
  std::vector<double> dc_operating_point(double t = 0.0);

  // Full DC solution (node voltages + voltage-source branch currents, see
  // TransientResult::vsrc_i for the sign convention).  An optional warm
  // start with previous node voltages lets sweeps follow hysteresis
  // branches of latching circuits.
  struct DcSolution {
    std::vector<double> node_v;
    std::vector<double> vsrc_i;
    SolveStats stats;
  };
  DcSolution dc_solution(double t = 0.0,
                         const std::vector<double>* node_guess = nullptr);

  TransientResult run_transient(const TransientOptions& options);

  // Telemetry of the most recent public solve (also available on the result
  // objects; this accessor serves the paths that discard them, e.g. a
  // ConvergenceError handler doing a post-mortem).
  const SolveStats& last_stats() const { return stats_; }

  // --- Numerical-health diagnostics & postmortem capture -----------------
  // With diagnostics on, every Newton iteration records an obs::DiagRecord
  // (residual, |dx|, damping, LU status, pivot growth, condition estimate)
  // into a bounded per-Simulator ring, and each solve mirrors its health
  // into the obs registry (nr.residual / lu.pivot_growth / lu.cond_est).
  // Off (the default), the hot loop pays exactly one pointer null-check
  // and performs zero allocations.  Enabled explicitly here, implicitly by
  // set_postmortem_dir, or process-wide by the SKS_POSTMORTEM environment
  // variable ("1" = bundles to ./sks-postmortem, any other non-empty value
  // = bundles to that directory).
  void set_diagnostics(bool on);
  bool diagnostics_enabled() const { return diag_ != nullptr; }
  // The iteration ring of the most recent solve; nullptr when diagnostics
  // are off.
  const obs::DiagRing* diag_ring() const { return diag_.get(); }

  // Where failure bundles are written ("" = none).  A non-empty directory
  // implies set_diagnostics(true); every ConvergenceError thrown afterwards
  // carries bundle_path() pointing at a self-contained bundle (netlist,
  // options, iteration ring, waveform tail, manifest — see
  // esim/postmortem.hpp).
  void set_postmortem_dir(std::string dir);
  const std::string& postmortem_dir() const { return postmortem_dir_; }

 private:
  std::size_t unknown_count() const;
  std::size_t node_unknown(NodeId n) const;  // valid only for non-ground

  // Assemble F at solution x into f_out and the Jacobian into the stamp
  // plan's sparse matrix (template memcpy + MOSFET stamps through
  // precomputed slots).  Builds the plan on first use.  `h <= 0` selects
  // DC (capacitors open); `source_scale` multiplies every source value
  // (used for source stepping).
  void assemble_sparse(const std::vector<double>& x, double t, double h,
                       bool use_trap, const std::vector<double>& cap_prev_v,
                       const std::vector<double>& cap_prev_i, double gmin,
                       double source_scale, std::vector<double>& f_out) const;

  // Symbolic prepass: the sparse pattern, per-device stamp slots, the
  // constant stamp template and the LU back end (flat ordering or Schur
  // partition).  Cached until the solver mode changes (the circuit
  // snapshot is immutable).
  void build_stamp_plan() const;

  // One Newton solve; returns true on convergence, x updated in place.
  bool newton_solve(std::vector<double>& x, double t, double h, bool use_trap,
                    const std::vector<double>& cap_prev_v,
                    const std::vector<double>& cap_prev_i, double gmin,
                    double source_scale, const NewtonOptions& options) const;

  // DC solve with the full continuation ladder (plain NR, gmin stepping,
  // source stepping).  Returns true on success, x updated in place.
  bool dc_solve(std::vector<double>& x, double t,
                const NewtonOptions& options) const;

  // Name of the node with the largest |KCL residual| at `x` — the context
  // attached to ConvergenceError so failures name their worst net.
  std::string worst_residual_node(const std::vector<double>& x, double t,
                                  double h, bool use_trap,
                                  const std::vector<double>& cap_prev_v,
                                  const std::vector<double>& cap_prev_i,
                                  double gmin) const;

  // Classify the failure, write the postmortem bundle (when a directory is
  // configured) and stamp its path onto the error.  Never throws: bundle
  // I/O problems must not mask the solver error.
  void attach_postmortem(ConvergenceError& err, const NewtonOptions& newton,
                         const TransientOptions* transient,
                         const TransientResult* waveforms,
                         bool dt_at_floor) const;

  Circuit circuit_;
  SolverMode solver_mode_ = SolverMode::kAuto;
  // Accumulated by const solver internals during a run; reset by each
  // public entry point.
  mutable SolveStats stats_;
  // Reused solver scratch and the lazily built sparse stamp plan.  Both are
  // solver-internal caches mutated by const solve paths; they are what
  // makes a single Simulator instance NOT shareable across threads.
  mutable SolveWorkspace ws_;
  struct StampPlan;
  mutable std::unique_ptr<StampPlan> plan_;
  // Pool for parallel block elimination (hierarchical path only, not owned).
  par::ThreadPool* pool_ = nullptr;
  // Diagnostics ring: allocated only while diagnostics are on; its null
  // check is the entire hot-loop cost of the feature when off.
  mutable std::unique_ptr<obs::DiagRing> diag_;
  std::string postmortem_dir_;
};

// Convenience one-shot: DC operating point of a circuit.
std::vector<double> dc_operating_point(const Circuit& circuit, double t = 0.0);

// Convenience one-shot transient.
TransientResult simulate(const Circuit& circuit,
                         const TransientOptions& options);

}  // namespace sks::esim
