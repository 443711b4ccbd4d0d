// Self-contained failure postmortem bundles.
//
// When a solve dies (or on demand), the engine emits one directory with
// everything needed to understand and reproduce the failure away from the
// process that hit it:
//
//   <dir>/pm_<phase>_<pid>_<seq>/
//     manifest.json     phase, failure class, message, solver options,
//                       SolveStats, worst node, repro command
//     netlist.sp        the offending circuit through spice_io (re-parsable)
//     iterations.json   the DiagRing: per-NR-iteration residual/|dx|/LU health
//     waveforms.vcd     last-K recorded timesteps (transient failures only)
//
// `sks-report explain <bundle>` pretty-prints the diagnosis; `sks-report
// repro <bundle>` re-runs the embedded netlist with the embedded options
// and checks the same failure class reproduces.
//
// The writer allocates freely — it only ever runs on the failure path or
// on an explicit request, never inside the Newton loop.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "esim/engine.hpp"
#include "obs/diag.hpp"

namespace sks::esim {

struct PostmortemOptions {
  std::string dir = "sks-postmortem";  // parent directory for bundles
  std::size_t waveform_tail = 64;      // last-K recorded steps into the VCD
};

// Everything the bundle writer serializes.  Pointer members are optional
// context the caller may not have (no waveforms for a DC failure).
struct PostmortemContext {
  const Circuit* circuit = nullptr;  // required
  std::string phase;                 // "dc", "transient_dc", "transient"
  std::string reason = "failure";    // "failure" | "on_demand"
  std::string failure_class;         // obs::to_string(FailureClass) / "none"
  std::string message;               // the ConvergenceError text
  double t = 0.0;
  long iterations = 0;
  std::string worst_node;
  std::string solver_mode = "sparse";  // LU back end that ran: "sparse" |
                                       // "hierarchical"
  bool dt_at_floor = false;          // transient gave up at dt_min
  SolveStats stats;
  NewtonOptions newton;
  const TransientOptions* transient = nullptr;  // null for DC solves
  const obs::DiagRing* ring = nullptr;
  const TransientResult* waveforms = nullptr;   // tail source, may be null
};

// Write one bundle; returns its directory.  Throws sks::Error on I/O
// failure (callers on the engine's failure path swallow this so a full
// disk cannot mask the solver error).
std::string write_postmortem_bundle(const PostmortemContext& context,
                                    const PostmortemOptions& options);

// Read side, used by `sks-report explain` / `repro`.
struct BundleManifest {
  int schema_version = 1;
  std::string phase;
  std::string reason;
  std::string failure_class;
  std::string message;
  std::string worst_node;
  std::string solver_mode;  // "sparse" | "hierarchical"
  double t = 0.0;
  long iterations = 0;
  bool dt_at_floor = false;
  std::uint64_t lu_singular = 0;
  std::uint64_t lu_nonfinite = 0;
  std::uint64_t dt_halvings = 0;
  NewtonOptions newton;
  TransientOptions transient;
  bool has_transient = false;
  std::string netlist_file = "netlist.sp";  // relative to the bundle dir
};

BundleManifest read_postmortem_manifest(const std::string& bundle_dir);

// The DiagRing records from <bundle>/iterations.json (empty when absent).
std::vector<obs::DiagRecord> read_postmortem_iterations(
    const std::string& bundle_dir);

// Re-derive the failure classification from a parsed bundle — the same
// classifier the engine stamped into the manifest, so `explain` can verify
// rather than trust it.
obs::FailureClass classify_bundle(const BundleManifest& manifest,
                                  const std::vector<obs::DiagRecord>& tail);

}  // namespace sks::esim
