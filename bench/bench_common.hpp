// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "esim/batch.hpp"
#include "esim/trace.hpp"
#include "esim/vcd.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"

namespace sks::bench {

// Sample-count scaling: SKS_BENCH_SCALE=2 doubles every Monte-Carlo
// population (for tighter statistics), =0.2 runs a quick smoke pass.
inline double scale() {
  if (const char* env = std::getenv("SKS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

inline std::size_t scaled(std::size_t n) {
  const double s = scale() * static_cast<double>(n);
  return s < 1.0 ? 1 : static_cast<std::size_t>(s);
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n\n";
}

// Output paths requested on the command line (empty = not requested).
struct RunOutputs {
  std::string trace_out;  // Chrome trace-event JSON (--trace-out)
  std::string vcd_out;    // waveform VCD (--vcd-out, fig benches)
  std::string csv_out;    // waveform CSV (--csv-out, fig benches)
};

inline RunOutputs& run_outputs() {
  static RunOutputs outputs;
  return outputs;
}

// Run telemetry: `--profile` on the command line (or SKS_PROFILE=1 in the
// environment) turns on the obs layer — the span timers and memory
// gauges — for the whole run; `write_profile_report()` then dumps a
// machine-readable BENCH_<name>.json next to the binary's cwd.  With
// profiling off both calls are no-ops, keeping the figures' wall times
// untouched.
//
// Tracing: `--trace-out FILE` (or SKS_TRACE=1, default path
// TRACE_<name>.json) additionally records obs spans — per-solve, per-fault,
// per-MC-sample — and the solver's fallback / fault-verdict markers, and
// exports them as Chrome trace-event JSON for Perfetto / chrome://tracing.
// Waveform benches also honour `--vcd-out FILE` / `--csv-out FILE` for
// GTKWave-compatible VCD and flat CSV dumps of their node-voltage traces.
//
// Parallelism: every driver also understands `--threads N` (equivalent to
// SKS_THREADS=N), which sets the process-wide default worker count the
// campaign/Monte-Carlo layers resolve their `threads = 0` knob against.
// Results are bit-identical for any N; only the wall time changes.
//
// Timeline: `--timeline FILE` (or SKS_TIMELINE=FILE in the environment)
// streams append-only JSONL snapshots of the live metrics/progress state
// while the run is in flight — see obs/timeline.hpp for the schema and the
// SKS_TIMELINE_EVERY / SKS_TIMELINE_WALL_S / SKS_TIMELINE_SIM_S cadence
// knobs.  `sks-report tail FILE --follow` renders it live: this is the
// run's live view.
inline bool profile_init(int argc, char** argv) {
  bool on = obs::enabled();  // SKS_PROFILE already honoured by the obs layer
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) on = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long n = std::atol(argv[i + 1]);
      if (n > 0) par::set_default_threads(static_cast<std::size_t>(n));
    }
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      run_outputs().trace_out = argv[i + 1];
      obs::tracer().set_enabled(true);
    }
    if (std::strcmp(argv[i], "--vcd-out") == 0 && i + 1 < argc) {
      run_outputs().vcd_out = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--csv-out") == 0 && i + 1 < argc) {
      run_outputs().csv_out = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--timeline") == 0 && i + 1 < argc) {
      obs::TimelineOptions topt = obs::timeline().options();
      topt.path = argv[i + 1];
      obs::timeline().configure(topt);
    }
  }
  if (on) obs::set_enabled(true);
  return on;
}

// Chrome trace export; no-op unless tracing was enabled (--trace-out or
// SKS_TRACE=1).
inline void write_trace_report(const std::string& name) {
  if (!obs::tracer().enabled()) return;
  const std::string path = run_outputs().trace_out.empty()
                               ? "TRACE_" + name + ".json"
                               : run_outputs().trace_out;
  obs::tracer().write_chrome_trace(path);
  std::cout << "[trace] Chrome trace written to " << path
            << " (open in Perfetto or chrome://tracing)\n";
}

inline void write_profile_report(const std::string& name) {
  // Memory gauges refresh at the end of EVERY bench run — profiling on or
  // off — so any report written below (and the bench history built from
  // it) carries the peak-RSS / page-fault trend.  Cold: one getrusage.
  obs::record_mem_gauges();
  // Final timeline snapshot BEFORE the registry is captured: the snapshot
  // bumps its own seq counter first, so the last JSONL line and the
  // BENCH_<name>.json below agree on every counter exactly.
  if (obs::timeline().enabled()) obs::timeline().snapshot("final");
  if (obs::enabled()) {
    obs::Report report(name);
    report.set_meta("bench", name);
    report.set_meta("scale", std::to_string(scale()));
    // Provenance: commit/compiler/host identify WHERE the numbers came
    // from; threads and lane width identify the run shape — together they
    // make a history.jsonl trend attributable (and let its reader
    // discount, say, a laptop run mixed into CI history).
    report.capture_provenance();
    report.set_meta("threads", std::to_string(par::default_threads()));
    report.set_meta("lane_width",
                    std::to_string(esim::resolve_batch_lanes(
                        0, esim::kDefaultBatchLanes)));
    report.capture_registry();
    report.capture_trace();
    // A traced run also embeds the aggregated call-tree profile and writes
    // the collapsed-stack text next to the report (flamegraph.pl input).
    if (obs::tracer().enabled()) {
      report.capture_profile();
      if (!report.profile().empty()) {
        const std::string collapsed = "FLAME_" + name + ".collapsed";
        std::ofstream flame(collapsed, std::ios::binary | std::ios::trunc);
        if (flame.good()) {
          flame << report.profile().collapsed_stacks();
          std::cout << "[profile] collapsed stacks written to " << collapsed
                    << "\n";
        }
      }
    }
    const std::string path = "BENCH_" + name + ".json";
    report.write_json(path);
    std::cout << "\n[profile] run report written to " << path << std::endl;
  }
  write_trace_report(name);
}

// Waveform export for the figure benches; no-op unless --vcd-out /
// --csv-out was given.
inline void write_waveforms(const std::vector<esim::Trace>& traces) {
  if (!run_outputs().vcd_out.empty()) {
    esim::write_vcd(run_outputs().vcd_out, traces);
    std::cout << "[trace] VCD waveforms written to " << run_outputs().vcd_out
              << " (open in GTKWave)\n";
  }
  if (!run_outputs().csv_out.empty()) {
    esim::write_trace_csv(run_outputs().csv_out, traces);
    std::cout << "[trace] CSV waveforms written to " << run_outputs().csv_out
              << "\n";
  }
}

}  // namespace sks::bench
