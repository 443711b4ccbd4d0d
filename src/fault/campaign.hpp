// Fault-simulation campaign: run a whole fault universe through the
// electrical test and aggregate coverage, per fault kind, with and without
// IDDQ — the numbers of the paper's Section 3.
//
// Beyond the verdicts, a campaign aggregates run telemetry (per-fault wall
// times, solver convergence health) into `CampaignStats` and can export the
// whole run as a machine-readable obs::Report.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "esim/netlist.hpp"
#include "fault/detect.hpp"
#include "obs/report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sks::fault {

struct KindSummary {
  std::size_t total = 0;
  std::size_t logic_detected = 0;
  std::size_t iddq_only = 0;   // detected by IDDQ but not logically
  std::size_t unsimulated = 0;

  double logic_coverage() const {
    return total == 0 ? 0.0
                      : static_cast<double>(logic_detected) /
                            static_cast<double>(total);
  }
  double combined_coverage() const {
    return total == 0 ? 0.0
                      : static_cast<double>(logic_detected + iddq_only) /
                            static_cast<double>(total);
  }
};

// Aggregated telemetry of one campaign run.
struct CampaignStats {
  double wall_seconds = 0.0;       // whole campaign, including the good run
  double good_sim_seconds = 0.0;   // fault-free reference simulation
  util::RunningStats fault_seconds;  // per-fault wall time distribution
  esim::SolveStats solve;          // engine stats summed over faulty runs
  std::size_t unsimulated = 0;     // faults abandoned on ConvergenceError
};

// Called after every tested fault; `done` counts tested faults, `total` is
// the universe size.  The verdict reference is valid only for the duration
// of the call.  Parallel campaigns fire the callback in universe order
// (done = 1, 2, ..., total) from whichever worker completed the gap, under
// an internal lock — callbacks need no synchronization of their own but
// must not re-enter the campaign.
using CampaignProgress =
    std::function<void(std::size_t done, std::size_t total,
                       const FaultVerdict& last)>;

struct CampaignOptions {
  InjectOptions inject;
  // Worker threads testing faults concurrently.  0 = par::default_threads()
  // (bench --threads flag, then SKS_THREADS, then hardware_concurrency);
  // 1 = fully serial in the calling thread.  Any value produces
  // bit-identical verdicts, stats aggregates and progress order: each fault
  // test is share-nothing (its Simulator owns a circuit snapshot) and
  // results are committed in universe order.
  std::size_t threads = 0;
  // Ignored: every fault runs on its own scalar Simulator.  Observation
  // transients step adaptively (observation_options) and the batch engine
  // retires adaptive lanes to the scalar path at once, so campaigns do not
  // batch.  Kept only so existing callers that set it still compile.
  std::size_t batch = 0;
};

struct CampaignReport {
  std::vector<FaultVerdict> verdicts;
  CampaignStats stats;

  std::map<FaultKind, KindSummary> by_kind() const;
  KindSummary overall() const;
  // Labels of faults escaping logic detection (and, optionally, IDDQ too).
  std::vector<std::string> escapes(bool with_iddq) const;

  util::TextTable summary_table() const;

  // Machine-readable run report: coverage + timing + convergence health
  // (schema documented in obs/report.hpp and EXPERIMENTS.md).
  obs::Report run_report(const std::string& name = "fault_campaign") const;
};

// Simulate the fault-free circuit once, then every fault in the universe
// (in parallel across options.threads workers).  `progress` (optional) is
// invoked after each fault — campaign drivers use it for live reporting
// without holding the whole verdict list.  An exception thrown by the
// progress callback cancels the remaining faults and propagates.
CampaignReport run_campaign(const esim::Circuit& good_circuit,
                            const std::vector<Fault>& universe,
                            const TestPlan& plan,
                            const CampaignOptions& options,
                            const CampaignProgress& progress = nullptr);
// (The options parameter has no default so 3-argument calls keep resolving
// to the InjectOptions overload below.)

// Back-compat entry point: inject options only, default parallelism.
CampaignReport run_campaign(const esim::Circuit& good_circuit,
                            const std::vector<Fault>& universe,
                            const TestPlan& plan,
                            const InjectOptions& inject_options = {},
                            const CampaignProgress& progress = nullptr);

}  // namespace sks::fault
