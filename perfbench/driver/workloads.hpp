// The four benchmark workloads, each driven two ways:
//
//  * run_unit: through the program's own public driver (run_vmin_montecarlo,
//    run_campaign, measure_sensor/find_tau_min, Simulator::run_transient) at
//    a given thread count -- what the end-to-end metrics time;
//  * replay_unit: through the layer functions those drivers call
//    (make_sensor_bench, inject, BatchSimulator::run_transients,
//    Simulator::{dc_solution,run_transient}, measure_result, classify_fault),
//    one span per call -- what the per-layer metrics are made of.
//
// Both return the same UnitResult outputs for the same unit; the caller
// checks that they agree with each other and with the recorded goldens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "esim/engine.hpp"

namespace perfbench {

double now_s();

// One replayed call: name ("<layer>.<call>"), wall interval, enclosing span
// (-1 = none) and the item it worked for.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::size_t item = 0;
};

// In-memory span recorder; written out once, after the run.
class Recorder {
 public:
  void open(const char* name, std::size_t item);
  void close();
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null recorder records nothing (the untraced set-up path).
class Scope {
 public:
  Scope(Recorder* rec, const char* name, std::size_t item = 0) : rec_(rec) {
    if (rec_ != nullptr) rec_->open(name, item);
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
};

// Work counted over every solve a replay performs (the DC probe excluded).
struct Tally {
  sks::esim::SolveStats solve;
  std::uint64_t batch_lanes = 0;
  std::uint64_t batch_fallbacks = 0;
  std::uint64_t batch_refactor_passes = 0;
  std::uint64_t schur_bytes = 0;  // largest Schur working set seen
  std::uint64_t unknowns = 0;     // largest MNA system seen
  std::uint64_t steps = 0;        // accepted steps of single-edge sensor runs
  std::uint64_t window_steps = 0;  // ... of which inside [edge, strobe]
  std::vector<double> measure_s;   // per-item sensor measurement latency
};

// Outputs of one unit of work.  `digest` holds the discrete outputs
// (indications, verdicts, Tab. 1 counts) compared exactly; `values` the
// continuous ones (V_min, tau_min, crossing times) compared with a
// tolerance.
struct UnitResult {
  std::string id;
  std::size_t items = 0;
  double wall = 0.0;  // seconds inside the driver call(s)
  double busy = 0.0;  // summed per-item busy seconds the driver reports
  std::string digest;
  std::vector<std::pair<std::string, double>> values;
  std::vector<double> item_seconds;  // per-item driver seconds, if reported
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Rounds in the golden pool, rounds a run prepares, and units per round.
  virtual std::size_t pool_rounds() const = 0;
  virtual std::size_t slice_rounds() const { return pool_rounds(); }
  virtual std::size_t units_per_round() const = 0;
  // Rounds of the fixed-size traced pass.
  virtual std::size_t trace_rounds() const = 0;
  // Consecutive rounds that together cover every configuration once (e.g.
  // one round per load): the unit of timing.
  virtual std::size_t cycle_rounds() const { return 1; }

  // Generate the inputs of pool rounds first, first+1, ..., first+n-1
  // (mod pool) plus the nominal benches.  Run round k uses prepared round
  // k mod n.
  virtual void setup(std::size_t first, std::size_t n, Recorder* rec) = 0;

  virtual UnitResult run_unit(std::size_t k, std::size_t u,
                              std::size_t threads) = 0;
  virtual UnitResult replay_unit(std::size_t k, std::size_t u, Recorder& rec,
                                 Tally& tally) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
