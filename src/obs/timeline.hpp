// Metrics timeline: append-only JSONL snapshots of the live telemetry
// state, written *while* a run is in flight so a multi-hour campaign is
// observable before it finishes (tail the file, or `sks-report tail`).
//
// Each snapshot is one JSON object on one line:
//
//   {"seq": n, "label": "...", "wall_s": x, ["sim_t": x,]
//    ["progress": {"name": "...", "done": n, "total": n, "elapsed_s": x,
//                  "rate_per_s": x, "recent_rate_per_s": x, "eta_s": x,
//                  "partial": {"<key>": x, ...}},]
//    "counters": {...}, "gauges": {...},
//    "timers": {"<name>": {"count": n, "total_s": x}},
//    "streams": {"<name>": {"count": n, "mean": x, "stddev": x, "min": x,
//                           "max": x, "p50": x, "p90": x, "p99": x}},
//    "trace": {"events": n, "dropped": n}}
//
// `seq` is strictly monotone within a process; the trace block surfaces
// the drop counter of the bounded trace buffers so silent saturation is
// visible in each snapshot, not only at the end of the run.
//
// This file is the run's live view: `sks-report tail FILE --follow`
// renders the newest snapshot while the run is in flight.
//
// Cadence — three independent triggers, all optional:
//   * every N committed items (OrderedSink commit order, so the progress
//     content of item-triggered snapshots is deterministic at any thread
//     count; only the wall-clock rate/ETA fields vary);
//   * a minimum wall-clock interval (tick());
//   * a simulation-time interval (the engine's transient loop calls
//     on_sim_time() per accepted step — meant for one long soak transient,
//     not for swarms of short parallel solves).
//
// Cost model, mirroring Span: with the timeline disabled (the
// default) every hook is one relaxed atomic load and a branch — no clock
// read, no lock, no allocation — so the hooks stay in place permanently.
//
// Enabling: SKS_TIMELINE=<path> in the environment (optionally
// SKS_TIMELINE_EVERY=<items>, SKS_TIMELINE_WALL_S=<seconds>,
// SKS_TIMELINE_SIM_S=<seconds>) or MetricsTimeline::configure().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/stream.hpp"

namespace sks::obs {

class Registry;

struct TimelineOptions {
  std::string path;              // JSONL file ("" = disabled)
  std::size_t every_items = 25;  // item-commit cadence (0 = off)
  double wall_interval_s = 0.0;  // min seconds between tick() snapshots
                                 // (0 = every tick)
  double sim_interval_s = 0.0;   // sim-time cadence for on_sim_time()
                                 // (0 = off)
};

// Point-in-time view of one campaign loop's progress, built strictly in
// OrderedSink commit order.
struct ProgressSnapshot {
  std::string name;          // "fault_campaign", "vmin_montecarlo", ...
  std::size_t done = 0;
  std::size_t total = 0;
  double elapsed_s = 0.0;
  double rate_per_s = 0.0;         // cumulative: done / elapsed
  double recent_rate_per_s = 0.0;  // over the rolling window (last ~8 s)
  double eta_s = 0.0;              // (total - done) / recent rate
  // Partial verdicts so far: e.g. {"detected": 12, "unsimulated": 0}.
  std::vector<std::pair<std::string, double>> partial;
};

// Per-campaign progress aggregator.  Construct before the loop, call
// on_item() from the OrderedSink callback (already serialized, so the
// tracker needs no lock of its own), bump partial tallies as verdicts
// commit.  When the obs layer and the timeline are both disabled,
// on_item() costs two relaxed loads and an increment.
class ProgressTracker {
 public:
  ProgressTracker(std::string name, std::size_t total);
  ~ProgressTracker();

  void add_partial(const std::string& key, double delta = 1.0);

  // One item committed (in order).  Mirrors progress into registry gauges
  // (progress.<name>.done/total/rate_per_s/eta_s) and offers the timeline
  // an item-cadence snapshot.
  void on_item();

  ProgressSnapshot snapshot() const;
  std::size_t done() const { return done_; }

 private:
  bool live() const;  // any consumer (obs or timeline) enabled?
  double elapsed_s() const;

  std::string name_;
  std::size_t total_;
  std::size_t done_ = 0;
  std::int64_t start_ns_;
  // 16 half-second buckets: recent rate over the last ~8 wall seconds.
  stream::RollingWindow recent_{16, 0.5};
  std::vector<std::pair<std::string, double>> partial_;
};

class MetricsTimeline {
 public:
  MetricsTimeline();  // honours the SKS_TIMELINE* environment variables

  // The only hook hot paths may call unconditionally.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // (Re)configure and enable (empty path disables).  Truncates an existing
  // file: one timeline file describes one run.
  void configure(const TimelineOptions& options);
  void disable();
  TimelineOptions options() const;

  // Item-commit trigger: called by ProgressTracker::on_item with the
  // current progress; snapshots when done % every_items == 0 or the loop
  // finished (done == total).
  void on_items(const ProgressSnapshot& progress);

  // Wall-clock trigger: snapshot unless the last snapshot is younger than
  // wall_interval_s.
  void tick(const char* label);

  // Simulation-time trigger from the engine's transient loop.
  void on_sim_time(double t_sim);

  // Unconditional snapshot; returns its seq number (0 when disabled).
  // The caller-supplied progress block is embedded when non-null.
  std::uint64_t snapshot(const std::string& label,
                         const ProgressSnapshot* progress = nullptr);

  std::uint64_t snapshots_written() const {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t snapshot_locked(const std::string& label,
                                const ProgressSnapshot* progress,
                                double sim_t, bool have_sim_t);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<double> sim_interval_{0.0};
  mutable std::mutex mutex_;
  TimelineOptions options_;
  std::ofstream out_;
  std::int64_t epoch_ns_ = 0;
  double last_wall_s_ = -1.0;
  double next_sim_t_ = 0.0;
};

// Process-wide timeline (mirrors registry()/tracer()).
MetricsTimeline& timeline();

}  // namespace sks::obs
