// Machine-readable run reports: one Report per run (a bench binary, a
// fault campaign, a Monte-Carlo population) serialized as JSON (full
// fidelity) or CSV (flat metric rows for spreadsheet diffing).
//
// JSON schema (schema_version 1, documented in EXPERIMENTS.md "Run
// telemetry"):
//
//   {
//     "report": "<name>", "schema_version": 1,
//     "meta":     { "<key>": "<string>", ... },
//     "values":   { "<key>": <number>, ... },
//     "counters": { "<name>": <integer>, ... },
//     "gauges":   { "<name>": <number>, ... },
//     "timers":   { "<name>": { "count": n, "total_s": s, "mean_s": s,
//                               "min_s": s, "max_s": s }, ... },
//     "histograms": { "<name>": { "lo": x, "hi": x, "counts": [..] }, ... },
//     "streams":  { "<name>": { "count": n, "mean": x, "stddev": x,
//                               "min": x, "max": x, "p50": x, "p90": x,
//                               "p99": x }, ... },
//     "trace":    { "events": n, "dropped": n,
//                   "instants": { "<marker name>": n, ... } },
//     "profile":  { "window_s": s,
//                   "nodes": [ { "path": "a;b;c", "name": "c", "depth": d,
//                                "count": n, "total_s": s, "self_s": s,
//                                "min_s": s, "max_s": s,
//                                "threads": { "<thread>": { "count": n,
//                                             "total_s": s }, ... } }, .. ],
//                   "workers": [ { "thread": "par.worker-0", "spans": n,
//                                  "busy_s": s, "util": u }, ... ] }
//   }
//
// Sections are omitted when empty, so a counters-only report stays small.
// `trace.instants` counts the recorded instant events per name (the typed
// markers of trace.hpp: newton_fallback, dt_halved, fault_verdict, ...),
// so a traced report says how often each fallback fired.  Reports written
// before the trace instants replaced the event journal may still carry a
// "journal" section; readers ignore it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace sks::obs {

class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Free-form annotations (git rev, bench scale, sample counts, ...).
  void set_meta(const std::string& key, const std::string& value);
  void set_value(const std::string& key, double value);

  // Build/host provenance into `meta`: git SHA + dirty flag, compiler and
  // build type (baked at configure time, see obs/buildinfo.hpp.in),
  // hostname and hardware thread count.  Callers layer run-shape keys
  // (threads, lane width) on top via set_meta.
  void capture_provenance();

  // Snapshot every metric currently in the registry.
  void capture_registry(const Registry& reg = registry());
  // Trace-buffer summary: event count and drop counter (so a report shows
  // when `--trace-out` silently lost events) plus instant counts per name.
  void capture_trace(const Tracer& tracer = obs::tracer());
  // Aggregate the tracer's spans into a call-tree profile (profile.hpp)
  // embedded as the `profile` section.  Call after writers quiesced; a
  // no-op section when no spans were recorded.
  void capture_profile(const Tracer& tracer = obs::tracer());
  void set_profile(Profile profile);
  const Profile& profile() const { return profile_; }

  std::string to_json() const;
  std::string to_csv() const;

  // Write to `path`; throws sks::Error when the file cannot be written.
  void write_json(const std::string& path) const;
  void write_csv(const std::string& path) const;

 private:
  struct TimerRow {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0, mean_s = 0.0, min_s = 0.0, max_s = 0.0;
  };
  struct HistogramRow {
    std::string name;
    double lo = 0.0, hi = 0.0;
    std::vector<std::uint64_t> counts;
  };
  struct StreamRow {
    std::string name;
    std::size_t count = 0;
    double mean = 0.0, stddev = 0.0, min = 0.0, max = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  };

  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<TimerRow> timers_;
  std::vector<HistogramRow> histograms_;
  std::vector<StreamRow> streams_;
  bool have_trace_ = false;
  std::uint64_t trace_events_ = 0;
  std::uint64_t trace_dropped_ = 0;
  std::map<std::string, std::uint64_t> trace_instants_;
  bool have_profile_ = false;
  Profile profile_;
};

}  // namespace sks::obs
