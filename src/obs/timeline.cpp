#include "obs/timeline.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sks::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double env_double(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  const double v = std::atof(env);
  return v > 0.0 ? v : fallback;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  const long v = std::atol(env);
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

}  // namespace

// ---- ProgressTracker ----------------------------------------------------

ProgressTracker::ProgressTracker(std::string name, std::size_t total)
    : name_(std::move(name)), total_(total), start_ns_(steady_ns()) {}

ProgressTracker::~ProgressTracker() = default;

bool ProgressTracker::live() const {
  return enabled() || timeline().enabled();
}

double ProgressTracker::elapsed_s() const {
  return static_cast<double>(steady_ns() - start_ns_) * 1e-9;
}

void ProgressTracker::add_partial(const std::string& key, double delta) {
  if (!live()) return;
  for (auto& [k, v] : partial_) {
    if (k == key) {
      v += delta;
      return;
    }
  }
  partial_.emplace_back(key, delta);
}

ProgressSnapshot ProgressTracker::snapshot() const {
  ProgressSnapshot snap;
  snap.name = name_;
  snap.done = done_;
  snap.total = total_;
  snap.elapsed_s = elapsed_s();
  snap.rate_per_s =
      snap.elapsed_s > 0.0
          ? static_cast<double>(done_) / snap.elapsed_s
          : 0.0;
  snap.recent_rate_per_s = recent_.rate();
  const double rate = snap.recent_rate_per_s > 0.0 ? snap.recent_rate_per_s
                                                   : snap.rate_per_s;
  snap.eta_s = (rate > 0.0 && total_ > done_)
                   ? static_cast<double>(total_ - done_) / rate
                   : 0.0;
  snap.partial = partial_;
  return snap;
}

void ProgressTracker::on_item() {
  ++done_;
  if (!live()) return;  // two relaxed loads; the hot-path cost when off

  recent_.add(elapsed_s(), 1.0);
  const ProgressSnapshot snap = snapshot();

  // Gauges give `sks-report print` (and any registry consumer) the same
  // live view the timeline file carries.  References are resolved per
  // tracker, not per item.
  Registry& reg = registry();
  const std::string prefix = "progress." + name_ + ".";
  reg.gauge(prefix + "done").set(static_cast<double>(snap.done));
  reg.gauge(prefix + "total").set(static_cast<double>(snap.total));
  reg.gauge(prefix + "rate_per_s").set(snap.rate_per_s);
  reg.gauge(prefix + "eta_s").set(snap.eta_s);

  if (timeline().enabled()) timeline().on_items(snap);
}

// ---- MetricsTimeline ----------------------------------------------------

MetricsTimeline::MetricsTimeline() {
  // Cadence knobs are honoured even without SKS_TIMELINE so a later
  // `--timeline FILE` (configure with just the path filled in) inherits
  // them.
  TimelineOptions options;
  options.every_items = env_size("SKS_TIMELINE_EVERY", options.every_items);
  options.wall_interval_s =
      env_double("SKS_TIMELINE_WALL_S", options.wall_interval_s);
  options.sim_interval_s =
      env_double("SKS_TIMELINE_SIM_S", options.sim_interval_s);
  const char* env = std::getenv("SKS_TIMELINE");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    options.path = env;
  }
  configure(options);
}

void MetricsTimeline::configure(const TimelineOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) out_.close();
  options_ = options;
  epoch_ns_ = steady_ns();
  last_wall_s_ = -1.0;
  next_sim_t_ = options.sim_interval_s;
  sim_interval_.store(options.sim_interval_s, std::memory_order_relaxed);
  if (options_.path.empty()) {
    enabled_.store(false, std::memory_order_relaxed);
    return;
  }
  out_.open(options_.path, std::ios::binary | std::ios::trunc);
  // A path that cannot be opened disables the timeline rather than making
  // every later snapshot fail: telemetry must never take down the run.
  enabled_.store(out_.good(), std::memory_order_relaxed);
}

void MetricsTimeline::disable() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  sim_interval_.store(0.0, std::memory_order_relaxed);
  if (out_.is_open()) out_.close();
  options_ = TimelineOptions();
}

TimelineOptions MetricsTimeline::options() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_;
}

void MetricsTimeline::on_items(const ProgressSnapshot& progress) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t every = options_.every_items;
  const bool boundary =
      every != 0 && progress.done != 0 && progress.done % every == 0;
  const bool finished = progress.total != 0 && progress.done == progress.total;
  if (!boundary && !finished) return;
  snapshot_locked(progress.name, &progress, 0.0, false);
}

void MetricsTimeline::tick(const char* label) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const double now_s = static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
  if (last_wall_s_ >= 0.0 &&
      now_s - last_wall_s_ < options_.wall_interval_s) {
    return;
  }
  snapshot_locked(label, nullptr, 0.0, false);
}

void MetricsTimeline::on_sim_time(double t_sim) {
  // Hot path: gate on the interval before touching the mutex.
  const double interval = sim_interval_.load(std::memory_order_relaxed);
  if (interval <= 0.0 || !enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (t_sim < next_sim_t_) return;
  while (next_sim_t_ <= t_sim) next_sim_t_ += options_.sim_interval_s;
  snapshot_locked("sim_time", nullptr, t_sim, true);
}

std::uint64_t MetricsTimeline::snapshot(const std::string& label,
                                        const ProgressSnapshot* progress) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(label, progress, 0.0, false);
}

std::uint64_t MetricsTimeline::snapshot_locked(const std::string& label,
                                               const ProgressSnapshot* progress,
                                               double sim_t, bool have_sim_t) {
  if (!out_.is_open()) return 0;
  // Seq (and its registry counter) advance BEFORE the registry is read, so
  // a final snapshot and a report captured right after it agree exactly on
  // every counter — the equivalence CI asserts.
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  static Counter& snapshots = registry().counter("obs.timeline_snapshots");
  snapshots.inc();

  const double wall_s = static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
  last_wall_s_ = wall_s;

  // Refresh the mem.* gauges so every snapshot line carries the current
  // peak RSS / fault counts — a live tail sees the memory trend, not just
  // the final value.  Cold path: one getrusage per snapshot.
  record_mem_gauges();

  std::ostringstream out;
  out << "{\"seq\": " << seq << ", \"label\": \"" << json_escape(label)
      << "\", \"wall_s\": " << json_number(wall_s);
  if (have_sim_t) out << ", \"sim_t\": " << json_number(sim_t);

  if (progress != nullptr) {
    out << ", \"progress\": {\"name\": \"" << json_escape(progress->name)
        << "\", \"done\": " << progress->done
        << ", \"total\": " << progress->total
        << ", \"elapsed_s\": " << json_number(progress->elapsed_s)
        << ", \"rate_per_s\": " << json_number(progress->rate_per_s)
        << ", \"recent_rate_per_s\": "
        << json_number(progress->recent_rate_per_s)
        << ", \"eta_s\": " << json_number(progress->eta_s);
    if (!progress->partial.empty()) {
      out << ", \"partial\": {";
      for (std::size_t i = 0; i < progress->partial.size(); ++i) {
        out << (i == 0 ? "" : ", ") << '"'
            << json_escape(progress->partial[i].first)
            << "\": " << json_number(progress->partial[i].second);
      }
      out << "}";
    }
    out << "}";
  }

  const Registry& reg = registry();
  {
    const auto counters = reg.counters();
    out << ", \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << json_escape(counters[i].first)
          << "\": " << counters[i].second;
    }
    out << "}";
  }
  {
    const auto gauges = reg.gauges();
    out << ", \"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << json_escape(gauges[i].first)
          << "\": " << json_number(gauges[i].second);
    }
    out << "}";
  }
  {
    const auto timers = reg.timers();
    bool first = true;
    out << ", \"timers\": {";
    for (const auto& [name, t] : timers) {
      if (t->count() == 0) continue;
      out << (first ? "" : ", ") << '"' << json_escape(name)
          << "\": {\"count\": " << t->count()
          << ", \"total_s\": " << json_number(t->total_seconds()) << "}";
      first = false;
    }
    out << "}";
  }
  {
    const auto streams = reg.streams();
    bool first = true;
    out << ", \"streams\": {";
    for (const auto& [name, s] : streams) {
      if (s.count() == 0) continue;
      out << (first ? "" : ", ") << '"' << json_escape(name)
          << "\": {\"count\": " << s.count()
          << ", \"mean\": " << json_number(s.mean())
          << ", \"stddev\": " << json_number(s.stddev())
          << ", \"min\": " << json_number(s.min())
          << ", \"max\": " << json_number(s.max())
          << ", \"p50\": " << json_number(s.p50())
          << ", \"p90\": " << json_number(s.p90())
          << ", \"p99\": " << json_number(s.p99()) << "}";
      first = false;
    }
    out << "}";
  }
  out << ", \"trace\": {\"events\": " << tracer().event_count()
      << ", \"dropped\": " << tracer().dropped() << "}";
  out << "}\n";

  out_ << out.str();
  out_.flush();  // a live tail must see complete lines promptly
  return seq;
}

MetricsTimeline& timeline() {
  static MetricsTimeline instance;
  return instance;
}

}  // namespace sks::obs
