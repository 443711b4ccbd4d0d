#include "obs/metrics.hpp"

#include <cstdlib>
#include <sstream>

#include "obs/trace.hpp"

namespace sks::obs {

namespace {

bool initial_enabled() {
  const char* env = std::getenv("SKS_PROFILE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Atomic: workers consult the flag while a driver thread may flip it.
std::atomic<bool> g_enabled{initial_enabled()};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void TimerStat::record_ns(std::uint64_t ns) {
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = min_ns_.load(std::memory_order_relaxed);
  while (ns < seen &&
         !min_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

void TimerStat::reset() {
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(kNoMin, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

void StreamStat::record(double x) {
  // Resolved outside the stream lock: registry() takes its own mutex on
  // first use, and taking it while holding mutex_ would invert the
  // registry-then-stream order the snapshot path uses.
  static Counter& updates = registry().counter("obs.stream_updates");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    summary_.add(x);
  }
  updates.inc();
}

stream::StreamSummary StreamStat::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_;
}

std::size_t StreamStat::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_.count();
}

void StreamStat::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  summary_.reset();
}

namespace {

template <typename Map, typename... Args>
auto& get_or_create(Map& map, const std::string& name, Args&&... args) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(name,
                     std::make_unique<typename Map::mapped_type::element_type>(
                         std::forward<Args>(args)...))
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(counters_, name);
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(gauges_, name);
}

TimerStat& Registry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(timers_, name);
}

StreamStat& Registry::stream(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(streams_, name);
}

util::Histogram& Registry::histogram(const std::string& name, double lo,
                                     double hi, std::size_t bins) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return get_or_create(histograms_, name, lo, hi, bins);
  }
  util::Histogram& existing = *it->second;
  if (existing.lo() != lo || existing.hi() != hi || existing.bins() != bins) {
    // The first call fixed the binning; a conflicting re-request would
    // silently clamp samples into the wrong bins, so make it visible.
    // The counter bump goes through the map directly — our mutex is not
    // recursive, so this->counter() would deadlock here.
    get_or_create(counters_, "obs.histogram_range_mismatch").inc();
    lock.unlock();  // entry addresses are stable
    if (tracer().enabled()) {
      std::ostringstream msg;
      msg << "histogram '" << name << "' re-requested with range [" << lo
          << ", " << hi << "]/" << bins << " bins; keeping existing ["
          << existing.lo() << ", " << existing.hi() << "]/"
          << existing.bins();
      trace_marker(Marker::kWarning, 0.0, 0.0, 0, msg.str());
    }
  }
  return existing;
}

const Counter* Registry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const TimerStat* Registry::find_timer(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? nullptr : it->second.get();
}

const StreamStat* Registry::find_stream(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const TimerStat*>> Registry::timers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const TimerStat*>> out;
  out.reserve(timers_.size());
  for (const auto& [name, t] : timers_) out.emplace_back(name, t.get());
  return out;
}

std::vector<std::pair<std::string, const util::Histogram*>>
Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const util::Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

std::vector<std::pair<std::string, stream::StreamSummary>> Registry::streams()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, stream::StreamSummary>> out;
  out.reserve(streams_.size());
  for (const auto& [name, s] : streams_) {
    out.emplace_back(name, s->snapshot());
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, t] : timers_) t->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : streams_) s->reset();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace sks::obs
