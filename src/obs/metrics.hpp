// Telemetry metrics: counters, gauges, timer statistics and histograms,
// held in a named registry.
//
// Design constraints (this layer sits under the SPICE-class hot loops):
//
//  * `Counter::inc()` is a single relaxed atomic add — counters are
//    *always* live, so the engine can account NR iterations and LU
//    factorizations without any mode check and the cost stays unmeasurable
//    next to an LU solve;
//  * anything that reads a clock (a Span's timer, see trace.hpp) is gated
//    on the global `enabled()` flag and compiles down to one predictable
//    branch when profiling is off;
//  * registry entries are created on first use and live for the process
//    lifetime at stable addresses, so callers may cache `Counter&`
//    references across runs; `reset()` zeroes values but never invalidates
//    references.
//
// Concurrency: the parallel campaign drivers (sks::par) increment metrics
// from every worker thread, so the layer is thread-safe throughout.
// Counters shard their value across cache-line-aligned per-thread cells
// (writes never contend, `value()` merges on read); timer stats are plain
// atomics; the registry maps are mutex-guarded on (cold) entry creation
// and snapshotting.  Exception: `util::Histogram` entries are NOT
// internally synchronized — they are only ever filled from analysis code
// that runs outside the worker pool.
//
// Value semantics under concurrency: reads are monotonic but unordered
// with respect to concurrent writers; exact totals are guaranteed once the
// writers have quiesced (i.e. after a campaign's parallel_for returned).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/stream.hpp"
#include "util/stats.hpp"

namespace sks::obs {

// Master switch for the *expensive* instrumentation (span timers, memory
// gauges in hot paths).  Counters stay live regardless.  Trace recording
// has its own switch (tracer().enabled(), trace.hpp).
bool enabled();
void set_enabled(bool on);

namespace detail {

inline constexpr std::size_t kCounterShards = 16;

// Stable small integer id per thread; two pool workers practically never
// share `id % kCounterShards`, so counter increments stay contention-free.
inline std::size_t counter_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id % kCounterShards;
}

}  // namespace detail

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t delta = 1) {
    cells_[detail::counter_shard()].v.fetch_add(delta,
                                                std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[detail::kCounterShards];
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Accumulated wall-time statistics of one named code region.  Lock-free:
// count/total are relaxed adds, min/max are CAS loops, so a Span end
// costs a handful of uncontended atomic operations.
class TimerStat {
 public:
  void record_ns(std::uint64_t ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t min_ns() const {
    const std::uint64_t m = min_ns_.load(std::memory_order_relaxed);
    return m == kNoMin ? 0 : m;
  }
  std::uint64_t max_ns() const {
    return max_ns_.load(std::memory_order_relaxed);
  }
  double total_seconds() const {
    return static_cast<double>(total_ns()) * 1e-9;
  }
  double mean_seconds() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : total_seconds() / static_cast<double>(n);
  }
  void reset();

 private:
  static constexpr std::uint64_t kNoMin =
      std::numeric_limits<std::uint64_t>::max();
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> min_ns_{kNoMin};
  std::atomic<std::uint64_t> max_ns_{0};
};

// Mutex-guarded streaming summary (Welford + min/max + P² p50/p90/p99) for
// registry use: the campaign/Monte-Carlo layers record one sample per
// committed item from inside the OrderedSink callback, so contention is
// nil and the per-item cost is one short critical section.  Every record()
// also bumps the process-wide `obs.stream_updates` counter — the bench
// gate pins that counter to zero for the streaming-disabled hot paths, so
// a stream accumulator leaking into the Newton loop is caught by CI.
class StreamStat {
 public:
  StreamStat() = default;
  StreamStat(const StreamStat&) = delete;
  StreamStat& operator=(const StreamStat&) = delete;

  void record(double x);
  // Consistent copy of the summary (safe under concurrent record()).
  stream::StreamSummary snapshot() const;
  std::size_t count() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  stream::StreamSummary summary_;
};

class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  TimerStat& timer(const std::string& name);
  StreamStat& stream(const std::string& name);
  // First call fixes the binning; later calls with the same name return the
  // existing histogram.  A later call with a *different* lo/hi/bins is a
  // caller bug: it still gets the existing histogram, but the mismatch is
  // counted (`obs.histogram_range_mismatch`) and traced as a warning
  // marker instead of passing silently.
  util::Histogram& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins);

  // nullptr when the entry does not exist (no entry is created).
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const TimerStat* find_timer(const std::string& name) const;
  const StreamStat* find_stream(const std::string& name) const;

  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const TimerStat*>> timers() const;
  std::vector<std::pair<std::string, const util::Histogram*>> histograms()
      const;
  // Stream summaries are returned by value: each copy is taken under its
  // stream's own mutex, so the snapshot is safe while workers record.
  std::vector<std::pair<std::string, stream::StreamSummary>> streams() const;

  // Zero every value.  Entries (and references to them) survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<TimerStat>> timers_;
  std::map<std::string, std::unique_ptr<util::Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<StreamStat>> streams_;
};

// Process-wide registry the engine and campaign layers report into.
Registry& registry();

}  // namespace sks::obs
