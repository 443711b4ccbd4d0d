// Span tracing: hierarchical RAII spans and instant events recorded into
// per-thread bounded buffers and exported as Chrome trace-event JSON
// (viewable in Perfetto or chrome://tracing).
//
// This is the "where did the time go" channel of the telemetry layer:
// counters (metrics.hpp) aggregate totals, and the tracer keeps a
// *timeline* — one track per thread (the par::ThreadPool workers name
// their tracks), every solve / fault test / MC sample a span with args
// (fault label, sample index, NR iterations, dt), plus typed marker
// instants for the moments the solver leaves its fast path (Newton
// fallback, step rejection, dt halving) and for fault verdicts and
// warnings.
//
// A Span is also the scope timer: built with a registry TimerStat it
// records its duration there when obs::enabled() is on, and pushes a trace
// event when the tracer is on.  The two switches are independent; one
// clock read per end serves both.
//
// Cost model:
//
//  * both switches off (the default): a Span constructor is two relaxed
//    atomic loads and a branch — no clock read, no allocation — so spans
//    stay in place around solver entry points permanently;
//  * enabled: recording is lock-free on the hot path.  Each thread owns a
//    bounded buffer (registered once under a cold mutex); pushes touch only
//    thread-local state and publish with one release store.  At capacity
//    the newest events are dropped and counted — a bounded session never
//    reallocates while workers record.  Timer stats are plain atomics.
//
// Concurrency: snapshots (`buffers()`, `chrome_trace_json()`) read each
// buffer's published prefix through an acquire load, so they are safe at
// any time and see every event published before the snapshot; exact
// completeness is guaranteed once the writers have quiesced (after a
// campaign's parallel_for returned — same contract as the Registry).
// `clear()` requires quiesced writers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace sks::obs {

// One span/instant argument; `json` holds the value already rendered as a
// JSON token (json_number(...) or a quoted json_escape'd string).
struct TraceArg {
  std::string key;
  std::string json;
};

struct TraceEvent {
  char phase = 'X';          // 'X' complete span, 'i' instant
  std::string name;
  std::uint64_t ts_ns = 0;   // start, ns since the session epoch
  std::uint64_t dur_ns = 0;  // complete spans only
  std::vector<TraceArg> args;
};

// Bounded per-thread event buffer.  Written by its owning thread only;
// readable from any thread (published prefix, see class comment above).
class TraceBuffer {
 public:
  TraceBuffer(std::uint32_t tid, std::string thread_name, std::size_t capacity)
      : tid_(tid), thread_name_(std::move(thread_name)), events_(capacity) {}

  std::uint32_t tid() const { return tid_; }
  const std::string& thread_name() const { return thread_name_; }
  std::size_t capacity() const { return events_.size(); }
  // Published events; pairs with push()'s release store.
  std::size_t size() const { return count_.load(std::memory_order_acquire); }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Valid for i < size().
  const TraceEvent& event(std::size_t i) const { return events_[i]; }

  // Owning thread only.  Never reallocates: at capacity the event is
  // dropped and counted.
  void push(TraceEvent event) {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_[n] = std::move(event);
    count_.store(n + 1, std::memory_order_release);
  }

 private:
  std::uint32_t tid_;
  std::string thread_name_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::vector<TraceEvent> events_;
};

class Tracer {
 public:
  Tracer();

  // Master switch; SKS_TRACE=1 in the environment enables it at startup.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Applies to buffers registered after the call (set before enabling, or
  // call clear() to re-register every thread at the new size).
  void set_buffer_capacity(std::size_t capacity);
  std::size_t buffer_capacity() const;

  // Drop every recorded event and invalidate thread registrations (threads
  // re-register on their next event).  Writers must be quiesced; a
  // straggler keeps writing into its orphaned buffer, which is simply
  // never exported.
  void clear();

  // Nanoseconds since the session epoch (construction or last clear()).
  std::uint64_t now_ns() const;

  // Snapshot of the registered per-thread buffers, in tid order.
  std::vector<std::shared_ptr<const TraceBuffer>> buffers() const;
  std::size_t event_count() const;
  std::uint64_t dropped() const;
  // Recorded instant ('i') events per name, sorted by name.
  std::map<std::string, std::uint64_t> instant_counts() const;

  // Chrome trace-event JSON: {"traceEvents": [...]} with process/thread
  // metadata, complete ('X') and instant ('i') events, ts/dur in
  // microseconds.  Safe at any time; complete once writers quiesced.
  std::string chrome_trace_json() const;
  // Write to `path`; throws sks::Error when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

  // The calling thread's buffer, registering it on first use (or after a
  // clear()).  Hot path: one relaxed load + pointer compare once
  // registered.  Callers gate on enabled().
  TraceBuffer* thread_buffer();

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> generation_{1};
  std::atomic<std::int64_t> epoch_ns_;
  mutable std::mutex mutex_;
  std::size_t capacity_ = 65536;
  std::uint32_t next_tid_ = 1;
  std::vector<std::shared_ptr<TraceBuffer>> buffers_;
};

// Process-wide tracer the spans record into (mirrors registry()).
Tracer& tracer();

// Sticky name for the calling thread's trace track ("par.worker-3"); cheap
// and safe with tracing disabled, so the pool workers call it at startup.
void set_trace_thread_name(std::string name);

// Zero-duration marker on the calling thread's track.  Callers gate on
// tracer().enabled() so building the args is also skipped when off.
void trace_instant(const char* name, std::vector<TraceArg> args = {});

// Typed marker instants.  The first three mark the solver leaving its fast
// path; a report's trace section counts instants by name, so a traced
// report says how often each fired.
enum class Marker {
  kNewtonFallback,  // continuation / damping / BE fallback engaged (detail)
  kStepRejected,    // adaptive control rejected an accepted solve (value=dt)
  kDtHalved,        // transient step halved after a Newton failure (value=dt)
  kFaultVerdict,    // one fault tested (detail = label + verdict)
  kWarning,         // telemetry misuse / postmortem notice (detail)
};

const char* to_string(Marker marker);

// Marker instant with args `t` (simulation time, s) and `value` (dt,
// excess IDDQ, ...), then `iterations` when nonzero and `detail` when
// non-empty.  Callers gate on tracer().enabled() so the detail string is
// not built when tracing is off.
void trace_marker(Marker marker, double t, double value, int iterations = 0,
                  const std::string& detail = {});

// RAII span: records a complete ('X') event covering its scope on the
// calling thread's track when tracing is on, and — when built with a
// TimerStat — its duration into that stat when obs::enabled() is on.  Args
// attach lazily and are no-ops when tracing is off, so instrumented code
// needs no mode checks of its own.
class Span {
 public:
  explicit Span(const char* name) : Span(name, nullptr) {}
  Span(const char* name, TimerStat& stat) : Span(name, &stat) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { end(); }

  // True while the span will push a trace event.
  bool active() const { return buffer_ != nullptr; }

  Span& arg(const char* key, double value);
  Span& arg(const char* key, const std::string& value);
  Span& arg(const char* key, const char* value);

  // Early end (idempotent).  Returns the elapsed seconds, 0 when neither
  // switch was on at construction.
  double end();

 private:
  Span(const char* name, TimerStat* stat)
      : stat_(stat != nullptr && enabled() ? stat : nullptr),
        buffer_(tracer().enabled() ? tracer().thread_buffer() : nullptr) {
    if (stat_ != nullptr || buffer_ != nullptr) {
      name_ = name;
      start_ns_ = tracer().now_ns();
    }
  }

  TimerStat* stat_;
  TraceBuffer* buffer_;
  const char* name_ = "";
  std::uint64_t start_ns_ = 0;
  std::vector<TraceArg> args_;
};

// TRACE_SPAN-style convenience for spans that carry no args.
#define SKS_TRACE_CONCAT2(a, b) a##b
#define SKS_TRACE_CONCAT(a, b) SKS_TRACE_CONCAT2(a, b)
#define SKS_TRACE_SPAN(name) \
  ::sks::obs::Span SKS_TRACE_CONCAT(sks_trace_span_, __LINE__)(name)

}  // namespace sks::obs
