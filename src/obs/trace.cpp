#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace sks::obs {

namespace {

bool initial_trace_enabled() {
  const char* env = std::getenv("SKS_TRACE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Cached registration: re-validated against the tracer's generation so a
// clear() forces a fresh buffer without the hot path taking the mutex.
struct LocalRef {
  std::uint64_t generation = 0;
  std::shared_ptr<TraceBuffer> buffer;
};
thread_local LocalRef t_local;
thread_local std::string t_thread_name;

}  // namespace

Tracer::Tracer()
    : enabled_(initial_trace_enabled()), epoch_ns_(steady_now_ns()) {}

void Tracer::set_buffer_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
}

std::size_t Tracer::buffer_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  next_tid_ = 1;
  generation_.fetch_add(1, std::memory_order_release);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

std::uint64_t Tracer::now_ns() const {
  const std::int64_t delta =
      steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed);
  return delta < 0 ? 0 : static_cast<std::uint64_t>(delta);
}

TraceBuffer* Tracer::thread_buffer() {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (t_local.generation != gen || t_local.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t tid = next_tid_++;
    const std::string name = t_thread_name.empty()
                                 ? "thread-" + std::to_string(tid)
                                 : t_thread_name;
    t_local.buffer = std::make_shared<TraceBuffer>(tid, name, capacity_);
    t_local.generation = gen;
    buffers_.push_back(t_local.buffer);
  }
  return t_local.buffer.get();
}

std::vector<std::shared_ptr<const TraceBuffer>> Tracer::buffers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {buffers_.begin(), buffers_.end()};
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const auto& b : buffers()) n += b->size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& b : buffers()) n += b->dropped();
  return n;
}

std::map<std::string, std::uint64_t> Tracer::instant_counts() const {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& buffer : buffers()) {
    const std::size_t n = buffer->size();
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = buffer->event(i);
      if (e.phase == 'i') ++counts[e.name];
    }
  }
  return counts;
}

std::string Tracer::chrome_trace_json() const {
  // Chrome trace-event format (JSON object flavour): ts/dur in
  // microseconds, one pid for the whole process, per-thread tids with
  // thread_name metadata so Perfetto labels the worker tracks.
  std::ostringstream out;
  out << "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \"sks\"}}";
  for (const auto& buffer : buffers()) {
    out << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
        << "\"tid\": " << buffer->tid() << ", \"args\": {\"name\": \""
        << json_escape(buffer->thread_name()) << "\"}}";
    const std::size_t n = buffer->size();
    for (std::size_t i = 0; i < n; ++i) {
      const TraceEvent& e = buffer->event(i);
      out << ",\n{\"name\": \"" << json_escape(e.name) << "\", \"ph\": \""
          << e.phase << "\", \"pid\": 1, \"tid\": " << buffer->tid()
          << ", \"ts\": " << json_number(static_cast<double>(e.ts_ns) / 1e3);
      if (e.phase == 'X') {
        out << ", \"dur\": "
            << json_number(static_cast<double>(e.dur_ns) / 1e3);
      } else if (e.phase == 'i') {
        out << ", \"s\": \"t\"";
      }
      if (!e.args.empty()) {
        out << ", \"args\": {";
        for (std::size_t a = 0; a < e.args.size(); ++a) {
          out << (a == 0 ? "" : ", ") << '"' << json_escape(e.args[a].key)
              << "\": " << e.args[a].json;
        }
        out << "}";
      }
      out << "}";
    }
  }
  out << "\n]\n}\n";
  return out.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  sks::check(out.good(), "Tracer: cannot open '", path, "' for writing");
  out << chrome_trace_json();
  out.flush();
  sks::check(out.good(), "Tracer: write to '", path, "' failed");
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void set_trace_thread_name(std::string name) {
  t_thread_name = std::move(name);
  // Re-register on the next event so a name set after this thread already
  // recorded still takes effect for new sessions (post-clear()).
  if (t_local.buffer != nullptr && t_local.buffer->size() == 0) {
    t_local.generation = 0;
  }
}

void trace_instant(const char* name, std::vector<TraceArg> args) {
  if (!tracer().enabled()) return;
  TraceEvent event;
  event.phase = 'i';
  event.name = name;
  event.ts_ns = tracer().now_ns();
  event.args = std::move(args);
  tracer().thread_buffer()->push(std::move(event));
}

const char* to_string(Marker marker) {
  switch (marker) {
    case Marker::kNewtonFallback: return "newton_fallback";
    case Marker::kStepRejected: return "step_rejected";
    case Marker::kDtHalved: return "dt_halved";
    case Marker::kFaultVerdict: return "fault_verdict";
    case Marker::kWarning: return "warning";
  }
  return "unknown";
}

void trace_marker(Marker marker, double t, double value, int iterations,
                  const std::string& detail) {
  if (!tracer().enabled()) return;
  std::vector<TraceArg> args;
  args.push_back({"t", json_number(t)});
  args.push_back({"value", json_number(value)});
  if (iterations != 0) args.push_back({"iterations", json_number(iterations)});
  if (!detail.empty()) {
    args.push_back({"detail", '"' + json_escape(detail) + '"'});
  }
  trace_instant(to_string(marker), std::move(args));
}

Span& Span::arg(const char* key, double value) {
  if (buffer_ != nullptr) args_.push_back({key, json_number(value)});
  return *this;
}

Span& Span::arg(const char* key, const std::string& value) {
  if (buffer_ != nullptr) {
    args_.push_back({key, '"' + json_escape(value) + '"'});
  }
  return *this;
}

Span& Span::arg(const char* key, const char* value) {
  return arg(key, std::string(value));
}

double Span::end() {
  if (stat_ == nullptr && buffer_ == nullptr) return 0.0;
  const std::uint64_t now = tracer().now_ns();
  const std::uint64_t dur = now > start_ns_ ? now - start_ns_ : 0;
  if (stat_ != nullptr) stat_->record_ns(dur);
  if (buffer_ != nullptr) {
    TraceEvent event;
    event.phase = 'X';
    event.name = name_;
    event.ts_ns = start_ns_;
    event.dur_ns = dur;
    event.args = std::move(args_);
    buffer_->push(std::move(event));
  }
  stat_ = nullptr;
  buffer_ = nullptr;
  return static_cast<double>(dur) * 1e-9;
}

}  // namespace sks::obs
