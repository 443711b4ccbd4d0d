#include "obs/report.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "obs/buildinfo.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace sks::obs {

void Report::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void Report::set_value(const std::string& key, double value) {
  for (auto& [k, v] : values_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  values_.emplace_back(key, value);
}

void Report::capture_provenance() {
  set_meta("git_sha", buildinfo::kGitSha);
  set_meta("git_dirty", buildinfo::kGitDirty ? "true" : "false");
  set_meta("compiler", buildinfo::kCompiler);
  set_meta("build_type", buildinfo::kBuildType);
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    set_meta("hostname", host);
  } else {
    set_meta("hostname", "unknown");
  }
  set_meta("hw_threads",
           std::to_string(std::thread::hardware_concurrency()));
}

void Report::capture_registry(const Registry& reg) {
  counters_ = reg.counters();
  gauges_ = reg.gauges();
  timers_.clear();
  for (const auto& [name, t] : reg.timers()) {
    if (t->count() == 0) continue;  // never fired (e.g. profiling disabled)
    TimerRow row;
    row.name = name;
    row.count = t->count();
    row.total_s = t->total_seconds();
    row.mean_s = t->mean_seconds();
    row.min_s = static_cast<double>(t->min_ns()) * 1e-9;
    row.max_s = static_cast<double>(t->max_ns()) * 1e-9;
    timers_.push_back(std::move(row));
  }
  histograms_.clear();
  for (const auto& [name, h] : reg.histograms()) {
    HistogramRow row;
    row.name = name;
    row.lo = h->lo();
    row.hi = h->hi();
    row.counts.reserve(h->bins());
    for (std::size_t i = 0; i < h->bins(); ++i) {
      row.counts.push_back(h->bin_count(i));
    }
    histograms_.push_back(std::move(row));
  }
  streams_.clear();
  for (const auto& [name, s] : reg.streams()) {
    if (s.count() == 0) continue;  // declared but never fed
    StreamRow row;
    row.name = name;
    row.count = s.count();
    row.mean = s.mean();
    row.stddev = s.stddev();
    row.min = s.min();
    row.max = s.max();
    row.p50 = s.p50();
    row.p90 = s.p90();
    row.p99 = s.p99();
    streams_.push_back(std::move(row));
  }
}

void Report::capture_trace(const Tracer& tracer) {
  have_trace_ = true;
  trace_events_ = tracer.event_count();
  trace_dropped_ = tracer.dropped();
  trace_instants_ = tracer.instant_counts();
}

void Report::capture_profile(const Tracer& tracer) {
  set_profile(profile_from_tracer(tracer));
}

void Report::set_profile(Profile profile) {
  profile_ = std::move(profile);
  have_profile_ = !profile_.empty();
}

namespace {

void append_kv_block(
    std::ostringstream& out, const char* section,
    const std::vector<std::pair<std::string, std::string>>& rows, bool& first) {
  if (rows.empty()) return;
  if (!first) out << ",\n";
  first = false;
  out << "  \"" << section << "\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << json_escape(rows[i].first)
        << "\": " << rows[i].second;
  }
  out << "}";
}

template <typename T>
std::vector<std::pair<std::string, std::string>> numeric_rows(
    const std::vector<std::pair<std::string, T>>& rows) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(rows.size());
  for (const auto& [k, v] : rows) {
    out.emplace_back(k, json_number(static_cast<double>(v)));
  }
  return out;
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\n  \"report\": \"" << json_escape(name_)
      << "\",\n  \"schema_version\": 1";
  bool first = false;  // the header fields above are always present

  {
    std::vector<std::pair<std::string, std::string>> rows;
    rows.reserve(meta_.size());
    for (const auto& [k, v] : meta_) {
      rows.emplace_back(k, '"' + json_escape(v) + '"');
    }
    append_kv_block(out, "meta", rows, first);
  }
  append_kv_block(out, "values", numeric_rows(values_), first);
  append_kv_block(out, "counters", numeric_rows(counters_), first);
  append_kv_block(out, "gauges", numeric_rows(gauges_), first);

  if (!timers_.empty()) {
    out << ",\n  \"timers\": {";
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      const TimerRow& t = timers_[i];
      out << (i == 0 ? "" : ", ") << '"' << json_escape(t.name) << "\": {"
          << "\"count\": " << t.count
          << ", \"total_s\": " << json_number(t.total_s)
          << ", \"mean_s\": " << json_number(t.mean_s)
          << ", \"min_s\": " << json_number(t.min_s)
          << ", \"max_s\": " << json_number(t.max_s) << "}";
    }
    out << "}";
  }

  if (!histograms_.empty()) {
    out << ",\n  \"histograms\": {";
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      const HistogramRow& h = histograms_[i];
      out << (i == 0 ? "" : ", ") << '"' << json_escape(h.name) << "\": {"
          << "\"lo\": " << json_number(h.lo) << ", \"hi\": " << json_number(h.hi)
          << ", \"counts\": [";
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        out << (b == 0 ? "" : ", ") << h.counts[b];
      }
      out << "]}";
    }
    out << "}";
  }

  if (!streams_.empty()) {
    out << ",\n  \"streams\": {";
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const StreamRow& s = streams_[i];
      out << (i == 0 ? "" : ", ") << '"' << json_escape(s.name) << "\": {"
          << "\"count\": " << s.count << ", \"mean\": " << json_number(s.mean)
          << ", \"stddev\": " << json_number(s.stddev)
          << ", \"min\": " << json_number(s.min)
          << ", \"max\": " << json_number(s.max)
          << ", \"p50\": " << json_number(s.p50)
          << ", \"p90\": " << json_number(s.p90)
          << ", \"p99\": " << json_number(s.p99) << "}";
    }
    out << "}";
  }

  if (have_trace_) {
    out << ",\n  \"trace\": {\"events\": " << trace_events_
        << ", \"dropped\": " << trace_dropped_ << ", \"instants\": {";
    bool first_instant = true;
    for (const auto& [name, n] : trace_instants_) {
      out << (first_instant ? "" : ", ") << '"' << json_escape(name)
          << "\": " << n;
      first_instant = false;
    }
    out << "}}";
  }

  if (have_profile_) {
    out << ",\n  \"profile\": {\"window_s\": "
        << json_number(static_cast<double>(profile_.window_ns()) * 1e-9)
        << ", \"nodes\": [";
    const auto& nodes = profile_.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const ProfileNode& n = nodes[i];
      out << (i == 0 ? "" : ", ") << "{\"path\": \"" << json_escape(n.path)
          << "\", \"name\": \"" << json_escape(n.name)
          << "\", \"depth\": " << n.depth << ", \"count\": " << n.count
          << ", \"total_s\": "
          << json_number(static_cast<double>(n.total_ns) * 1e-9)
          << ", \"self_s\": "
          << json_number(static_cast<double>(n.self_ns) * 1e-9)
          << ", \"min_s\": "
          << json_number(static_cast<double>(n.min_ns) * 1e-9)
          << ", \"max_s\": "
          << json_number(static_cast<double>(n.max_ns) * 1e-9)
          << ", \"threads\": {";
      bool first_thread = true;
      for (const auto& [thread, slice] : n.threads) {
        out << (first_thread ? "" : ", ") << '"' << json_escape(thread)
            << "\": {\"count\": " << slice.count << ", \"total_s\": "
            << json_number(static_cast<double>(slice.total_ns) * 1e-9) << "}";
        first_thread = false;
      }
      out << "}}";
    }
    out << "], \"workers\": [";
    const auto& workers = profile_.workers();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const WorkerUtil& w = workers[i];
      out << (i == 0 ? "" : ", ") << "{\"thread\": \""
          << json_escape(w.thread) << "\", \"spans\": " << w.spans
          << ", \"busy_s\": "
          << json_number(static_cast<double>(w.busy_ns) * 1e-9)
          << ", \"util\": " << json_number(w.util) << "}";
    }
    out << "]}";
  }

  out << "\n}\n";
  return out.str();
}

std::string Report::to_csv() const {
  // Flat rows: section,name,field,value — trivially greppable / joinable.
  std::ostringstream out;
  out << "section,name,field,value\n";
  auto esc = [](const std::string& s) {
    std::string q = s;
    for (auto& c : q) {
      if (c == ',') c = ';';
    }
    return q;
  };
  for (const auto& [k, v] : meta_) {
    out << "meta," << esc(k) << ",value," << esc(v) << "\n";
  }
  for (const auto& [k, v] : values_) {
    out << "value," << esc(k) << ",value," << json_number(v) << "\n";
  }
  for (const auto& [k, v] : counters_) {
    out << "counter," << esc(k) << ",value," << v << "\n";
  }
  for (const auto& [k, v] : gauges_) {
    out << "gauge," << esc(k) << ",value," << json_number(v) << "\n";
  }
  for (const TimerRow& t : timers_) {
    out << "timer," << esc(t.name) << ",count," << t.count << "\n";
    out << "timer," << esc(t.name) << ",total_s," << json_number(t.total_s)
        << "\n";
    out << "timer," << esc(t.name) << ",mean_s," << json_number(t.mean_s)
        << "\n";
  }
  for (const StreamRow& s : streams_) {
    out << "stream," << esc(s.name) << ",count," << s.count << "\n";
    out << "stream," << esc(s.name) << ",mean," << json_number(s.mean) << "\n";
    out << "stream," << esc(s.name) << ",p50," << json_number(s.p50) << "\n";
    out << "stream," << esc(s.name) << ",p99," << json_number(s.p99) << "\n";
  }
  for (const auto& [k, v] : trace_instants_) {
    out << "trace," << esc(k) << ",count," << v << "\n";
  }
  for (const ProfileNode& n : profile_.nodes()) {
    out << "profile," << esc(n.path) << ",count," << n.count << "\n";
    out << "profile," << esc(n.path) << ",total_s,"
        << json_number(static_cast<double>(n.total_ns) * 1e-9) << "\n";
    out << "profile," << esc(n.path) << ",self_s,"
        << json_number(static_cast<double>(n.self_ns) * 1e-9) << "\n";
  }
  return out.str();
}

namespace {

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  sks::check(out.good(), "Report: cannot open '", path, "' for writing");
  out << content;
  out.flush();
  sks::check(out.good(), "Report: write to '", path, "' failed");
}

}  // namespace

void Report::write_json(const std::string& path) const {
  write_file(path, to_json());
}

void Report::write_csv(const std::string& path) const {
  write_file(path, to_csv());
}

}  // namespace sks::obs
