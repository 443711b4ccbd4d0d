// perfbench_driver: runs one benchmark workload and prints one JSON document
// of raw measurements on stdout; perfbench/run.py turns it into metrics.
//
//   perfbench_driver --workload W --seed S --mode run --seconds T
//       set-up (repeated, --setup-reps), then timed cycles at 4 threads
//       (T/3 seconds) and at 1 thread (2T/3 seconds), interleaved;
//   perfbench_driver --workload W --seed S --mode trace --spans FILE
//       a fixed set of rounds through the drivers at 4 and 1 threads, then
//       replayed call by call with spans (written to FILE at exit);
//   perfbench_driver --workload W --mode golden
//       every round of the workload's input pool, for recording goldens.
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace {

using perfbench::UnitResult;
using perfbench::Workload;

constexpr std::size_t kThreads = 4;

// Minimal JSON writer: separators are tracked, values are written in full
// precision.
class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }
  Json& key(const std::string& k) {
    sep();
    str(k);
    os_ << ':';
    first_ = true;
    return *this;
  }
  Json& value(double v) {
    sep();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& value(std::uint64_t v) {
    sep();
    os_ << v;
    return *this;
  }
  Json& value(int v) {
    sep();
    os_ << v;
    return *this;
  }
  Json& value(const std::string& s) {
    sep();
    str(s);
    return *this;
  }
  template <typename T>
  Json& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  Json& open(char c) {
    sep();
    os_ << c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    first_ = false;
    return *this;
  }
  void sep() {
    if (!first_) os_ << ',';
    first_ = false;
  }
  void str(const std::string& s) {
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
  }

  std::ostream& os_;
  bool first_ = true;
};

void write_unit(Json& j, const UnitResult& u) {
  j.begin_object()
      .field("id", u.id)
      .field("items", static_cast<std::uint64_t>(u.items))
      .field("wall", u.wall)
      .field("busy", u.busy)
      .field("digest", u.digest);
  j.key("values").begin_object();
  for (const auto& [name, v] : u.values) j.field(name, v);
  j.end_object();
  if (!u.item_seconds.empty()) {
    j.key("item_seconds").begin_array();
    for (const double s : u.item_seconds) j.value(s);
    j.end_array();
  }
  j.end_object();
}

void write_units(Json& j, const std::vector<UnitResult>& units) {
  j.key("units").begin_array();
  for (const auto& u : units) write_unit(j, u);
  j.end_array();
}

std::map<std::string, std::uint64_t> solver_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : sks::obs::registry().counters()) {
    if (name.rfind("esim.", 0) == 0 || name.rfind("batch.", 0) == 0 ||
        name.rfind("schur.", 0) == 0) {
      out[name] = v;
    }
  }
  return out;
}

double timer_seconds(const std::string& name) {
  const auto* t = sks::obs::registry().find_timer(name);
  return t == nullptr ? 0.0 : t->total_seconds();
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// Timed cycles at 4 threads and at 1 thread until each count has spent its
// budget of driver time.  The two alternate, the one furthest behind its
// budget next, so both figures sample the whole run rather than one part of
// it: the host's speed drifts over seconds.
void run_windows(Json& j, Workload& wl, double budget_4t, double budget_1t) {
  struct Window {
    std::size_t threads;
    double budget;
    double spent = 0.0;
    std::size_t next_round = 0;
    std::vector<std::array<double, 3>> cycles = {};  // items, wall, busy
    std::vector<UnitResult> units = {};
  };
  Window windows[] = {{.threads = kThreads, .budget = budget_4t},
                      {.threads = 1, .budget = budget_1t}};
  while (windows[0].spent < windows[0].budget ||
         windows[1].spent < windows[1].budget) {
    Window& w = windows[0].spent / windows[0].budget <=
                        windows[1].spent / windows[1].budget
                    ? windows[0]
                    : windows[1];
    sks::par::set_default_threads(w.threads);
    std::array<double, 3> cycle{};
    for (std::size_t r = 0; r < wl.cycle_rounds(); ++r, ++w.next_round) {
      for (std::size_t u = 0; u < wl.units_per_round(); ++u) {
        w.units.push_back(wl.run_unit(w.next_round, u, w.threads));
        cycle[0] += static_cast<double>(w.units.back().items);
        cycle[1] += w.units.back().wall;
        cycle[2] += w.units.back().busy;
      }
    }
    w.cycles.push_back(cycle);
    w.spent += cycle[1];
  }
  for (const Window& w : windows) {
    j.key(std::to_string(w.threads)).begin_object();
    j.key("cycles").begin_array();
    for (const auto& c : w.cycles) {
      j.begin_array().value(c[0]).value(c[1]).value(c[2]).end_array();
    }
    j.end_array();
    write_units(j, w.units);
    j.end_object();
  }
}

// The fixed traced set through the drivers: wall time, outputs and the
// solver counters the run added to the registry.
void run_pass(Json& j, Workload& wl, std::size_t threads) {
  sks::par::set_default_threads(threads);
  const auto before = solver_counters();
  std::vector<UnitResult> units;
  const double t0 = perfbench::now_s();
  for (std::size_t k = 0; k < wl.trace_rounds(); ++k) {
    for (std::size_t u = 0; u < wl.units_per_round(); ++u) {
      units.push_back(wl.run_unit(k, u, threads));
    }
  }
  j.field("wall", perfbench::now_s() - t0);
  j.key("counters").begin_object();
  for (const auto& [name, v] : solver_counters()) {
    const auto it = before.find(name);
    j.field(name, v - (it == before.end() ? 0 : it->second));
  }
  j.end_object();
  write_units(j, units);
}

void write_spans(Json& j, const std::vector<perfbench::Span>& spans,
                 double base) {
  j.begin_array();
  for (const auto& s : spans) {
    j.begin_array()
        .value(s.name)
        .value(s.start - base)
        .value(s.end - base)
        .value(s.parent)
        .value(static_cast<std::uint64_t>(s.item))
        .end_array();
  }
  j.end_array();
}

void write_tally(Json& j, const perfbench::Tally& t) {
  const auto& s = t.solve;
  j.key("tally").begin_object();
  j.field("newton_iterations", s.newton_iterations)
      .field("newton_failures", s.newton_failures)
      .field("lu_factorizations", s.lu_factorizations)
      .field("lu_refactorizations", s.lu_refactorizations)
      .field("lu_pattern_rebuilds", s.lu_pattern_rebuilds)
      .field("steps_accepted", s.steps_accepted)
      .field("dt_halvings", s.dt_halvings)
      .field("be_fallbacks", s.be_fallbacks)
      .field("dc_gmin_steps", s.dc_gmin_steps)
      .field("dc_source_steps", s.dc_source_steps)
      .field("schur_block_factorizations", s.schur_block_factorizations)
      .field("schur_interface_solves", s.schur_interface_solves)
      .field("batch_lanes", t.batch_lanes)
      .field("batch_fallbacks", t.batch_fallbacks)
      .field("batch_refactor_passes", t.batch_refactor_passes)
      .field("schur_bytes", t.schur_bytes)
      .field("unknowns", t.unknowns)
      .field("steps", t.steps)
      .field("window_steps", t.window_steps);
  j.key("measure_s").begin_array();
  for (const double v : t.measure_s) j.value(v);
  j.end_array();
  j.end_object();
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload NAME [--seed N] "
               "[--mode run|trace|golden] [--seconds T] [--setup-reps K] "
               "[--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, mode = "run", spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t setup_reps = 5;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string arg = argv[i + 1];
    if (flag == "--workload") {
      name = arg;
    } else if (flag == "--seed") {
      seed = std::strtoull(arg.c_str(), nullptr, 10);
    } else if (flag == "--mode") {
      mode = arg;
    } else if (flag == "--seconds") {
      seconds = std::atof(arg.c_str());
    } else if (flag == "--setup-reps") {
      setup_reps = static_cast<std::size_t>(std::atoi(arg.c_str()));
    } else if (flag == "--spans") {
      spans_path = arg;
    } else {
      return usage();
    }
  }
  auto wl = perfbench::make_workload(name);
  if (!wl || setup_reps == 0 ||
      (mode != "run" && mode != "trace" && mode != "golden")) {
    return usage();
  }

  const std::size_t pool = wl->pool_rounds();
  const std::size_t first =
      static_cast<std::size_t>(sks::util::derive_seed(seed, 0) % pool);
  const std::size_t slice = wl->slice_rounds();

  std::ostringstream out;
  Json j(out);
  j.begin_object();
  if (mode == "golden") {
    wl->setup(0, pool, nullptr);
    std::vector<UnitResult> units;
    for (std::size_t k = 0; k < pool; ++k) {
      for (std::size_t u = 0; u < wl->units_per_round(); ++u) {
        units.push_back(wl->run_unit(k, u, kThreads));
      }
    }
    write_units(j, units);
  } else if (mode == "run") {
    j.key("setup_s").begin_array();
    for (std::size_t rep = 0; rep < setup_reps; ++rep) {
      wl = perfbench::make_workload(name);
      const double t0 = perfbench::now_s();
      wl->setup(first, slice, nullptr);
      j.value(perfbench::now_s() - t0);
    }
    j.end_array();
    j.key("windows").begin_object();
    // One untimed cycle first, so the timed windows start from warm caches
    // and a settled allocator rather than from the set-up's state.
    sks::par::set_default_threads(kThreads);
    for (std::size_t k = 0; k < wl->cycle_rounds(); ++k) {
      for (std::size_t u = 0; u < wl->units_per_round(); ++u) {
        wl->run_unit(k, u, kThreads);
      }
    }
    // A third of the time at 4 threads, two thirds at 1 thread: the slower
    // count needs the longer window for as many cycles.
    run_windows(j, *wl, seconds / 3.0, seconds * 2.0 / 3.0);
    j.end_object();
  } else {
    perfbench::Recorder setup_rec;
    const double base = perfbench::now_s();
    wl->setup(first, slice, &setup_rec);
    j.key("passes").begin_object();
    for (const std::size_t threads : {kThreads, std::size_t{1}}) {
      j.key(std::to_string(threads)).begin_object();
      run_pass(j, *wl, threads);
      j.end_object();
    }
    j.end_object();

    perfbench::Recorder rec;
    perfbench::Tally tally;
    const char* timers[] = {"esim.batch_assemble", "esim.batch_refactor",
                            "esim.batch_trisolve"};
    std::vector<double> timer_before;
    for (const char* t : timers) timer_before.push_back(timer_seconds(t));
    std::vector<UnitResult> units;
    const double t0 = perfbench::now_s();
    for (std::size_t k = 0; k < wl->trace_rounds(); ++k) {
      for (std::size_t u = 0; u < wl->units_per_round(); ++u) {
        units.push_back(wl->replay_unit(k, u, rec, tally));
      }
    }
    const double replay_wall = perfbench::now_s() - t0;
    j.key("replay").begin_object().field("wall", replay_wall);
    j.key("timers").begin_object();
    for (std::size_t i = 0; i < std::size(timers); ++i) {
      j.field(timers[i], timer_seconds(timers[i]) - timer_before[i]);
    }
    j.end_object();
    write_tally(j, tally);
    write_units(j, units);
    j.end_object();

    if (!spans_path.empty()) {
      std::ofstream f(spans_path, std::ios::trunc);
      Json s(f);
      s.begin_object().key("setup");
      write_spans(s, setup_rec.spans(), base);
      s.key("replay");
      write_spans(s, rec.spans(), base);
      s.end_object();
      f << '\n';
      if (!f.good()) {
        std::cerr << "perfbench_driver: cannot write " << spans_path << "\n";
        return 1;
      }
    }
  }
  j.field("peak_rss_kb", peak_rss_kb());
  j.end_object();
  std::cout << out.str() << std::endl;
  return 0;
}
