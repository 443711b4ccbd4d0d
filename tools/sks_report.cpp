// sks-report: inspect the BENCH_*.json run reports written by the obs
// telemetry layer (schema documented in obs/report.hpp and EXPERIMENTS.md).
//
//   sks-report print   REPORT... [--top N]  pretty-print reports
//   sks-report diff    A B [--top N]    section deltas + ranked profile deltas
//   sks-report flame   INPUT [flags]    top self-time spans + collapsed stacks
//   sks-report explain BUNDLE           diagnose a postmortem bundle
//   sks-report repro   BUNDLE           re-run a bundle, check it reproduces
//   sks-report run     NETLIST [flags]  solve a netlist; bundle on failure
//   sks-report history JSONL [REPORT..] append summaries, print trend table
//   sks-report timeline FILE            summarize a metrics timeline JSONL
//   sks-report tail    FILE [--follow]  render the latest timeline snapshot
//
// Malformed arguments (an unknown flag, a non-numeric --top) print the
// usage and exit 2.
//
// `diff` compares two runs section by section: values, counters, gauges,
// timers (total_s) and streams (mean, p99).  Either input may be a run
// report or a metrics timeline JSONL, whose final snapshot carries the
// same section names.  When both inputs embed a call-tree `profile`
// (obs/profile.hpp) it also ranks the profile nodes by wall-time delta;
// the bench gate runs it on an out-of-window failure.
//
// `timeline` validates the file (every line parses, seq strictly monotone
// — exit 1 otherwise) and prints the snapshot ladder plus the final stream
// statistics; `tail` renders the newest snapshot as a live progress view
// and with `--follow` keeps polling until the run writes its "final"
// snapshot (schema in obs/timeline.hpp).
//
// Reports written before the trace section's instant counts replaced the
// event journal may carry a "journal" section; every verb ignores it.
//
// `flame` reads a report's `profile` section or a raw Chrome trace JSON,
// whose spans are re-aggregated on the fly.  It prints the top self-time
// table plus per-worker utilization and can write the collapsed-stack text
// flamegraph.pl/speedscope take directly.
//
// `explain`/`repro` operate on the failure postmortem bundles the engine
// writes (esim/postmortem.hpp): `explain` re-derives the failure class from
// the recorded evidence and prints a diagnosis plus the iteration tail;
// `repro` re-runs the embedded netlist with the embedded options and exits 0
// iff the same failure class reproduces.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "esim/engine.hpp"
#include "esim/postmortem.hpp"
#include "esim/spice_io.hpp"
#include "obs/diag.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/stream.hpp"
#include "util/error.hpp"

namespace {

using sks::obs::Json;

// Thrown on malformed verb arguments; main prints the usage and exits 2.
struct UsageError {};

// The value of a `--top N` flag at args[i]; advances i past it.
std::size_t parse_top(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) throw UsageError{};
  const std::string& text = args[++i];
  if (text.empty() || text.size() > 9 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError{};
  }
  return static_cast<std::size_t>(std::stoul(text));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  sks::check(in.good(), "cannot open '", path, "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Json load_report(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  sks::check(doc.is_object(), path, ": not a JSON object");
  sks::check(doc.has("report"), path, ": missing \"report\" field");
  return doc;
}

std::string fmt(double v) { return sks::obs::json_number(v); }

// Flat name -> number view of one report section ("values", "counters").
std::map<std::string, double> number_section(const Json& doc,
                                             const std::string& section) {
  std::map<std::string, double> out;
  if (const Json* s = doc.find(section); s != nullptr && s->is_object()) {
    for (const auto& [key, value] : s->object()) {
      if (value.is_number()) out[key] = value.number();
    }
  }
  return out;
}

// name -> (count, total_s) of the timers section.
std::map<std::string, std::pair<double, double>> timer_section(
    const Json& doc) {
  std::map<std::string, std::pair<double, double>> out;
  if (const Json* s = doc.find("timers"); s != nullptr && s->is_object()) {
    for (const auto& [key, value] : s->object()) {
      if (!value.is_object()) continue;
      const Json* count = value.find("count");
      const Json* total = value.find("total_s");
      out[key] = {count != nullptr ? count->number() : 0.0,
                  total != nullptr ? total->number() : 0.0};
    }
  }
  return out;
}

double opt_number(const Json& obj, const char* key, double fallback = 0.0) {
  const Json* f = obj.find(key);
  return f != nullptr && f->is_number() ? f->number() : fallback;
}

// The streams section of a report or timeline snapshot, one row per stream.
void print_stream_table(const Json& doc, const char* indent) {
  const Json* streams = doc.find("streams");
  if (streams == nullptr || !streams->is_object() ||
      streams->object().empty()) {
    return;
  }
  std::printf("%s%-24s %8s %12s %12s %12s %12s %12s\n", indent, "stream",
              "count", "mean", "min", "p50", "p99", "max");
  for (const auto& [key, s] : streams->object()) {
    if (!s.is_object()) continue;
    std::printf("%s%-24s %8.0f %12s %12s %12s %12s %12s\n", indent,
                key.c_str(), opt_number(s, "count"),
                fmt(opt_number(s, "mean")).c_str(),
                fmt(opt_number(s, "min")).c_str(),
                fmt(opt_number(s, "p50")).c_str(),
                fmt(opt_number(s, "p99")).c_str(),
                fmt(opt_number(s, "max")).c_str());
  }
}

void print_report(const std::string& path, std::size_t top = 0) {
  const Json doc = load_report(path);
  std::cout << path << ": report \"" << doc.at("report").str() << "\"";
  if (const Json* v = doc.find("schema_version")) {
    std::cout << " (schema " << fmt(v->number()) << ")";
  }
  std::cout << "\n";
  if (const Json* meta = doc.find("meta"); meta != nullptr) {
    for (const auto& [key, value] : meta->object()) {
      std::cout << "  meta  " << key << " = "
                << (value.is_string() ? value.str() : fmt(value.number()))
                << "\n";
    }
  }
  for (const char* section : {"values", "counters", "gauges"}) {
    const auto rows = number_section(doc, section);
    if (rows.empty()) continue;
    // Key column sized to the longest name so long keys (the per-size
    // fixed.bigtree_* counter windows, the schur.* family) keep the value
    // column aligned instead of overflowing a hard-coded width.
    std::size_t width = 0;
    for (const auto& [key, value] : rows) {
      (void)value;
      width = std::max(width, key.size());
    }
    std::cout << "  " << section << ":\n";
    for (const auto& [key, value] : rows) {
      std::printf("    %-*s = %s\n", static_cast<int>(width), key.c_str(),
                  fmt(value).c_str());
    }
  }
  const auto timers = timer_section(doc);
  if (!timers.empty()) {
    // Largest total first: the profile question is "where did time go".
    std::vector<std::pair<std::string, std::pair<double, double>>> rows(
        timers.begin(), timers.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.second > b.second.second;
    });
    if (top > 0 && rows.size() > top) {
      std::cout << "  timers (top " << top << " of " << rows.size()
                << " by total):\n";
      rows.resize(top);
    } else {
      std::cout << "  timers (by total):\n";
    }
    for (const auto& [key, ct] : rows) {
      std::printf("    %-32s count=%-8.0f total=%.6fs\n", key.c_str(),
                  ct.first, ct.second);
    }
  }
  print_stream_table(doc, "  ");
  if (const Json* trace = doc.find("trace"); trace != nullptr) {
    const double dropped = trace->at("dropped").number();
    std::cout << "  trace: events=" << fmt(trace->at("events").number())
              << " dropped=" << fmt(dropped) << "\n";
    for (const auto& [key, value] : number_section(*trace, "instants")) {
      std::cout << "    " << key << " = " << fmt(value) << "\n";
    }
    // Saturation at a glance: a nonzero drop means the bounded trace
    // buffers lost events and the counts above undercount.
    if (dropped > 0.0) {
      std::cout << "  DROPS: trace=" << fmt(dropped)
                << " (bounded buffers saturated; raise their capacity)\n";
    }
  }
}

void diff_section(const std::string& title,
                  const std::map<std::string, double>& a,
                  const std::map<std::string, double>& b) {
  bool header = false;
  auto ensure_header = [&] {
    if (!header) std::cout << title << ":\n";
    header = true;
  };
  for (const auto& [key, va] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      ensure_header();
      std::cout << "  " << key << " = " << fmt(va) << " -> (absent)\n";
      continue;
    }
    if (it->second == va) continue;
    ensure_header();
    std::cout << "  " << key << " = " << fmt(va) << " -> " << fmt(it->second);
    if (va != 0.0) {
      std::printf("  (%+.1f%%)", 100.0 * (it->second - va) / va);
    }
    std::cout << "\n";
  }
  for (const auto& [key, vb] : b) {
    if (a.count(key) != 0) continue;
    ensure_header();
    std::cout << "  " << key << " = (absent) -> " << fmt(vb) << "\n";
  }
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  sks::check(out.good(), "cannot open '", path, "' for writing");
  out << content;
  out.flush();
  sks::check(out.good(), "write to '", path, "' failed");
}

// ---- postmortem bundles -------------------------------------------------

void print_iteration_tail(const std::vector<sks::obs::DiagRecord>& records,
                          std::size_t max_rows) {
  if (records.empty()) {
    std::cout << "  (no iteration records in bundle)\n";
    return;
  }
  const std::size_t first =
      records.size() > max_rows ? records.size() - max_rows : 0;
  std::printf("  %-5s %-12s %-12s %-12s %-7s %-10s %-12s %-12s\n", "iter",
              "t", "residual", "max|dx|", "damp", "lu", "pivot_growth",
              "cond_est");
  for (std::size_t i = first; i < records.size(); ++i) {
    const sks::obs::DiagRecord& r = records[i];
    std::printf("  %-5d %-12.4g %-12.4g %-12.4g %-7.3f %-10s %-12.4g %-12.4g\n",
                r.iteration, r.t, r.residual, r.max_dx, r.damping,
                sks::obs::to_string(
                    static_cast<sks::obs::DiagLuStatus>(r.lu_status)),
                r.pivot_growth, r.cond_est);
  }
  if (first > 0) {
    std::cout << "  (" << first << " older records omitted)\n";
  }
}

int explain_bundle(const std::string& bundle_dir) {
  const auto manifest = sks::esim::read_postmortem_manifest(bundle_dir);
  const auto tail = sks::esim::read_postmortem_iterations(bundle_dir);
  const sks::obs::FailureClass derived =
      sks::esim::classify_bundle(manifest, tail);

  std::cout << "bundle: " << bundle_dir << "\n"
            << "  phase:        " << manifest.phase << " (t = "
            << fmt(manifest.t) << " s, " << manifest.iterations
            << " Newton iterations)\n"
            << "  solver:       " << manifest.solver_mode << "\n"
            << "  class:        " << sks::obs::to_string(derived);
  if (!manifest.failure_class.empty() &&
      manifest.failure_class != sks::obs::to_string(derived)) {
    std::cout << "  (manifest recorded: " << manifest.failure_class << ")";
  }
  std::cout << "\n";
  if (!manifest.worst_node.empty()) {
    std::cout << "  worst node:   " << manifest.worst_node << "\n";
  }
  std::cout << "  lu bailouts:  singular=" << manifest.lu_singular
            << " nonfinite=" << manifest.lu_nonfinite << "\n";
  if (manifest.has_transient) {
    std::cout << "  dt halvings:  " << manifest.dt_halvings
              << (manifest.dt_at_floor ? " (gave up at dt_min)" : "") << "\n";
  }
  if (!manifest.message.empty()) {
    std::cout << "  error:        " << manifest.message << "\n";
  }
  std::cout << "\ndiagnosis:\n  "
            << sks::obs::describe(derived, manifest.worst_node) << "\n"
            << "\niteration tail:\n";
  print_iteration_tail(tail, 12);
  std::cout << "\nreproduce with:\n  sks-report repro " << bundle_dir << "\n";
  return 0;
}

sks::esim::SolverMode parse_solver_mode(const std::string& name) {
  if (name == "sparse") return sks::esim::SolverMode::kSparse;
  if (name == "hierarchical") return sks::esim::SolverMode::kHierarchical;
  sks::check(name == "auto", "unknown solver mode '", name,
             "' (use sparse/hierarchical/auto)");
  return sks::esim::SolverMode::kAuto;
}

// Re-run one netlist the way the failing engine ran it; returns the failure
// class name ("" when the solve converged).
std::string rerun_failure_class(sks::esim::Simulator& sim,
                                const sks::esim::BundleManifest& manifest) {
  try {
    if (manifest.has_transient && manifest.phase != "dc") {
      sim.run_transient(manifest.transient);
    } else {
      sim.dc_solution(manifest.t);
    }
  } catch (const sks::ConvergenceError& e) {
    sks::obs::FailureEvidence evidence;
    evidence.phase = e.phase();
    evidence.lu_singular = sim.last_stats().lu_singular;
    evidence.lu_nonfinite = sim.last_stats().lu_nonfinite;
    evidence.dt_halvings = sim.last_stats().dt_halvings;
    // The transient loop only throws once dt has collapsed to the floor.
    evidence.dt_at_floor = e.phase() == "transient";
    if (sim.diag_ring() != nullptr) {
      evidence.tail = sim.diag_ring()->snapshot();
    }
    return sks::obs::to_string(sks::obs::classify_failure(evidence));
  }
  return "";
}

int repro_bundle(const std::string& bundle_dir) {
  const auto manifest = sks::esim::read_postmortem_manifest(bundle_dir);
  const std::string netlist =
      read_file(bundle_dir + "/" + manifest.netlist_file);
  sks::esim::Simulator sim(sks::esim::parse_spice(netlist));
  sim.set_solver_mode(parse_solver_mode(manifest.solver_mode));
  sim.set_diagnostics(true);

  const std::string got = rerun_failure_class(sim, manifest);
  if (got.empty()) {
    std::cout << "repro: solve CONVERGED — bundle failure ("
              << manifest.failure_class << ") did not reproduce\n";
    return 1;
  }
  if (got == manifest.failure_class) {
    std::cout << "repro: reproduced failure class '" << got << "' on the "
              << manifest.solver_mode << " path\n";
    return 0;
  }
  std::cout << "repro: failure class mismatch — bundle says '"
            << manifest.failure_class << "', re-run produced '" << got
            << "'\n";
  return 1;
}

int run_netlist(const std::vector<std::string>& args) {
  std::string netlist_path;
  std::string solver;
  std::string postmortem_dir;
  bool transient = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--dc") {
      transient = false;
    } else if (a == "--tran") {
      transient = true;
    } else if (a == "--solver" && i + 1 < args.size()) {
      solver = args[++i];
    } else if (a == "--postmortem" && i + 1 < args.size()) {
      postmortem_dir = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError{};
    } else {
      if (!netlist_path.empty()) throw UsageError{};
      netlist_path = a;
    }
  }
  if (netlist_path.empty()) throw UsageError{};

  sks::esim::Simulator sim(sks::esim::parse_spice(read_file(netlist_path)));
  // No --solver flag leaves the simulator's automatic selection in force.
  if (!solver.empty()) sim.set_solver_mode(parse_solver_mode(solver));
  if (!postmortem_dir.empty()) sim.set_postmortem_dir(postmortem_dir);
  try {
    if (transient) {
      const auto result = sim.run_transient({});
      std::cout << "run: transient OK, " << result.steps()
                << " steps recorded\n";
    } else {
      const auto dc = sim.dc_solution(0.0);
      std::cout << "run: dc OK, " << dc.node_v.size() << " node voltages\n";
    }
  } catch (const sks::ConvergenceError& e) {
    std::cerr << "run: solve failed: " << e.what() << "\n";
    if (!e.bundle_path().empty()) {
      std::cerr << "run: postmortem bundle: " << e.bundle_path() << "\n"
                << "run: diagnose with: sks-report explain " << e.bundle_path()
                << "\n";
    }
    return 3;
  }
  return 0;
}

// ---- metrics timelines --------------------------------------------------

// Parse a timeline JSONL file (obs/timeline.hpp schema).  Hard-fails (via
// sks::check) on an unparsable line or a non-monotone seq — a corrupt
// timeline must not summarize as if it were healthy.
std::vector<Json> load_timeline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  sks::check(in.good(), "cannot open '", path, "'");
  std::vector<Json> out;
  std::string line;
  std::size_t line_no = 0;
  double prev_seq = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Json snap;
    try {
      snap = Json::parse(line);
    } catch (const sks::Error& e) {
      sks::check(false, path, ":", line_no, ": unparsable snapshot: ",
                 e.what());
    }
    sks::check(snap.is_object() && snap.has("seq"), path, ":", line_no,
               ": snapshot has no \"seq\"");
    const double seq = snap.at("seq").number();
    sks::check(seq > prev_seq, path, ":", line_no, ": seq ", fmt(seq),
               " not strictly greater than ", fmt(prev_seq));
    prev_seq = seq;
    out.push_back(std::move(snap));
  }
  return out;
}

// One ladder row per snapshot: seq, label, wall clock, progress and the
// drop counters (so saturation mid-run is visible in the summary).
void print_timeline_row(const Json& snap) {
  std::string progress_text = "-";
  if (const Json* p = snap.find("progress"); p != nullptr && p->is_object()) {
    std::ostringstream text;
    text << static_cast<std::uint64_t>(opt_number(*p, "done")) << "/"
         << static_cast<std::uint64_t>(opt_number(*p, "total")) << " @"
         << fmt(opt_number(*p, "rate_per_s")) << "/s eta "
         << fmt(opt_number(*p, "eta_s")) << "s";
    progress_text = text.str();
  }
  double drops = 0.0;
  if (const Json* t = snap.find("trace")) drops = opt_number(*t, "dropped");
  const Json* label = snap.find("label");
  std::printf("  %6.0f %-18s %10ss %-28s %8.0f\n", opt_number(snap, "seq"),
              label != nullptr && label->is_string() ? label->str().c_str()
                                                     : "?",
              fmt(opt_number(snap, "wall_s")).c_str(), progress_text.c_str(),
              drops);
}

int summarize_timeline(const std::string& path) {
  const std::vector<Json> snaps = load_timeline(path);
  if (snaps.empty()) {
    std::cout << path << ": no snapshots\n";
    return 0;
  }
  const Json& last = snaps.back();
  std::cout << "timeline " << path << ": " << snaps.size()
            << " snapshots over " << fmt(opt_number(last, "wall_s"))
            << "s (seq " << fmt(opt_number(snaps.front(), "seq")) << ".."
            << fmt(opt_number(last, "seq")) << ", monotone)\n";
  std::printf("  %6s %-18s %11s %-28s %8s\n", "seq", "label", "wall",
              "progress", "drops");
  // Middle rows elided on long timelines; the ends carry the story.
  constexpr std::size_t kHead = 8, kTail = 8;
  if (snaps.size() <= kHead + kTail + 1) {
    for (const Json& snap : snaps) print_timeline_row(snap);
  } else {
    for (std::size_t i = 0; i < kHead; ++i) print_timeline_row(snaps[i]);
    std::cout << "  ... (" << snaps.size() - kHead - kTail
              << " snapshots elided)\n";
    for (std::size_t i = snaps.size() - kTail; i < snaps.size(); ++i) {
      print_timeline_row(snaps[i]);
    }
  }
  std::cout << "final snapshot streams:\n";
  print_stream_table(last, "  ");
  if (const Json* t = last.find("trace");
      t != nullptr && opt_number(*t, "dropped") > 0.0) {
    std::cout << "DROPS: trace=" << fmt(opt_number(*t, "dropped")) << "\n";
  }
  return 0;
}

// Latest-snapshot view for a live run: progress bar, rates, streams.
void render_tail_snapshot(const Json& snap, std::size_t total_snapshots) {
  const Json* label = snap.find("label");
  std::cout << "snapshot #" << fmt(opt_number(snap, "seq")) << " \""
            << (label != nullptr && label->is_string() ? label->str() : "?")
            << "\" at wall " << fmt(opt_number(snap, "wall_s")) << "s ("
            << total_snapshots << " snapshots so far)\n";
  if (const Json* sim_t = snap.find("sim_t")) {
    std::cout << "  sim time: " << fmt(sim_t->number()) << "s\n";
  }
  if (const Json* p = snap.find("progress"); p != nullptr && p->is_object()) {
    const double done = opt_number(*p, "done");
    const double total = opt_number(*p, "total");
    const double frac = total > 0.0 ? done / total : 0.0;
    constexpr int kBarWidth = 40;
    const int filled = static_cast<int>(frac * kBarWidth + 0.5);
    std::string bar(static_cast<std::size_t>(filled), '#');
    bar.resize(kBarWidth, '.');
    const Json* name = p->find("name");
    std::printf("  %s [%s] %.0f/%.0f (%.1f%%)\n",
                name != nullptr && name->is_string() ? name->str().c_str()
                                                     : "progress",
                bar.c_str(), done, total, 100.0 * frac);
    std::printf("  rate %s/s (recent %s/s), eta %ss\n",
                fmt(opt_number(*p, "rate_per_s")).c_str(),
                fmt(opt_number(*p, "recent_rate_per_s")).c_str(),
                fmt(opt_number(*p, "eta_s")).c_str());
    if (const Json* partial = p->find("partial");
        partial != nullptr && partial->is_object()) {
      std::cout << "  partial:";
      for (const auto& [key, v] : partial->object()) {
        std::cout << " " << key << "=" << fmt(v.number());
      }
      std::cout << "\n";
    }
  }
  print_stream_table(snap, "  ");
  if (const Json* t = snap.find("trace");
      t != nullptr && opt_number(*t, "dropped") > 0.0) {
    std::cout << "  DROPS: trace=" << fmt(opt_number(*t, "dropped")) << "\n";
  }
}

int tail_timeline(const std::string& path, bool follow) {
  // Poll-and-render loop; one pass when not following.  The writer flushes
  // whole lines, so re-reading the file always sees complete snapshots.
  constexpr auto kPoll = std::chrono::milliseconds(500);
  constexpr int kIdleExit = 60;  // ~30 s without a new snapshot
  double last_seq = -1.0;
  int idle = 0;
  while (true) {
    std::vector<Json> snaps;
    try {
      snaps = load_timeline(path);
    } catch (const sks::Error& e) {
      // A partially-written first line right at startup is not an error
      // in follow mode — retry; bare tail reports it.
      if (!follow) throw;
      std::cerr << "tail: " << e.what() << " (retrying)\n";
      std::this_thread::sleep_for(kPoll);
      continue;
    }
    if (!snaps.empty()) {
      const Json& last = snaps.back();
      const double seq = opt_number(last, "seq");
      if (seq != last_seq) {
        last_seq = seq;
        idle = 0;
        render_tail_snapshot(last, snaps.size());
        const Json* label = last.find("label");
        if (label != nullptr && label->is_string() &&
            label->str() == "final") {
          if (follow) std::cout << "tail: run finished (final snapshot)\n";
          return 0;
        }
      } else {
        ++idle;
      }
    } else {
      ++idle;
    }
    if (!follow) return snaps.empty() ? 1 : 0;
    if (idle >= kIdleExit) {
      std::cout << "tail: no new snapshot for a while; giving up\n";
      return 1;
    }
    std::this_thread::sleep_for(kPoll);
  }
}

// ---- bench history ------------------------------------------------------

// FNV-1a over the canonical (report name + sorted flat values) rendering:
// the dedup key for history lines.  Two appends of the same BENCH_*.json
// hash identically; meta (hostname, SHA) is deliberately excluded so a
// re-run that produced bit-identical numbers still dedups.
std::string history_hash(const std::string& report,
                         const std::map<std::string, double>& rows) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(report);
  for (const auto& [key, v] : rows) {
    mix(key);
    mix(fmt(v));
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Flat name -> number view of one report doc: values + counters + gauges.
// Gauges fold in the mem.* rows (peak RSS, page faults, byte accounting)
// so the history accumulates a memory trend alongside walls.
std::map<std::string, double> history_rows(const Json& doc) {
  std::map<std::string, double> rows = number_section(doc, "values");
  for (const auto& [key, v] : number_section(doc, "counters")) {
    rows.emplace(key, v);
  }
  for (const auto& [key, v] : number_section(doc, "gauges")) {
    rows.emplace(key, v);
  }
  return rows;
}

// One history line: report name, dedup hash, provenance meta and the flat
// numeric rows.
std::string history_line(const Json& doc, const std::string& path) {
  const std::map<std::string, double> rows = history_rows(doc);
  std::ostringstream out;
  out << "{\"report\": \"" << sks::obs::json_escape(doc.at("report").str())
      << "\", \"source\": \"" << sks::obs::json_escape(path)
      << "\", \"hash\": \""
      << history_hash(doc.at("report").str(), rows) << "\"";
  if (const Json* meta = doc.find("meta");
      meta != nullptr && meta->is_object()) {
    out << ", \"meta\": {";
    bool first = true;
    for (const auto& [key, value] : meta->object()) {
      if (!value.is_string()) continue;
      out << (first ? "" : ", ") << '"' << sks::obs::json_escape(key)
          << "\": \"" << sks::obs::json_escape(value.str()) << '"';
      first = false;
    }
    out << "}";
  }
  out << ", \"values\": {";
  bool first = true;
  for (const auto& [key, v] : rows) {
    out << (first ? "" : ", ") << '"' << sks::obs::json_escape(key)
        << "\": " << fmt(v);
    first = false;
  }
  out << "}}";
  return out.str();
}

// Dedup hash of an already-written history line; legacy lines without a
// "hash" field get it recomputed from their report + values so pre-dedup
// history still participates.
std::string history_line_hash(const Json& doc) {
  if (const Json* h = doc.find("hash"); h != nullptr && h->is_string()) {
    return h->str();
  }
  return history_hash(doc.at("report").str(), number_section(doc, "values"));
}

int history_command(const std::string& jsonl_path,
                    const std::vector<std::string>& reports) {
  if (!reports.empty()) {
    // Existing hashes first: a CI re-run appending the identical report
    // must not add a duplicate point to the trend table.
    std::set<std::string> seen;
    {
      std::ifstream in(jsonl_path);
      std::string line;
      while (in.good() && std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        seen.insert(history_line_hash(Json::parse(line)));
      }
    }
    std::ofstream out(jsonl_path, std::ios::app);
    sks::check(out.good(), "cannot open '", jsonl_path, "' for appending");
    std::size_t appended = 0, skipped = 0;
    for (const std::string& path : reports) {
      const Json doc = load_report(path);
      const std::string hash =
          history_hash(doc.at("report").str(), history_rows(doc));
      if (!seen.insert(hash).second) {
        std::cout << "skipped " << path << ": duplicate of an existing "
                  << "history entry (hash " << hash << ")\n";
        ++skipped;
        continue;
      }
      out << history_line(doc, path) << "\n";
      ++appended;
    }
    out.flush();
    sks::check(out.good(), "append to '", jsonl_path, "' failed");
    std::cout << "appended " << appended << " report(s) to " << jsonl_path;
    if (skipped > 0) std::cout << " (" << skipped << " duplicate(s) skipped)";
    std::cout << "\n";
  }

  std::ifstream in(jsonl_path);
  sks::check(in.good(), "cannot open '", jsonl_path, "'");
  std::vector<std::pair<std::string, std::map<std::string, double>>> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const Json doc = Json::parse(line);
    entries.emplace_back(doc.at("report").str(),
                         number_section(doc, "values"));
  }
  if (entries.empty()) {
    std::cout << jsonl_path << ": no history entries\n";
    return 0;
  }

  // Trend table: the latest entry's metrics as rows, the most recent runs
  // as columns (newest right), closed by p50/p99 columns computed over the
  // WHOLE history with the streaming P² estimator — bounded memory no
  // matter how many runs the file has accumulated.
  constexpr std::size_t kMaxColumns = 6;
  const std::size_t first =
      entries.size() > kMaxColumns ? entries.size() - kMaxColumns : 0;
  // Metric column sized to the longest key in the latest entry (36 min):
  // the folded fixed.bigtree_* counter names run past 40 characters and
  // must not shear the run columns out of alignment.
  std::size_t key_width = 36;
  std::size_t val_width = 12;
  for (const auto& [key, latest] : entries.back().second) {
    key_width = std::max(key_width, key.size());
    for (std::size_t c = first; c < entries.size(); ++c) {
      const auto it = entries[c].second.find(key);
      if (it != entries[c].second.end()) {
        val_width = std::max(val_width, fmt(it->second).size());
      }
    }
    (void)latest;
  }
  const int kw = static_cast<int>(key_width);
  const int vw = static_cast<int>(val_width);
  std::cout << "history " << jsonl_path << " (" << entries.size()
            << " entries, showing last " << entries.size() - first
            << "; p50/p99 over all)\n";
  std::printf("  %-*s", kw, "metric");
  for (std::size_t c = first; c < entries.size(); ++c) {
    std::printf(" %*s", vw, ("run " + std::to_string(c + 1)).c_str());
  }
  std::printf(" %*s %*s\n", vw, "p50", vw, "p99");
  for (const auto& [key, latest] : entries.back().second) {
    (void)latest;
    std::printf("  %-*s", kw, key.c_str());
    for (std::size_t c = first; c < entries.size(); ++c) {
      const auto it = entries[c].second.find(key);
      if (it == entries[c].second.end()) {
        std::printf(" %*s", vw, "-");
      } else {
        std::printf(" %*s", vw, fmt(it->second).c_str());
      }
    }
    sks::obs::stream::P2Quantile p50(0.50), p99(0.99);
    for (const auto& [name, values] : entries) {
      (void)name;
      const auto it = values.find(key);
      if (it != values.end()) {
        p50.add(it->second);
        p99.add(it->second);
      }
    }
    std::printf(" %*s %*s\n", vw, fmt(p50.value()).c_str(), vw,
                fmt(p99.value()).c_str());
  }
  return 0;
}

// ---- performance attribution --------------------------------------------

// Re-hydrate an obs::Profile from a report's aggregated `profile` section.
sks::obs::Profile profile_from_report_doc(const Json& doc,
                                          const std::string& path) {
  const Json* prof = doc.find("profile");
  sks::check(prof != nullptr && prof->is_object(), path,
             ": no \"profile\" section (re-run with --profile and tracing "
             "enabled: SKS_TRACE=1 or --trace-out)");
  sks::obs::Profile p;
  p.set_window_ns(
      static_cast<std::uint64_t>(opt_number(*prof, "window_s") * 1e9));
  if (const Json* nodes = prof->find("nodes");
      nodes != nullptr && nodes->is_array()) {
    for (const Json& jn : nodes->array()) {
      sks::obs::ProfileNode n;
      n.path = jn.at("path").str();
      n.name = jn.at("name").str();
      n.depth = static_cast<std::size_t>(opt_number(jn, "depth"));
      n.count = static_cast<std::uint64_t>(opt_number(jn, "count"));
      n.total_ns = static_cast<std::uint64_t>(opt_number(jn, "total_s") * 1e9);
      n.self_ns = static_cast<std::uint64_t>(opt_number(jn, "self_s") * 1e9);
      n.min_ns = static_cast<std::uint64_t>(opt_number(jn, "min_s") * 1e9);
      n.max_ns = static_cast<std::uint64_t>(opt_number(jn, "max_s") * 1e9);
      if (const Json* threads = jn.find("threads");
          threads != nullptr && threads->is_object()) {
        for (const auto& [thread, slice] : threads->object()) {
          if (!slice.is_object()) continue;
          n.threads[thread] = {
              static_cast<std::uint64_t>(opt_number(slice, "count")),
              static_cast<std::uint64_t>(opt_number(slice, "total_s") * 1e9)};
        }
      }
      p.add_node(std::move(n));
    }
  }
  if (const Json* workers = prof->find("workers");
      workers != nullptr && workers->is_array()) {
    for (const Json& jw : workers->array()) {
      sks::obs::WorkerUtil w;
      const Json* thread = jw.find("thread");
      if (thread == nullptr || !thread->is_string()) continue;
      w.thread = thread->str();
      w.spans = static_cast<std::uint64_t>(opt_number(jw, "spans"));
      w.busy_ns = static_cast<std::uint64_t>(opt_number(jw, "busy_s") * 1e9);
      w.util = opt_number(jw, "util");
      p.add_worker(std::move(w));
    }
  }
  p.seal();
  return p;
}

// Rebuild a profile from a raw Chrome trace (--trace-out output, or any
// trace-event JSON): thread_name metadata labels the tracks, complete
// ('X') events become spans.  ts/dur are microseconds in that format.
sks::obs::Profile profile_from_chrome_trace(const Json& doc,
                                            const std::string& path) {
  const Json* events = doc.find("traceEvents");
  sks::check(events != nullptr && events->is_array(), path,
             ": no \"traceEvents\" array");
  std::map<double, std::string> thread_names;
  for (const Json& e : events->array()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str() != "M") continue;
    const Json* name = e.find("name");
    if (name == nullptr || !name->is_string() ||
        name->str() != "thread_name") {
      continue;
    }
    const Json* args = e.find("args");
    if (args == nullptr) continue;
    const Json* tname = args->find("name");
    if (tname == nullptr || !tname->is_string()) continue;
    thread_names[opt_number(e, "tid")] = tname->str();
  }
  std::vector<sks::obs::ProfileSpan> spans;
  for (const Json& e : events->array()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->str() != "X") continue;
    const Json* name = e.find("name");
    if (name == nullptr || !name->is_string()) continue;
    const double tid = opt_number(e, "tid");
    const auto it = thread_names.find(tid);
    spans.push_back({it != thread_names.end() ? it->second : "tid-" + fmt(tid),
                     name->str(),
                     static_cast<std::uint64_t>(opt_number(e, "ts") * 1000.0),
                     static_cast<std::uint64_t>(opt_number(e, "dur") * 1000.0)});
  }
  return sks::obs::build_profile(std::move(spans));
}

// Accept either input kind: a BENCH report with a `profile` section, or a
// Chrome trace JSON to aggregate on the fly.
sks::obs::Profile load_profile_any(const std::string& path) {
  const Json doc = Json::parse(read_file(path));
  sks::check(doc.is_object(), path, ": not a JSON object");
  if (doc.has("traceEvents")) return profile_from_chrome_trace(doc, path);
  sks::check(doc.has("report"), path,
             ": neither a run report nor a Chrome trace");
  return profile_from_report_doc(doc, path);
}

int flame_command(const std::vector<std::string>& args) {
  std::string input, collapsed_path;
  std::size_t top = 20;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--top") {
      top = parse_top(args, i);
    } else if (a == "--collapsed" && i + 1 < args.size()) {
      collapsed_path = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError{};
    } else {
      if (!input.empty()) throw UsageError{};
      input = a;
    }
  }
  if (input.empty()) throw UsageError{};

  const sks::obs::Profile profile = load_profile_any(input);
  if (profile.empty()) {
    std::cout << input << ": profile is empty (no spans recorded)\n";
    return 1;
  }

  std::vector<const sks::obs::ProfileNode*> rows;
  rows.reserve(profile.nodes().size());
  for (const auto& n : profile.nodes()) rows.push_back(&n);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    if (a->self_ns != b->self_ns) return a->self_ns > b->self_ns;
    return a->path < b->path;
  });

  std::cout << "flame " << input << ": " << profile.nodes().size()
            << " tree nodes over " << fmt(profile.window_ns() * 1e-9)
            << "s window\n";
  const std::size_t shown = top > 0 ? std::min(top, rows.size()) : rows.size();
  std::printf("  %12s %12s %10s  %s\n", "self", "total", "count", "path");
  for (std::size_t i = 0; i < shown; ++i) {
    const sks::obs::ProfileNode& n = *rows[i];
    std::printf("  %11ss %11ss %10llu  %s\n",
                fmt(static_cast<double>(n.self_ns) * 1e-9).c_str(),
                fmt(static_cast<double>(n.total_ns) * 1e-9).c_str(),
                static_cast<unsigned long long>(n.count), n.path.c_str());
  }
  if (shown < rows.size()) {
    std::cout << "  ... (" << rows.size() - shown << " nodes below --top "
              << top << ")\n";
  }
  if (!profile.workers().empty()) {
    std::cout << "  workers (busy over window):\n";
    for (const auto& w : profile.workers()) {
      std::printf("    %-20s spans=%-8llu busy=%ss util=%.1f%%\n",
                  w.thread.c_str(), static_cast<unsigned long long>(w.spans),
                  fmt(static_cast<double>(w.busy_ns) * 1e-9).c_str(),
                  100.0 * w.util);
    }
  }
  if (!collapsed_path.empty()) {
    write_file(collapsed_path, profile.collapsed_stacks());
    std::cout << "wrote collapsed stacks to " << collapsed_path
              << " (feed to flamegraph.pl or speedscope)\n";
  }
  return 0;
}

// ---- run diffs ----------------------------------------------------------

// A run report, or a metrics timeline's final snapshot: both carry the
// values/counters/gauges/timers/streams sections under the same names.
Json load_run(const std::string& path) {
  const std::string text = read_file(path);
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const sks::Error&) {
    // Not one JSON document: read it as a timeline below.
  }
  if (doc.has("report")) return doc;
  std::vector<Json> snaps = load_timeline(path);
  sks::check(!snaps.empty(), path, ": neither a run report nor a timeline");
  return std::move(snaps.back());
}

// name.total_s -> total of the timers section.
std::map<std::string, double> timer_totals(const Json& doc) {
  std::map<std::string, double> out;
  for (const auto& [key, ct] : timer_section(doc)) {
    out[key + ".total_s"] = ct.second;
  }
  return out;
}

// name.mean / name.p99 -> value of the streams section.
std::map<std::string, double> stream_rows(const Json& doc) {
  std::map<std::string, double> out;
  if (const Json* streams = doc.find("streams");
      streams != nullptr && streams->is_object()) {
    for (const auto& [key, s] : streams->object()) {
      if (!s.is_object()) continue;
      out[key + ".mean"] = opt_number(s, "mean");
      out[key + ".p99"] = opt_number(s, "p99");
    }
  }
  return out;
}

// Profile nodes ranked by wall-time delta, largest movement first.
void print_attribution(const Json& a, const Json& b,
                       const std::vector<std::string>& paths,
                       std::size_t top) {
  const auto ranked = sks::obs::attribute_profiles(
      profile_from_report_doc(a, paths[0]),
      profile_from_report_doc(b, paths[1]));
  if (ranked.empty()) {
    std::cout << "attribution: both profiles are empty\n";
    return;
  }
  // Overall movement = summed root-node delta (roots cover the tree once).
  double overall = 0.0;
  for (const auto& r : ranked) {
    if (r.path.find(';') == std::string::npos) overall += r.delta_total_s;
  }
  std::cout << "attribution (" << ranked.size() << " nodes, overall "
            << (overall >= 0.0 ? "+" : "") << fmt(overall)
            << "s across roots):\n";
  const std::size_t shown = top > 0 ? std::min(top, ranked.size())
                                    : ranked.size();
  for (std::size_t i = 0; i < shown; ++i) {
    const sks::obs::Attribution& r = ranked[i];
    std::printf("  #%-2zu %+.6fs total (%s -> %s)  self %+.6fs  "
                "count %llu -> %llu  %s\n",
                i + 1, r.delta_total_s, fmt(r.base_total_s).c_str(),
                fmt(r.cur_total_s).c_str(), r.delta_self_s,
                static_cast<unsigned long long>(r.base_count),
                static_cast<unsigned long long>(r.cur_count), r.path.c_str());
  }
  if (shown < ranked.size()) {
    std::cout << "  ... (" << ranked.size() - shown << " nodes below --top "
              << top << ")\n";
  }
}

int diff_command(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::size_t top = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top") {
      top = parse_top(args, i);
    } else if (!args[i].empty() && args[i][0] == '-') {
      throw UsageError{};
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.size() != 2) throw UsageError{};

  const Json a = load_run(paths[0]);
  const Json b = load_run(paths[1]);
  std::cout << "diff " << paths[0] << " -> " << paths[1] << "\n";
  for (const char* section : {"values", "counters", "gauges"}) {
    diff_section(section, number_section(a, section),
                 number_section(b, section));
  }
  diff_section("timers", timer_totals(a), timer_totals(b));
  diff_section("streams", stream_rows(a), stream_rows(b));
  if (a.has("profile") && b.has("profile")) {
    print_attribution(a, b, paths, top);
  }
  return 0;
}

int usage() {
  std::cerr << "usage:\n"
               "  sks-report print   REPORT.json... [--top N]\n"
               "  sks-report diff    A B [--top N]   "
               "(run reports or timeline JSONL files)\n"
               "  sks-report flame   REPORT.json|TRACE.json [--top N] "
               "[--collapsed OUT.txt]\n"
               "  sks-report explain BUNDLE_DIR\n"
               "  sks-report repro   BUNDLE_DIR\n"
               "  sks-report run     NETLIST.sp [--dc|--tran] "
               "[--solver sparse|hierarchical|auto] "
               "[--postmortem DIR]\n"
               "  sks-report history HISTORY.jsonl [REPORT.json...]\n"
               "  sks-report timeline TIMELINE.jsonl\n"
               "  sks-report tail    TIMELINE.jsonl [--follow]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "print") {
      std::size_t top = 0;
      std::vector<std::string> files;
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--top") {
          top = parse_top(args, i);
        } else if (!args[i].empty() && args[i][0] == '-') {
          throw UsageError{};
        } else {
          files.push_back(args[i]);
        }
      }
      for (const std::string& path : files) print_report(path, top);
      return 0;
    }
    if (command == "diff") {
      return diff_command(args);
    }
    if (command == "flame") {
      return flame_command(args);
    }
    if (command == "explain" && args.size() == 1) {
      return explain_bundle(args[0]);
    }
    if (command == "repro" && args.size() == 1) {
      return repro_bundle(args[0]);
    }
    if (command == "run") {
      return run_netlist(args);
    }
    if (command == "history") {
      return history_command(args[0], {args.begin() + 1, args.end()});
    }
    if (command == "timeline" && args.size() == 1) {
      return summarize_timeline(args[0]);
    }
    if (command == "tail" && args.size() == 1) {
      return tail_timeline(args[0], false);
    }
    if (command == "tail" && args.size() == 2 && args[1] == "--follow") {
      return tail_timeline(args[0], true);
    }
    return usage();
  } catch (const UsageError&) {
    return usage();
  } catch (const sks::Error& e) {
    std::cerr << "sks-report: " << e.what() << "\n";
    return 1;
  }
}
