#include "esim/postmortem.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "esim/spice_io.hpp"
#include "esim/vcd.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace sks::esim {

namespace {

namespace fs = std::filesystem;

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  out.flush();
  sks::check(out.good(), "postmortem: cannot write ", path.string());
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  sks::check(in.good(), "postmortem: cannot read ", path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

// The unknown-index -> name mapping of the MNA system: voltage unknowns
// are non-ground nodes, then one branch current per voltage source.
std::string unknown_name(const Circuit& circuit, int index) {
  if (index < 0) return "";
  const std::size_t n_voltage = circuit.node_count() - 1;
  const std::size_t i = static_cast<std::size_t>(index);
  if (i < n_voltage) return circuit.node_name(NodeId{i + 1});
  const std::size_t si = i - n_voltage;
  if (si < circuit.vsources().size()) {
    return "I(" + circuit.vsources()[si].name + ")";
  }
  return "";
}

std::string stats_json(const SolveStats& s) {
  std::ostringstream out;
  out << "{\n"
      << "    \"newton_calls\": " << s.newton_calls << ",\n"
      << "    \"newton_iterations\": " << s.newton_iterations << ",\n"
      << "    \"newton_failures\": " << s.newton_failures << ",\n"
      << "    \"lu_factorizations\": " << s.lu_factorizations << ",\n"
      << "    \"lu_refactorizations\": " << s.lu_refactorizations << ",\n"
      << "    \"lu_pattern_rebuilds\": " << s.lu_pattern_rebuilds << ",\n"
      << "    \"lu_singular\": " << s.lu_singular << ",\n"
      << "    \"lu_nonfinite\": " << s.lu_nonfinite << ",\n"
      << "    \"sparse_nnz\": " << s.sparse_nnz << ",\n"
      << "    \"dc_solves\": " << s.dc_solves << ",\n"
      << "    \"dc_gmin_ladders\": " << s.dc_gmin_ladders << ",\n"
      << "    \"dc_gmin_steps\": " << s.dc_gmin_steps << ",\n"
      << "    \"dc_source_ladders\": " << s.dc_source_ladders << ",\n"
      << "    \"dc_source_steps\": " << s.dc_source_steps << ",\n"
      << "    \"dc_damped_retries\": " << s.dc_damped_retries << ",\n"
      << "    \"steps_accepted\": " << s.steps_accepted << ",\n"
      << "    \"steps_rejected\": " << s.steps_rejected << ",\n"
      << "    \"dt_halvings\": " << s.dt_halvings << ",\n"
      << "    \"be_fallbacks\": " << s.be_fallbacks << ",\n"
      << "    \"breakpoints_hit\": " << s.breakpoints_hit << ",\n"
      << "    \"min_dt_used\": " << obs::json_number(s.min_dt_used) << ",\n"
      << "    \"wall_seconds\": " << obs::json_number(s.wall_seconds) << "\n"
      << "  }";
  return out.str();
}

std::string newton_json(const NewtonOptions& n) {
  std::ostringstream out;
  out << "{ \"max_iterations\": " << n.max_iterations
      << ", \"vtol\": " << obs::json_number(n.vtol)
      << ", \"itol\": " << obs::json_number(n.itol)
      << ", \"max_step\": " << obs::json_number(n.max_step) << " }";
  return out.str();
}

std::string transient_json(const TransientOptions& t) {
  std::ostringstream out;
  out << "{ \"t_end\": " << obs::json_number(t.t_end)
      << ", \"dt\": " << obs::json_number(t.dt)
      << ", \"dt_min\": " << obs::json_number(t.dt_min)
      << ", \"gmin\": " << obs::json_number(t.gmin)
      << ", \"trapezoidal\": " << json_bool(t.trapezoidal)
      << ", \"adaptive\": " << json_bool(t.adaptive)
      << ", \"dv_max\": " << obs::json_number(t.dv_max)
      << ", \"dt_max\": " << obs::json_number(t.dt_max) << " }";
  return out.str();
}

std::string iterations_json(const Circuit& circuit, const obs::DiagRing& ring) {
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n"
      << "  \"capacity\": " << ring.capacity() << ",\n"
      << "  \"total_pushed\": " << ring.total_pushed() << ",\n"
      << "  \"records\": [";
  const auto records = ring.snapshot();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::DiagRecord& r = records[i];
    out << (i == 0 ? "\n" : ",\n") << "    {"
        << "\"t\": " << obs::json_number(r.t)
        << ", \"h\": " << obs::json_number(r.h)
        << ", \"iteration\": " << r.iteration
        << ", \"residual\": " << obs::json_number(r.residual)
        << ", \"max_dx\": " << obs::json_number(r.max_dx)
        << ", \"damping\": " << obs::json_number(r.damping)
        << ", \"worst_unknown\": " << r.worst_unknown << ", \"worst\": \""
        << obs::json_escape(unknown_name(circuit, r.worst_unknown)) << "\""
        << ", \"lu_status\": " << r.lu_status << ", \"lu\": \""
        << obs::to_string(static_cast<obs::DiagLuStatus>(r.lu_status)) << "\""
        << ", \"pivot_growth\": " << obs::json_number(r.pivot_growth)
        << ", \"cond_est\": " << obs::json_number(r.cond_est) << "}";
  }
  out << (records.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

// Last-K recorded steps of every node voltage, ready for write_vcd.
TransientResult waveform_tail(const TransientResult& full, std::size_t k) {
  TransientResult tail;
  tail.stats = full.stats;
  const std::size_t n = full.time.size();
  const std::size_t from = n > k ? n - k : 0;
  tail.time.assign(full.time.begin() + static_cast<std::ptrdiff_t>(from),
                   full.time.end());
  tail.node_v.reserve(full.node_v.size());
  for (const auto& v : full.node_v) {
    tail.node_v.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(from),
                             v.end());
  }
  tail.vsrc_i.reserve(full.vsrc_i.size());
  for (const auto& v : full.vsrc_i) {
    tail.vsrc_i.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(from),
                             v.end());
  }
  return tail;
}

}  // namespace

std::string write_postmortem_bundle(const PostmortemContext& context,
                                    const PostmortemOptions& options) {
  sks::check(context.circuit != nullptr, "postmortem: no circuit");
  // Unique across the process (atomic sequence) and across concurrently
  // running test shards writing into one directory (pid).
  static std::atomic<unsigned> seq{0};
  std::ostringstream name;
  name << "pm_" << (context.phase.empty() ? "solve" : context.phase) << "_"
       << ::getpid() << "_" << seq.fetch_add(1);
  const fs::path bundle = fs::path(options.dir) / name.str();
  std::error_code ec;
  fs::create_directories(bundle, ec);
  sks::check(!ec, "postmortem: cannot create ", bundle.string(), ": ",
             ec.message());

  write_file(bundle / "netlist.sp",
             write_spice(*context.circuit,
                         "postmortem " + context.phase + " " +
                             context.failure_class));
  if (context.ring != nullptr) {
    write_file(bundle / "iterations.json",
               iterations_json(*context.circuit, *context.ring));
  }
  bool wrote_waveforms = false;
  if (context.waveforms != nullptr && !context.waveforms->time.empty()) {
    const auto tail = waveform_tail(*context.waveforms, options.waveform_tail);
    write_vcd((bundle / "waveforms.vcd").string(),
              node_traces(tail, *context.circuit));
    wrote_waveforms = true;
  }

  std::ostringstream m;
  m << "{\n"
    << "  \"schema_version\": 1,\n"
    << "  \"tool\": \"skewsense\",\n"
    << "  \"kind\": \"postmortem\",\n"
    << "  \"phase\": \"" << obs::json_escape(context.phase) << "\",\n"
    << "  \"reason\": \"" << obs::json_escape(context.reason) << "\",\n"
    << "  \"failure_class\": \"" << obs::json_escape(context.failure_class)
    << "\",\n"
    << "  \"message\": \"" << obs::json_escape(context.message) << "\",\n"
    << "  \"t\": " << obs::json_number(context.t) << ",\n"
    << "  \"iterations\": " << context.iterations << ",\n"
    << "  \"worst_node\": \"" << obs::json_escape(context.worst_node)
    << "\",\n"
    << "  \"solver_mode\": \"" << obs::json_escape(context.solver_mode)
    << "\",\n"
    << "  \"dt_at_floor\": " << json_bool(context.dt_at_floor) << ",\n"
    << "  \"repro\": \"sks-report repro " << obs::json_escape(bundle.string())
    << "\",\n"
    << "  \"files\": { \"netlist\": \"netlist.sp\"";
  if (context.ring != nullptr) {
    m << ", \"iterations\": \"iterations.json\"";
  }
  if (wrote_waveforms) m << ", \"waveforms\": \"waveforms.vcd\"";
  m << " },\n"
    << "  \"options\": { \"newton\": " << newton_json(context.newton);
  if (context.transient != nullptr) {
    m << ", \"transient\": " << transient_json(*context.transient);
  }
  m << " },\n"
    << "  \"stats\": " << stats_json(context.stats) << "\n"
    << "}\n";
  write_file(bundle / "manifest.json", m.str());
  return bundle.string();
}

namespace {

double num_or(const obs::Json& obj, const std::string& key, double fallback) {
  const obs::Json* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

std::string str_or(const obs::Json& obj, const std::string& key) {
  const obs::Json* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->str() : std::string();
}

bool bool_or(const obs::Json& obj, const std::string& key, bool fallback) {
  const obs::Json* v = obj.find(key);
  return v != nullptr && v->is_bool() ? v->boolean() : fallback;
}

}  // namespace

BundleManifest read_postmortem_manifest(const std::string& bundle_dir) {
  const obs::Json doc =
      obs::Json::parse(read_file(fs::path(bundle_dir) / "manifest.json"));
  sks::check(doc.is_object(), "postmortem: manifest is not a JSON object in ",
             bundle_dir);
  BundleManifest out;
  out.schema_version = static_cast<int>(num_or(doc, "schema_version", 1));
  out.phase = str_or(doc, "phase");
  out.reason = str_or(doc, "reason");
  out.failure_class = str_or(doc, "failure_class");
  out.message = str_or(doc, "message");
  out.worst_node = str_or(doc, "worst_node");
  out.solver_mode = str_or(doc, "solver_mode");
  out.t = num_or(doc, "t", 0.0);
  out.iterations = static_cast<long>(num_or(doc, "iterations", 0.0));
  out.dt_at_floor = bool_or(doc, "dt_at_floor", false);
  if (const obs::Json* stats = doc.find("stats")) {
    out.lu_singular =
        static_cast<std::uint64_t>(num_or(*stats, "lu_singular", 0.0));
    out.lu_nonfinite =
        static_cast<std::uint64_t>(num_or(*stats, "lu_nonfinite", 0.0));
    out.dt_halvings =
        static_cast<std::uint64_t>(num_or(*stats, "dt_halvings", 0.0));
  }
  if (const obs::Json* opts = doc.find("options")) {
    if (const obs::Json* newton = opts->find("newton")) {
      out.newton.max_iterations =
          static_cast<int>(num_or(*newton, "max_iterations", 80.0));
      out.newton.vtol = num_or(*newton, "vtol", out.newton.vtol);
      out.newton.itol = num_or(*newton, "itol", out.newton.itol);
      out.newton.max_step = num_or(*newton, "max_step", out.newton.max_step);
    }
    if (const obs::Json* tr = opts->find("transient")) {
      out.has_transient = true;
      out.transient.t_end = num_or(*tr, "t_end", out.transient.t_end);
      out.transient.dt = num_or(*tr, "dt", out.transient.dt);
      out.transient.dt_min = num_or(*tr, "dt_min", out.transient.dt_min);
      out.transient.gmin = num_or(*tr, "gmin", out.transient.gmin);
      out.transient.trapezoidal =
          bool_or(*tr, "trapezoidal", out.transient.trapezoidal);
      out.transient.adaptive = bool_or(*tr, "adaptive", out.transient.adaptive);
      out.transient.dv_max = num_or(*tr, "dv_max", out.transient.dv_max);
      out.transient.dt_max = num_or(*tr, "dt_max", out.transient.dt_max);
      out.transient.newton = out.newton;
    }
  }
  if (const obs::Json* files = doc.find("files")) {
    const std::string netlist = str_or(*files, "netlist");
    if (!netlist.empty()) out.netlist_file = netlist;
  }
  return out;
}

std::vector<obs::DiagRecord> read_postmortem_iterations(
    const std::string& bundle_dir) {
  const fs::path path = fs::path(bundle_dir) / "iterations.json";
  std::vector<obs::DiagRecord> out;
  if (!fs::exists(path)) return out;
  const obs::Json doc = obs::Json::parse(read_file(path));
  const obs::Json* records = doc.find("records");
  if (records == nullptr || !records->is_array()) return out;
  out.reserve(records->array().size());
  for (const obs::Json& r : records->array()) {
    obs::DiagRecord rec;
    rec.t = num_or(r, "t", 0.0);
    rec.h = num_or(r, "h", 0.0);
    rec.iteration = static_cast<int>(num_or(r, "iteration", 0.0));
    rec.residual = num_or(r, "residual", 0.0);
    rec.max_dx = num_or(r, "max_dx", 0.0);
    rec.damping = num_or(r, "damping", 1.0);
    rec.worst_unknown = static_cast<int>(num_or(r, "worst_unknown", -1.0));
    rec.lu_status = static_cast<int>(num_or(r, "lu_status", 0.0));
    rec.pivot_growth = num_or(r, "pivot_growth", 0.0);
    rec.cond_est = num_or(r, "cond_est", 0.0);
    out.push_back(rec);
  }
  return out;
}

obs::FailureClass classify_bundle(const BundleManifest& manifest,
                                  const std::vector<obs::DiagRecord>& tail) {
  obs::FailureEvidence evidence;
  evidence.phase = manifest.phase;
  evidence.lu_singular = manifest.lu_singular;
  evidence.lu_nonfinite = manifest.lu_nonfinite;
  evidence.dt_halvings = manifest.dt_halvings;
  evidence.dt_at_floor = manifest.dt_at_floor;
  evidence.tail = tail;
  return obs::classify_failure(evidence);
}

}  // namespace sks::esim
