#include "esim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "esim/postmortem.hpp"
#include "esim/schur.hpp"
#include "esim/sparse.hpp"
#include "obs/diag.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace sks::esim {

void SolveStats::merge(const SolveStats& other) {
  newton_calls += other.newton_calls;
  newton_iterations += other.newton_iterations;
  newton_failures += other.newton_failures;
  lu_factorizations += other.lu_factorizations;
  lu_refactorizations += other.lu_refactorizations;
  lu_pattern_rebuilds += other.lu_pattern_rebuilds;
  lu_singular += other.lu_singular;
  lu_nonfinite += other.lu_nonfinite;
  sparse_nnz = std::max(sparse_nnz, other.sparse_nnz);
  schur_block_factorizations += other.schur_block_factorizations;
  schur_interface_solves += other.schur_interface_solves;
  dc_solves += other.dc_solves;
  dc_gmin_ladders += other.dc_gmin_ladders;
  dc_gmin_steps += other.dc_gmin_steps;
  dc_source_ladders += other.dc_source_ladders;
  dc_source_steps += other.dc_source_steps;
  dc_damped_retries += other.dc_damped_retries;
  steps_accepted += other.steps_accepted;
  steps_rejected += other.steps_rejected;
  dt_halvings += other.dt_halvings;
  be_fallbacks += other.be_fallbacks;
  breakpoints_hit += other.breakpoints_hit;
  if (other.min_dt_used > 0.0 &&
      (min_dt_used == 0.0 || other.min_dt_used < min_dt_used)) {
    min_dt_used = other.min_dt_used;
  }
  wall_seconds += other.wall_seconds;
}

// Batched mirror into the process-wide registry, once per public solve.
// The Counter references are resolved once: registry entries have stable
// addresses for the process lifetime.  Also used by BatchSimulator, which
// accounts each lane's SolveStats itself and must feed the same esim.*
// counters the scalar path does.
void mirror_stats_to_registry(const SolveStats& s) {
  static obs::Counter& runs = obs::registry().counter("esim.runs");
  static obs::Counter& nr_iters =
      obs::registry().counter("esim.newton_iterations");
  static obs::Counter& nr_calls = obs::registry().counter("esim.newton_calls");
  static obs::Counter& nr_fail =
      obs::registry().counter("esim.newton_failures");
  static obs::Counter& lu = obs::registry().counter("esim.lu_factorizations");
  static obs::Counter& lu_refactor =
      obs::registry().counter("esim.lu_refactorizations");
  static obs::Counter& lu_rebuilds =
      obs::registry().counter("esim.lu_pattern_rebuilds");
  static obs::Counter& lu_sing = obs::registry().counter("esim.lu_singular");
  static obs::Counter& lu_nonfin =
      obs::registry().counter("esim.lu_nonfinite");
  static obs::Counter& nnz = obs::registry().counter("esim.sparse_nnz");
  static obs::Counter& schur_blocks =
      obs::registry().counter("schur.block_factorizations");
  static obs::Counter& schur_solves =
      obs::registry().counter("schur.interface_solves");
  static obs::Counter& gmin_ladders =
      obs::registry().counter("esim.dc_gmin_ladders");
  static obs::Counter& source_ladders =
      obs::registry().counter("esim.dc_source_ladders");
  static obs::Counter& damped =
      obs::registry().counter("esim.dc_damped_retries");
  static obs::Counter& accepted =
      obs::registry().counter("esim.steps_accepted");
  static obs::Counter& rejected =
      obs::registry().counter("esim.steps_rejected");
  static obs::Counter& halvings = obs::registry().counter("esim.dt_halvings");
  static obs::Counter& be = obs::registry().counter("esim.be_fallbacks");
  static obs::Counter& bps = obs::registry().counter("esim.breakpoints_hit");
  runs.inc();
  nr_iters.inc(s.newton_iterations);
  nr_calls.inc(s.newton_calls);
  nr_fail.inc(s.newton_failures);
  lu.inc(s.lu_factorizations);
  lu_refactor.inc(s.lu_refactorizations);
  lu_rebuilds.inc(s.lu_pattern_rebuilds);
  lu_sing.inc(s.lu_singular);
  lu_nonfin.inc(s.lu_nonfinite);
  nnz.inc(s.sparse_nnz);
  schur_blocks.inc(s.schur_block_factorizations);
  schur_solves.inc(s.schur_interface_solves);
  gmin_ladders.inc(s.dc_gmin_ladders);
  source_ladders.inc(s.dc_source_ladders);
  damped.inc(s.dc_damped_retries);
  accepted.inc(s.steps_accepted);
  rejected.inc(s.steps_rejected);
  halvings.inc(s.dt_halvings);
  be.inc(s.be_fallbacks);
  bps.inc(s.breakpoints_hit);
}

namespace {

// Byte-gauge ratchets for the mem.* section of the reports.  Call sites
// gate on obs::enabled() and sit at solve *ends*, never inside the Newton
// loop; each update is one gauge compare-and-set plus the
// obs.mem_gauge_updates bump the bench gate pins to zero when off.
void record_sparse_lu_bytes(std::size_t bytes) {
  static obs::Gauge& gauge = obs::registry().gauge("mem.sparse_lu_bytes");
  obs::record_peak_bytes(gauge, static_cast<double>(bytes));
}

void record_schur_bytes(std::size_t bytes) {
  static obs::Gauge& gauge = obs::registry().gauge("mem.schur_bytes");
  obs::record_peak_bytes(gauge, static_cast<double>(bytes));
}

void record_waveform_bytes(const TransientResult& result) {
  static obs::Gauge& gauge = obs::registry().gauge("mem.waveform_bytes");
  std::size_t bytes = result.time.capacity() * sizeof(double);
  for (const auto& v : result.node_v) bytes += v.capacity() * sizeof(double);
  for (const auto& v : result.vsrc_i) bytes += v.capacity() * sizeof(double);
  obs::record_peak_bytes(gauge, static_cast<double>(bytes));
}

}  // namespace

// Symbolic prepass product: the sparse Jacobian pattern with every device
// stamp resolved to a direct value slot, the stamp template split into a
// constant part (resistors, vsource incidence) and a cached per-(gmin, h,
// integration method) part (gmin floor, capacitor companion conductances),
// and the reusable LU.  Stamps touching ground resolve to the matrix's
// dummy slot, so assembly needs no ground branches.
struct Simulator::StampPlan {
  SparseMatrix j;
  std::vector<double> base_values;      // constant stamps
  std::vector<double> template_values;  // base + gmin + capacitor geq
  double template_gmin = -1.0;          // cache key of template_values
  double template_h = -2.0;
  bool template_trap = false;
  bool template_valid = false;

  std::vector<std::size_t> diag_slot;  // per voltage unknown (gmin floor)
  struct Quad {
    std::size_t aa, ab, ba, bb;
  };
  std::vector<Quad> resistor_slots;
  std::vector<Quad> cap_slots;
  struct MosSlots {
    std::size_t dg, dd, ds, sg, sd, ss;
  };
  std::vector<MosSlots> mos_slots;
  SparseLu lu;
  // Hierarchical Schur path (esim/schur.hpp): non-null when the mode asked
  // for it AND the pattern partitioned into exploitable linear blocks.
  // When set, `lu` stays un-analyzed — the flat path's quadratic global
  // min-degree ordering is skipped entirely.
  std::unique_ptr<HierarchicalSolver> hier;
};

Simulator::Simulator(Circuit circuit) : circuit_(std::move(circuit)) {
  if (const char* env = std::getenv("SKS_POSTMORTEM")) {
    const std::string_view value(env);
    if (!value.empty() && value != "0") {
      set_postmortem_dir(value == "1" ? "sks-postmortem" : std::string(value));
    }
  }
}

Simulator::~Simulator() = default;
Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;

void Simulator::set_diagnostics(bool on) {
  if (on) {
    if (!diag_) diag_ = std::make_unique<obs::DiagRing>();
  } else {
    diag_.reset();
  }
}

void Simulator::set_postmortem_dir(std::string dir) {
  postmortem_dir_ = std::move(dir);
  if (!postmortem_dir_.empty()) set_diagnostics(true);
}

void Simulator::set_solver_mode(SolverMode mode) {
  if (mode != solver_mode_) plan_.reset();
  solver_mode_ = mode;
}

bool Simulator::hierarchical_path_active() const {
  if (solver_mode_ != SolverMode::kHierarchical &&
      (solver_mode_ != SolverMode::kAuto ||
       unknown_count() < kHierarchicalAutoThreshold)) {
    return false;
  }
  if (!plan_) build_stamp_plan();
  return plan_->hier != nullptr;
}

std::size_t Simulator::schur_memory_bytes() const {
  return plan_ && plan_->hier ? plan_->hier->memory_bytes() : 0;
}

void Simulator::set_pool(par::ThreadPool* pool) {
  pool_ = pool;
  if (plan_ && plan_->hier) plan_->hier->set_pool(pool);
}

std::size_t Simulator::unknown_count() const {
  return (circuit_.node_count() - 1) + circuit_.vsources().size();
}

std::size_t Simulator::node_unknown(NodeId n) const { return n.index - 1; }

namespace {

// Voltage of a node given the unknown vector (ground is 0 V).
double node_v(const std::vector<double>& x, NodeId n) {
  return n.index == 0 ? 0.0 : x[n.index - 1];
}

}  // namespace

void Simulator::build_stamp_plan() const {
  plan_ = std::make_unique<StampPlan>();
  StampPlan& plan = *plan_;
  const std::size_t n = unknown_count();
  const std::size_t n_voltage = circuit_.node_count() - 1;
  const std::size_t branch_base = n_voltage;

  // Collect the pattern: every (row, col) a device can ever stamp.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  entries.reserve(n + 4 * (circuit_.resistors().size() +
                           circuit_.capacitors().size() +
                           circuit_.vsources().size()) +
                  6 * circuit_.mosfets().size());
  const auto add = [&entries](std::size_t r, std::size_t c) {
    entries.emplace_back(static_cast<std::uint32_t>(r),
                         static_cast<std::uint32_t>(c));
  };
  const auto add_pair = [&](NodeId row, NodeId col) {
    if (row.index != 0 && col.index != 0) {
      add(row.index - 1, col.index - 1);
    }
  };
  // The gmin floor guarantees a structural diagonal on every voltage row.
  for (std::size_t i = 0; i < n_voltage; ++i) add(i, i);
  for (const auto& r : circuit_.resistors()) {
    add_pair(r.a, r.a);
    add_pair(r.a, r.b);
    add_pair(r.b, r.a);
    add_pair(r.b, r.b);
  }
  for (const auto& c : circuit_.capacitors()) {
    add_pair(c.a, c.a);
    add_pair(c.a, c.b);
    add_pair(c.b, c.a);
    add_pair(c.b, c.b);
  }
  for (const auto& m : circuit_.mosfets()) {
    add_pair(m.drain, m.gate);
    add_pair(m.drain, m.drain);
    add_pair(m.drain, m.source);
    add_pair(m.source, m.gate);
    add_pair(m.source, m.drain);
    add_pair(m.source, m.source);
  }
  const auto& vsrcs = circuit_.vsources();
  for (std::size_t si = 0; si < vsrcs.size(); ++si) {
    const std::size_t bi = branch_base + si;
    if (vsrcs[si].pos.index != 0) {
      add(vsrcs[si].pos.index - 1, bi);
      add(bi, vsrcs[si].pos.index - 1);
    }
    if (vsrcs[si].neg.index != 0) {
      add(vsrcs[si].neg.index - 1, bi);
      add(bi, vsrcs[si].neg.index - 1);
    }
  }
  plan.j = SparseMatrix(n, std::move(entries));

  // Resolve every stamp to its slot (ground stamps to the dummy slot).
  const std::size_t dummy = plan.j.dummy_slot();
  const auto slot_of = [&](NodeId row, NodeId col) {
    if (row.index == 0 || col.index == 0) return dummy;
    return plan.j.slot(row.index - 1, col.index - 1);
  };
  plan.diag_slot.resize(n_voltage);
  for (std::size_t i = 0; i < n_voltage; ++i) {
    plan.diag_slot[i] = plan.j.slot(i, i);
  }
  const auto quad_of = [&](NodeId a, NodeId b) {
    return StampPlan::Quad{slot_of(a, a), slot_of(a, b), slot_of(b, a),
                           slot_of(b, b)};
  };
  plan.resistor_slots.reserve(circuit_.resistors().size());
  for (const auto& r : circuit_.resistors()) {
    plan.resistor_slots.push_back(quad_of(r.a, r.b));
  }
  plan.cap_slots.reserve(circuit_.capacitors().size());
  for (const auto& c : circuit_.capacitors()) {
    plan.cap_slots.push_back(quad_of(c.a, c.b));
  }
  plan.mos_slots.reserve(circuit_.mosfets().size());
  for (const auto& m : circuit_.mosfets()) {
    plan.mos_slots.push_back({slot_of(m.drain, m.gate),
                              slot_of(m.drain, m.drain),
                              slot_of(m.drain, m.source),
                              slot_of(m.source, m.gate),
                              slot_of(m.source, m.drain),
                              slot_of(m.source, m.source)});
  }

  // Constant template: stamps invariant across NR iterations AND time
  // steps — resistor conductances and vsource incidence.
  plan.base_values.assign(plan.j.values_size(), 0.0);
  for (std::size_t ri = 0; ri < circuit_.resistors().size(); ++ri) {
    const double g = 1.0 / circuit_.resistors()[ri].resistance;
    const auto& q = plan.resistor_slots[ri];
    plan.base_values[q.aa] += g;
    plan.base_values[q.ab] -= g;
    plan.base_values[q.ba] -= g;
    plan.base_values[q.bb] += g;
  }
  for (std::size_t si = 0; si < vsrcs.size(); ++si) {
    const std::size_t bi = branch_base + si;
    if (vsrcs[si].pos.index != 0) {
      plan.base_values[plan.j.slot(vsrcs[si].pos.index - 1, bi)] += 1.0;
      plan.base_values[plan.j.slot(bi, vsrcs[si].pos.index - 1)] += 1.0;
    }
    if (vsrcs[si].neg.index != 0) {
      plan.base_values[plan.j.slot(vsrcs[si].neg.index - 1, bi)] -= 1.0;
      plan.base_values[plan.j.slot(bi, vsrcs[si].neg.index - 1)] -= 1.0;
    }
  }
  plan.base_values[dummy] = 0.0;
  plan.template_values = plan.base_values;

  // Hierarchical attempt: kHierarchical tries to partition at any size;
  // kAuto only once the system is big enough that the flat path's global
  // ordering starts to hurt.
  const bool attempt_hier =
      solver_mode_ == SolverMode::kHierarchical ||
      (solver_mode_ == SolverMode::kAuto && n >= kHierarchicalAutoThreshold);
  if (attempt_hier) {
    // The interface is every unknown a per-iteration stamp or a zero-
    // structural-diagonal row touches: MOSFET terminals (the gate column
    // receives fresh gm stamps each iteration, so it cannot sit inside a
    // frozen block), vsource terminal nodes and branch-current unknowns.
    std::vector<std::uint8_t> interface_mask(n, 0);
    const auto mark = [&](NodeId node) {
      if (node.index != 0) interface_mask[node.index - 1] = 1;
    };
    for (const auto& m : circuit_.mosfets()) {
      mark(m.gate);
      mark(m.drain);
      mark(m.source);
    }
    for (std::size_t si = 0; si < vsrcs.size(); ++si) {
      mark(vsrcs[si].pos);
      mark(vsrcs[si].neg);
      interface_mask[branch_base + si] = 1;
    }
    auto hier = std::make_unique<HierarchicalSolver>();
    if (hier->build(plan.j, interface_mask, pool_)) {
      plan.hier = std::move(hier);
    }
  }
  // The flat path's global min-degree ordering is quadratic in n; skip it
  // entirely when the hierarchical solver owns the solve.
  if (!plan.hier) plan.lu.analyze(plan.j);
}

void Simulator::assemble_sparse(const std::vector<double>& x, double t,
                                double h, bool use_trap,
                                const std::vector<double>& cap_prev_v,
                                const std::vector<double>& cap_prev_i,
                                double gmin, double source_scale,
                                std::vector<double>& f_out) const {
  if (!plan_) build_stamp_plan();
  StampPlan& plan = *plan_;
  const std::size_t n_unknowns = unknown_count();
  const std::size_t n_voltage = circuit_.node_count() - 1;

  // Refresh the per-(gmin, h, method) template only when the key changes:
  // within one Newton solve (and across the steps of a quiet transient
  // stretch) this is a cache hit and each iteration starts from a memcpy.
  if (!plan.template_valid || gmin != plan.template_gmin ||
      h != plan.template_h || use_trap != plan.template_trap) {
    plan.template_values = plan.base_values;
    for (std::size_t i = 0; i < n_voltage; ++i) {
      plan.template_values[plan.diag_slot[i]] += gmin;
    }
    if (h > 0.0) {
      const auto& caps = circuit_.capacitors();
      for (std::size_t ci = 0; ci < caps.size(); ++ci) {
        const double geq = (use_trap ? 2.0 : 1.0) * caps[ci].capacitance / h;
        const auto& q = plan.cap_slots[ci];
        plan.template_values[q.aa] += geq;
        plan.template_values[q.ab] -= geq;
        plan.template_values[q.ba] -= geq;
        plan.template_values[q.bb] += geq;
      }
    }
    plan.template_values[plan.j.dummy_slot()] = 0.0;
    plan.template_gmin = gmin;
    plan.template_h = h;
    plan.template_trap = use_trap;
    plan.template_valid = true;
  }
  double* vals = plan.j.values();
  std::memcpy(vals, plan.template_values.data(),
              plan.j.values_size() * sizeof(double));
  f_out.assign(n_unknowns, 0.0);

  auto stamp_f = [&](NodeId n, double current) {
    if (n.index != 0) f_out[node_unknown(n)] += current;
  };

  for (std::size_t i = 0; i < n_voltage; ++i) {
    f_out[i] += gmin * x[i];
  }

  for (const auto& r : circuit_.resistors()) {
    const double g = 1.0 / r.resistance;
    const double i = g * (node_v(x, r.a) - node_v(x, r.b));
    stamp_f(r.a, i);
    stamp_f(r.b, -i);
  }

  if (h > 0.0) {
    const auto& caps = circuit_.capacitors();
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      const auto& c = caps[ci];
      const double v = node_v(x, c.a) - node_v(x, c.b);
      double i = 0.0;
      if (use_trap) {
        const double geq = 2.0 * c.capacitance / h;
        i = geq * (v - cap_prev_v[ci]) - cap_prev_i[ci];
      } else {
        const double geq = c.capacitance / h;
        i = geq * (v - cap_prev_v[ci]);
      }
      stamp_f(c.a, i);
      stamp_f(c.b, -i);
    }
  }

  const auto& mosfets = circuit_.mosfets();
  for (std::size_t mi = 0; mi < mosfets.size(); ++mi) {
    const auto& m = mosfets[mi];
    const MosEval e = eval_mosfet(m.params, m.fault, node_v(x, m.gate),
                                  node_v(x, m.drain), node_v(x, m.source));
    const double gms = -(e.gm + e.gds);  // dId/dVs
    stamp_f(m.drain, e.id);
    stamp_f(m.source, -e.id);
    const auto& s = plan.mos_slots[mi];
    vals[s.dg] += e.gm;
    vals[s.dd] += e.gds;
    vals[s.ds] += gms;
    vals[s.sg] -= e.gm;
    vals[s.sd] -= e.gds;
    vals[s.ss] -= gms;
  }

  for (const auto& isrc : circuit_.isources()) {
    const double i = source_scale * isrc.wave.value(t);
    stamp_f(isrc.from, i);
    stamp_f(isrc.to, -i);
  }

  const std::size_t branch_base = n_voltage;
  const auto& vsrcs = circuit_.vsources();
  for (std::size_t si = 0; si < vsrcs.size(); ++si) {
    const auto& v = vsrcs[si];
    const std::size_t bi = branch_base + si;
    const double i_branch = x[bi];
    if (v.pos.index != 0) f_out[node_unknown(v.pos)] += i_branch;
    if (v.neg.index != 0) f_out[node_unknown(v.neg)] -= i_branch;
    f_out[bi] =
        node_v(x, v.pos) - node_v(x, v.neg) - source_scale * v.wave.value(t);
  }
}

bool Simulator::newton_solve(std::vector<double>& x, double t, double h,
                             bool use_trap,
                             const std::vector<double>& cap_prev_v,
                             const std::vector<double>& cap_prev_i, double gmin,
                             double source_scale,
                             const NewtonOptions& options) const {
  const std::size_t n = unknown_count();
  const std::size_t n_voltage = circuit_.node_count() - 1;

  ++stats_.newton_calls;
  // Diagnostics: one DiagRecord per iteration when the ring is allocated.
  // `diag == nullptr` is the entire hot-loop cost of the feature when off —
  // the record is a stack value and the ring never allocates on push.
  obs::DiagRing* const diag = diag_.get();
  obs::DiagRecord rec;
  double last_pivot_growth = 0.0;
  double last_cond_est = 0.0;
  // The loop runs one extra trip beyond max_iterations: after an iteration
  // whose damped update fell below vtol, the NEXT trip's assembly (which a
  // continuing solve needs anyway) doubles as the residual convergence
  // check, so a converging iterate costs one assembly instead of two.
  bool check_residual = false;
  for (int iter = 0; iter <= options.max_iterations; ++iter) {
    assemble_sparse(x, t, h, use_trap, cap_prev_v, cap_prev_i, gmin,
                    source_scale, ws_.f);
    stats_.sparse_nnz = plan_->j.nnz();

    if (diag != nullptr) {
      rec = obs::DiagRecord{};
      rec.t = t;
      rec.h = h;
      rec.iteration = iter;
      double max_res = 0.0;
      std::size_t worst = 0;
      for (std::size_t i = 0; i < n_voltage; ++i) {
        const double res = std::fabs(ws_.f[i]);
        if (!std::isfinite(res)) {
          max_res = res;
          worst = i;
          break;
        }
        if (res > max_res) {
          max_res = res;
          worst = i;
        }
      }
      rec.residual = max_res;
      rec.worst_unknown = static_cast<int>(worst);
    }

    if (check_residual) {
      // Converged when both the update (previous trip) and the KCL
      // residual at the updated x are tiny.
      double max_res = 0.0;
      for (std::size_t i = 0; i < n_voltage; ++i) {
        max_res = std::max(max_res, std::fabs(ws_.f[i]));
      }
      if (max_res < options.itol) {
        if (diag != nullptr) {
          obs::record_solve_health(max_res, last_pivot_growth, last_cond_est);
        }
        return true;
      }
      check_residual = false;
    }
    if (iter == options.max_iterations) break;
    ++stats_.newton_iterations;

    // Newton step: J dx = -F.
    ws_.rhs.resize(n);
    for (std::size_t i = 0; i < n; ++i) ws_.rhs[i] = -ws_.f[i];
    HierarchicalSolver* const hier = plan_->hier.get();
    SparseLu& lu = plan_->lu;
    SparseLuStatus status;
    bool repivoted = false;
    if (hier != nullptr) {
      // Partitioned path: linear-block factors are cached per
      // (gmin, h, method) configuration inside the solver; each iteration
      // only re-solves the small Schur system over the interface and
      // writes dx directly.  The interface system runs the same
      // refactor-first / full-factor-on-degeneracy protocol as the flat
      // path, accounted through the same lu_* counters.
      status = hier->solve(plan_->j, SchurConfigKey{gmin, h, use_trap},
                           ws_.rhs, ws_.dx);
      const SchurStats ss = hier->take_stats();
      stats_.schur_block_factorizations += ss.block_factorizations;
      stats_.schur_interface_solves += ss.interface_solves;
      stats_.lu_refactorizations += ss.interface_refactors;
      stats_.lu_factorizations += ss.interface_factors;
      stats_.lu_pattern_rebuilds += ss.interface_factors;
      repivoted = ss.interface_refactors > 0 && ss.interface_factors > 0;
    } else if (lu.factored()) {
      // Fast path: numeric refactorization on the frozen pivot order;
      // full re-pivoting factorization only when a pivot degenerated.
      ++stats_.lu_refactorizations;
      status = lu.refactor(plan_->j);
      if (status == SparseLuStatus::kPivotDegenerate) {
        repivoted = true;
        ++stats_.lu_factorizations;
        ++stats_.lu_pattern_rebuilds;
        status = lu.factor(plan_->j);
      }
    } else {
      ++stats_.lu_factorizations;
      ++stats_.lu_pattern_rebuilds;
      status = lu.factor(plan_->j);
    }
    if (status != SparseLuStatus::kOk) {
      ++stats_.lu_singular;
      ++stats_.newton_failures;
      if (diag != nullptr) {
        rec.lu_status = obs::kDiagLuSingular;
        diag->push(rec);
        obs::record_solve_health(rec.residual, last_pivot_growth,
                                 last_cond_est);
      }
      return false;
    }
    if (diag != nullptr) {
      if (repivoted) rec.lu_status = obs::kDiagLuRepivoted;
      double max_a = 0.0;
      const double* vals = plan_->j.values();
      for (std::size_t i = 0; i < plan_->j.nnz(); ++i) {
        max_a = std::max(max_a, std::fabs(vals[i]));
      }
      const double dmax =
          hier != nullptr ? hier->udiag_max_abs() : lu.udiag_max_abs();
      const double dmin =
          hier != nullptr ? hier->udiag_min_abs() : lu.udiag_min_abs();
      if (dmin > 0.0) rec.cond_est = dmax / dmin;
      if (max_a > 0.0) rec.pivot_growth = dmax / max_a;
      last_pivot_growth = rec.pivot_growth;
      last_cond_est = rec.cond_est;
    }
    if (hier == nullptr) lu.solve(ws_.rhs, ws_.dx);
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(ws_.dx[i])) {
        finite = false;
        break;
      }
    }
    if (!finite) {
      ++stats_.lu_nonfinite;
      ++stats_.newton_failures;
      if (diag != nullptr) {
        rec.lu_status = obs::kDiagLuNonFinite;
        diag->push(rec);
        obs::record_solve_health(rec.residual, last_pivot_growth,
                                 last_cond_est);
      }
      return false;
    }

    // Clamp the voltage updates (classic SPICE damping); branch currents
    // are left unclamped.
    double max_dv = 0.0;
    double damping = 1.0;
    for (std::size_t i = 0; i < n_voltage; ++i) {
      max_dv = std::max(max_dv, std::fabs(ws_.dx[i]));
    }
    if (max_dv > options.max_step) damping = options.max_step / max_dv;
    for (std::size_t i = 0; i < n; ++i) x[i] += damping * ws_.dx[i];

    if (diag != nullptr) {
      rec.max_dx = max_dv;
      rec.damping = damping;
      diag->push(rec);
    }
    if (!std::isfinite(max_dv)) {
      ++stats_.newton_failures;
      if (diag != nullptr) {
        obs::record_solve_health(rec.residual, last_pivot_growth,
                                 last_cond_est);
      }
      return false;
    }
    check_residual = max_dv * damping < options.vtol;
  }
  ++stats_.newton_failures;
  if (diag != nullptr) {
    obs::record_solve_health(rec.residual, last_pivot_growth, last_cond_est);
  }
  return false;
}

bool Simulator::dc_solve(std::vector<double>& x, double t,
                         const NewtonOptions& options) const {
  const std::vector<double> no_caps;  // unused in DC
  // The whole continuation ladder is retried with progressively heavier
  // Newton damping: circuits with contention inside a positive-feedback
  // loop (stuck-on faults, bridges across the cross-coupled outputs) make
  // an undamped Newton cycle between attractors.
  ++stats_.dc_solves;
  bool first_rung = true;
  for (const double max_step : {options.max_step, 0.1, 0.02}) {
    if (!first_rung) {
      ++stats_.dc_damped_retries;
      if (obs::tracer().enabled()) {
        obs::trace_marker(obs::Marker::kNewtonFallback, t, max_step, 0,
                          "dc damped retry");
      }
    }
    first_rung = false;
    NewtonOptions damped = options;
    damped.max_step = max_step;
    damped.max_iterations =
        std::max(options.max_iterations, static_cast<int>(600.0 * 0.02 / max_step));

    // Strategy 1: plain Newton with the gmin floor.
    std::vector<double>& trial = ws_.trial;
    trial = x;
    if (newton_solve(trial, t, -1.0, false, no_caps, no_caps, 1e-12, 1.0,
                     damped)) {
      x = trial;
      return true;
    }

    // Strategy 2: gmin stepping — heavy conductance to ground, relaxed
    // geometrically down to the floor, reusing each solution as the next
    // starting point.
    ++stats_.dc_gmin_ladders;
    if (obs::tracer().enabled()) {
      obs::trace_marker(obs::Marker::kNewtonFallback, t, 0.0, 0,
                        "gmin stepping");
    }
    trial.assign(x.size(), 0.0);
    bool ladder_ok = true;
    for (double gmin = 1e-2; gmin >= 1e-13; gmin *= 0.1) {
      if (!newton_solve(trial, t, -1.0, false, no_caps, no_caps, gmin, 1.0,
                        damped)) {
        ladder_ok = false;
        break;
      }
      ++stats_.dc_gmin_steps;
    }
    if (ladder_ok) {
      x = trial;
      return true;
    }

    // Strategy 3: source stepping — ramp all sources from 0 to full value.
    ++stats_.dc_source_ladders;
    if (obs::tracer().enabled()) {
      obs::trace_marker(obs::Marker::kNewtonFallback, t, 0.0, 0,
                        "source stepping");
    }
    trial.assign(x.size(), 0.0);
    bool sources_ok = true;
    for (int step = 1; step <= 20 && sources_ok; ++step) {
      const double scale = static_cast<double>(step) / 20.0;
      sources_ok = newton_solve(trial, t, -1.0, false, no_caps, no_caps,
                                1e-12, scale, damped);
      if (sources_ok) ++stats_.dc_source_steps;
    }
    if (sources_ok) {
      x = trial;
      return true;
    }
  }
  return false;
}

std::string Simulator::worst_residual_node(
    const std::vector<double>& x, double t, double h, bool use_trap,
    const std::vector<double>& cap_prev_v, const std::vector<double>& cap_prev_i,
    double gmin) const {
  std::vector<double>& f = ws_.f;
  assemble_sparse(x, t, h, use_trap, cap_prev_v, cap_prev_i, gmin, 1.0, f);
  const std::size_t n_voltage = circuit_.node_count() - 1;
  std::size_t worst = 0;
  double worst_res = -1.0;
  for (std::size_t i = 0; i < n_voltage; ++i) {
    const double res = std::isfinite(f[i]) ? std::fabs(f[i]) : 1e300;
    if (res > worst_res) {
      worst_res = res;
      worst = i;
    }
  }
  if (worst_res < 0.0) return "";
  return circuit_.node_name(NodeId{worst + 1});
}

void Simulator::attach_postmortem(ConvergenceError& err,
                                  const NewtonOptions& newton,
                                  const TransientOptions* transient,
                                  const TransientResult* waveforms,
                                  bool dt_at_floor) const {
  if (postmortem_dir_.empty()) return;
  obs::FailureEvidence evidence;
  evidence.phase = err.phase();
  evidence.lu_singular = stats_.lu_singular;
  evidence.lu_nonfinite = stats_.lu_nonfinite;
  evidence.dt_halvings = stats_.dt_halvings;
  evidence.dt_at_floor = dt_at_floor;
  if (diag_) evidence.tail = diag_->snapshot();
  const obs::FailureClass cls = obs::classify_failure(evidence);

  PostmortemContext context;
  context.circuit = &circuit_;
  context.phase = err.phase();
  context.failure_class = obs::to_string(cls);
  context.message = err.what();
  context.t = err.sim_time();
  context.iterations = err.iterations();
  context.worst_node = err.worst_node();
  context.solver_mode = plan_ && plan_->hier ? "hierarchical" : "sparse";
  context.dt_at_floor = dt_at_floor;
  context.stats = stats_;
  context.newton = newton;
  context.transient = transient;
  context.ring = diag_.get();
  context.waveforms = waveforms;
  PostmortemOptions popt;
  popt.dir = postmortem_dir_;
  try {
    const std::string bundle = write_postmortem_bundle(context, popt);
    err.set_bundle_path(bundle);
    if (obs::tracer().enabled()) {
      obs::trace_marker(obs::Marker::kWarning, err.sim_time(), 0.0,
                        static_cast<int>(err.iterations()),
                        "postmortem bundle: " + bundle);
    }
  } catch (const std::exception&) {
    // A full disk or unwritable directory must not mask the solver error.
  }
}

std::vector<double> Simulator::dc_operating_point(double t) {
  return dc_solution(t).node_v;
}

Simulator::DcSolution Simulator::dc_solution(
    double t, const std::vector<double>* node_guess) {
  stats_ = SolveStats{};
  const obs::Stopwatch wall;
  // Handle resolved once per process: a parallel campaign enters here for
  // every sample, and re-hashing the timer name per solve is measurable.
  static obs::TimerStat& dc_timer = obs::registry().timer("esim.dc_solution");
  obs::Span span("esim.dc_solution", dc_timer);
  std::vector<double> x(unknown_count(), 0.0);
  if (node_guess != nullptr) {
    sks::check(node_guess->size() == circuit_.node_count(),
               "dc_solution: guess size mismatch, got ", node_guess->size(),
               " nodes, circuit has ", circuit_.node_count());
    for (std::size_t i = 1; i < circuit_.node_count(); ++i) {
      x[i - 1] = (*node_guess)[i];
    }
  }
  NewtonOptions options;
  if (diag_) diag_->clear();
  if (!dc_solve(x, t, options)) {
    stats_.wall_seconds = wall.seconds();
    mirror_stats_to_registry(stats_);
    const std::string worst =
        worst_residual_node(x, t, -1.0, false, {}, {}, 1e-12);
    ConvergenceError err(
        sks::detail::concat_parts(
            "DC operating point did not converge (t=", t * 1e12, " ps, ",
            stats_.newton_iterations, " NR iterations across the ladder",
            worst.empty() ? "" : ", worst residual at node '" + worst + "'",
            ")"),
        "dc", t, static_cast<long>(stats_.newton_iterations), worst);
    attach_postmortem(err, options, nullptr, nullptr, false);
    throw err;
  }
  DcSolution solution;
  solution.node_v.assign(circuit_.node_count(), 0.0);
  for (std::size_t i = 1; i < circuit_.node_count(); ++i) {
    solution.node_v[i] = x[i - 1];
  }
  const std::size_t branch_base = circuit_.node_count() - 1;
  solution.vsrc_i.assign(circuit_.vsources().size(), 0.0);
  for (std::size_t s = 0; s < circuit_.vsources().size(); ++s) {
    solution.vsrc_i[s] = x[branch_base + s];
  }
  stats_.wall_seconds = wall.seconds();
  mirror_stats_to_registry(stats_);
  if (obs::enabled() && plan_) {
    record_sparse_lu_bytes(plan_->j.memory_bytes() + plan_->lu.memory_bytes());
    if (plan_->hier) record_schur_bytes(plan_->hier->memory_bytes());
  }
  span.arg("nr_iters", static_cast<double>(stats_.newton_iterations))
      .arg("lu", static_cast<double>(stats_.lu_factorizations))
      .arg("lu_refactor", static_cast<double>(stats_.lu_refactorizations))
      .arg("sparse_nnz", static_cast<double>(stats_.sparse_nnz));
  solution.stats = stats_;
  return solution;
}

TransientResult Simulator::run_transient(const TransientOptions& options) {
  sks::check(options.t_end > 0.0, "run_transient: t_end must be positive");
  sks::check(options.dt > 0.0, "run_transient: dt must be positive");
  if (options.adaptive) {
    // dt is the first step: above dt_max the controller would take steps
    // it is meant to forbid, and a non-positive dv_max rejects every step.
    sks::check(options.dv_max > 0.0, "run_transient: adaptive dv_max (",
               options.dv_max, " V) must be positive");
    sks::check(options.dt_max >= options.dt,
               "run_transient: adaptive dt_max (", options.dt_max,
               " s) must be >= dt (", options.dt, " s)");
  }

  stats_ = SolveStats{};
  const obs::Stopwatch wall;
  static obs::TimerStat& transient_timer =
      obs::registry().timer("esim.run_transient");
  obs::Span span("esim.run_transient", transient_timer);
  span.arg("t_end", options.t_end).arg("dt", options.dt);

  const std::size_t n_nodes = circuit_.node_count();
  const std::size_t n_vsrc = circuit_.vsources().size();
  const std::size_t n_caps = circuit_.capacitors().size();

  // Initial condition: DC operating point at t = 0.
  std::vector<double> x(unknown_count(), 0.0);
  NewtonOptions dc_options = options.newton;
  dc_options.max_iterations = std::max(dc_options.max_iterations, 120);
  if (diag_) diag_->clear();
  if (!dc_solve(x, 0.0, dc_options)) {
    stats_.wall_seconds = wall.seconds();
    mirror_stats_to_registry(stats_);
    const std::string worst =
        worst_residual_node(x, 0.0, -1.0, false, {}, {}, 1e-12);
    ConvergenceError err(
        sks::detail::concat_parts(
            "transient: initial DC operating point failed (",
            stats_.newton_iterations, " NR iterations",
            worst.empty() ? "" : ", worst residual at node '" + worst + "'",
            ")"),
        "transient_dc", 0.0, static_cast<long>(stats_.newton_iterations),
        worst);
    attach_postmortem(err, dc_options, &options, nullptr, false);
    throw err;
  }

  // Collect breakpoints from all source waveforms.
  std::vector<double> breakpoints;
  for (const auto& v : circuit_.vsources()) {
    const auto bp = v.wave.breakpoints(options.t_end);
    breakpoints.insert(breakpoints.end(), bp.begin(), bp.end());
  }
  for (const auto& isrc : circuit_.isources()) {
    const auto bp = isrc.wave.breakpoints(options.t_end);
    breakpoints.insert(breakpoints.end(), bp.begin(), bp.end());
  }
  breakpoints.push_back(options.t_end);
  std::sort(breakpoints.begin(), breakpoints.end());
  breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end(),
                                [](double a, double b) {
                                  return std::fabs(a - b) < 1e-18;
                                }),
                    breakpoints.end());

  TransientResult result;
  result.node_v.resize(n_nodes);
  result.vsrc_i.resize(n_vsrc);

  auto record = [&](double t) {
    if (options.stream_tap != nullptr && n_nodes > 1) {
      options.stream_tap->on_step(t, x.data(), n_nodes - 1);
    }
    if (obs::timeline().enabled()) obs::timeline().on_sim_time(t);
    if (!options.record_waveforms) return;  // bounded-memory soak mode
    result.time.push_back(t);
    result.node_v[0].push_back(0.0);
    for (std::size_t i = 1; i < n_nodes; ++i) {
      result.node_v[i].push_back(x[i - 1]);
    }
    for (std::size_t s = 0; s < n_vsrc; ++s) {
      result.vsrc_i[s].push_back(x[(n_nodes - 1) + s]);
    }
  };

  // Capacitor companion state.
  std::vector<double> cap_v(n_caps, 0.0);
  std::vector<double> cap_i(n_caps, 0.0);
  auto refresh_cap_state = [&](double h, bool used_trap) {
    const auto& caps = circuit_.capacitors();
    for (std::size_t ci = 0; ci < n_caps; ++ci) {
      const double v_now = node_v(x, caps[ci].a) - node_v(x, caps[ci].b);
      if (used_trap) {
        cap_i[ci] =
            (2.0 * caps[ci].capacitance / h) * (v_now - cap_v[ci]) - cap_i[ci];
      } else {
        cap_i[ci] = (caps[ci].capacitance / h) * (v_now - cap_v[ci]);
      }
      cap_v[ci] = v_now;
    }
  };
  // Initialize companion voltages from the DC solution (currents are zero).
  {
    const auto& caps = circuit_.capacitors();
    for (std::size_t ci = 0; ci < n_caps; ++ci) {
      cap_v[ci] = node_v(x, caps[ci].a) - node_v(x, caps[ci].b);
    }
  }

  record(0.0);

  double t = 0.0;
  std::size_t next_bp = 0;
  while (next_bp < breakpoints.size() && breakpoints[next_bp] <= 1e-18) {
    ++next_bp;
  }
  // Force one backward-Euler step after t=0 and after every breakpoint.
  bool be_next = true;
  double dt_current = options.dt;

  while (t < options.t_end - 1e-18) {
    double h = dt_current;
    bool hit_bp = false;
    if (next_bp < breakpoints.size() && t + h >= breakpoints[next_bp] - 1e-18) {
      h = breakpoints[next_bp] - t;
      hit_bp = true;
    }
    if (t + h > options.t_end) h = options.t_end - t;
    if (h <= 0.0) {
      ++next_bp;
      continue;
    }
    if (h < options.dt_min) {
      // Sub-resolution sliver left over by floating-point accumulation just
      // before a breakpoint: advance time without solving (nothing can
      // change in 10^-17 s) and damp the corner with a BE step.
      t += h;
      if (hit_bp) ++next_bp;
      be_next = true;
      continue;
    }

    // Attempt the step; on Newton failure fall back to backward Euler
    // (better damped), then halve the step.
    double h_try = h;
    bool ok = false;
    std::vector<double>& x_saved = ws_.x_saved;
    x_saved = x;
    const std::size_t n_voltage = n_nodes - 1;
    while (h_try >= options.dt_min) {
      const bool want_trap = options.trapezoidal && !be_next;
      bool solved = false;
      bool solved_with_trap = false;
      for (const bool use_trap : {want_trap, false}) {
        x = x_saved;
        if (newton_solve(x, t + h_try, h_try, use_trap, cap_v, cap_i,
                         options.gmin, 1.0, options.newton)) {
          solved = true;
          solved_with_trap = use_trap;
          break;
        }
        if (!want_trap) break;  // BE already tried
      }
      if (solved) {
        double max_dv = 0.0;
        for (std::size_t i = 0; i < n_voltage; ++i) {
          max_dv = std::max(max_dv, std::fabs(x[i] - x_saved[i]));
        }
        // Adaptive control: reject a step that moves any node too far (the
        // curvature within it is unresolved), unless already at the floor.
        if (options.adaptive && max_dv > options.dv_max &&
            h_try > 4.0 * options.dt_min) {
          ++stats_.steps_rejected;
          if (obs::tracer().enabled()) {
            obs::trace_marker(obs::Marker::kStepRejected, t, h_try, 0,
                              "dv_max");
          }
          h_try *= 0.5;
          if (h_try < dt_current) dt_current = h_try;
          continue;
        }
        if (solved_with_trap != want_trap && want_trap) {
          ++stats_.be_fallbacks;
          if (obs::tracer().enabled()) {
            obs::trace_marker(obs::Marker::kNewtonFallback, t, h_try, 0,
                              "trapezoidal -> BE");
          }
        }
        refresh_cap_state(h_try, solved_with_trap);
        t += h_try;
        ++stats_.steps_accepted;
        if (stats_.min_dt_used == 0.0 || h_try < stats_.min_dt_used) {
          stats_.min_dt_used = h_try;
        }
        record(t);
        ok = true;
        // Quiet step: let the timestep recover toward dt_max.
        if (options.adaptive && max_dv < 0.25 * options.dv_max) {
          dt_current = std::min(dt_current * 1.5, options.dt_max);
        }
        break;
      }
      ++stats_.dt_halvings;
      if (obs::tracer().enabled()) {
        obs::trace_marker(obs::Marker::kDtHalved, t, h_try * 0.5, 0,
                          "newton failure");
      }
      h_try *= 0.5;
      // Like the dv_max rejection path: remember that this step size just
      // failed so the adaptive controller does not immediately re-propose
      // it for the next interval (it regrows 1.5x per quiet step).
      if (options.adaptive && h_try < dt_current) dt_current = h_try;
    }
    if (!ok) {
      stats_.wall_seconds = wall.seconds();
      mirror_stats_to_registry(stats_);
      // Continuous-health counter: the step was abandoned with dt at the
      // floor.  Always live (failure path only, nowhere near the hot loop).
      obs::registry().counter("dt.collapse_events").inc();
      const std::string worst = worst_residual_node(
          x_saved, t, options.dt_min, false, cap_v, cap_i, options.gmin);
      ConvergenceError err(
          sks::detail::concat_parts(
              "transient: Newton failed at t = ", t * 1e12,
              " ps (dt halved to ", options.dt_min, " s, ",
              stats_.newton_iterations, " NR iterations so far",
              worst.empty() ? "" : ", worst residual at node '" + worst + "'",
              ")"),
          "transient", t, static_cast<long>(stats_.newton_iterations), worst);
      attach_postmortem(err, options.newton, &options, &result, true);
      throw err;
    }

    const bool completed_interval = h_try >= h - 1e-21;
    if (hit_bp && completed_interval) {
      ++next_bp;
      ++stats_.breakpoints_hit;
      be_next = true;  // damp the new corner with one BE step
    } else {
      be_next = false;
    }
  }

  stats_.wall_seconds = wall.seconds();
  mirror_stats_to_registry(stats_);
  if (obs::enabled()) {
    if (plan_) {
      record_sparse_lu_bytes(plan_->j.memory_bytes() +
                             plan_->lu.memory_bytes());
      if (plan_->hier) record_schur_bytes(plan_->hier->memory_bytes());
    }
    record_waveform_bytes(result);
  }
  span.arg("steps", static_cast<double>(stats_.steps_accepted))
      .arg("nr_iters", static_cast<double>(stats_.newton_iterations))
      .arg("lu_refactor", static_cast<double>(stats_.lu_refactorizations))
      .arg("sparse_nnz", static_cast<double>(stats_.sparse_nnz))
      .arg("min_dt", stats_.min_dt_used);
  result.stats = stats_;
  return result;
}

std::vector<double> dc_operating_point(const Circuit& circuit, double t) {
  Simulator sim(circuit);
  return sim.dc_operating_point(t);
}

TransientResult simulate(const Circuit& circuit,
                         const TransientOptions& options) {
  Simulator sim(circuit);
  return sim.run_transient(options);
}

}  // namespace sks::esim
