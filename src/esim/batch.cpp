#include "esim/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "esim/sparse.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/timeline.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace sks::esim {

namespace {

// Mirrors mosfet_model.cpp's kGoff; the batch kernel re-derives the level-1
// equations branchlessly, and cutoff/triode round bit-identically to the
// scalar model (saturation differs by ~1 ulp from association order).
constexpr double kGoff = 1e-12;
constexpr double kMosFdStep = 1e-6;  // central-difference h, as eval_mosfet

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t lane_count_checked(const std::vector<Circuit>& lanes) {
  sks::check(!lanes.empty(), "BatchSimulator: at least one lane required");
  for (std::size_t i = 1; i < lanes.size(); ++i) {
    sks::check(BatchSimulator::structure_compatible(lanes[0], lanes[i]),
               "BatchSimulator: lane ", i,
               " is not structure-compatible with lane 0");
  }
  return lanes.size();
}

}  // namespace

bool BatchSimulator::structure_compatible(const Circuit& a, const Circuit& b) {
  if (a.node_count() != b.node_count()) return false;
  if (a.resistors().size() != b.resistors().size()) return false;
  if (a.capacitors().size() != b.capacitors().size()) return false;
  if (a.mosfets().size() != b.mosfets().size()) return false;
  if (a.vsources().size() != b.vsources().size()) return false;
  if (a.isources().size() != b.isources().size()) return false;
  for (std::size_t i = 0; i < a.resistors().size(); ++i) {
    if (a.resistors()[i].a.index != b.resistors()[i].a.index ||
        a.resistors()[i].b.index != b.resistors()[i].b.index) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.capacitors().size(); ++i) {
    if (a.capacitors()[i].a.index != b.capacitors()[i].a.index ||
        a.capacitors()[i].b.index != b.capacitors()[i].b.index) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.mosfets().size(); ++i) {
    if (a.mosfets()[i].gate.index != b.mosfets()[i].gate.index ||
        a.mosfets()[i].drain.index != b.mosfets()[i].drain.index ||
        a.mosfets()[i].source.index != b.mosfets()[i].source.index) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.vsources().size(); ++i) {
    if (a.vsources()[i].pos.index != b.vsources()[i].pos.index ||
        a.vsources()[i].neg.index != b.vsources()[i].neg.index) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.isources().size(); ++i) {
    if (a.isources()[i].from.index != b.isources()[i].from.index ||
        a.isources()[i].to.index != b.isources()[i].to.index) {
      return false;
    }
  }
  return true;
}

struct BatchSimulator::Impl {
  // ---- shared structure (from lane 0) -----------------------------------
  std::size_t K = 0;
  std::size_t n = 0;  // MNA unknowns
  std::size_t n_nodes = 0;
  std::size_t n_voltage = 0;
  std::vector<Circuit> circuits;

  SparseMatrix j;  // shared pattern; its own values used only to freeze pivots
  std::vector<std::size_t> diag_slot;
  struct Quad {
    std::size_t aa, ab, ba, bb;
  };
  std::vector<Quad> resistor_slots, cap_slots;
  struct MosSlots {
    std::size_t dg, dd, ds, sg, sd, ss;
  };
  std::vector<MosSlots> mos_slots;

  // Terminal unknown indices; -1 means ground (reads gather from `zeros`,
  // writes are skipped).
  struct Pair {
    std::ptrdiff_t a, b;
  };
  std::vector<Pair> res_nodes, cap_nodes;
  struct Tri {
    std::ptrdiff_t g, d, s;
  };
  std::vector<Tri> mos_nodes;
  std::vector<Pair> vsrc_nodes;  // pos, neg
  std::vector<Pair> isrc_nodes;  // from, to

  // ---- SoA per-lane device parameters (device * K + lane) ---------------
  std::vector<double> res_g, cap_c;
  std::vector<double> mp_sign, mp_beta, mp_vt, mp_lambda, mp_fullon;
  std::vector<double> mp_on, mp_open;  // fault masks as 0.0 / 1.0

  // ---- SoA matrix values and solver state -------------------------------
  std::vector<double> base_vals, tpl_vals, soa_vals;  // (nnz + 1) * K
  // Slots assemble_round accumulates MOSFET conductances into (plus the
  // dummy): the only soa_vals rows that diverge from tpl_vals between
  // rounds, so the per-round template restore copies just these instead of
  // the whole matrix.  refresh_template keeps the remaining rows in sync by
  // writing its lane stripe through to soa_vals.
  std::vector<std::size_t> mos_touched_slots;
  bool soa_stale = true;  // full tpl -> soa sync needed (run start)
  // Memo key for refresh_template: lane L's stripe is current for
  // (tpl_gmin, tpl_capmult, tpl_h) when tpl_valid[L] != 0.
  std::vector<double> tpl_gmin, tpl_capmult, tpl_h;
  std::vector<std::uint8_t> tpl_valid;
  std::vector<double> x, x_saved, f, rhs, dx;         // n * K
  std::vector<double> cap_v, cap_i;                   // nC * K
  std::vector<double> zeros;                          // K, all zero

  // ---- per-round per-lane scalars (K each) ------------------------------
  std::vector<double> lane_gmin, lane_h, lane_capmult, lane_trapmask, lane_t;
  std::vector<double> maxdv, damp;
  std::vector<std::uint8_t> lu_ok;

  // MOSFET kernel scratch (K each).  sc_* cache the drain/source-only
  // geometry of the current device so the base and gate-shift sweeps skip
  // recomputing it.
  std::vector<double> id0, gm, gds, cur, tap_buf;
  std::vector<double> sc_flow, sc_lo, sc_vds, sc_leak, sc_clm, sc_iopen;
  // Source values cached at arm time (source * K + lane): waveforms only
  // depend on the lane's attempt time, which is fixed across a step's
  // Newton rounds, so assemble_round reads these instead of calling
  // Waveform::value() per lane per round.
  std::vector<double> isrc_val, vsrc_val;

  SparseLu ref_lu;
  BatchLu blu;
  bool pivot_frozen = false;

  // ---- per-lane run state -----------------------------------------------
  enum class Phase { kIdle, kDc, kStep, kDone, kRetired };
  struct Lane {
    Phase phase = Phase::kIdle;
    TransientOptions opt;
    NewtonOptions newton;  // active options (DC uses the boosted iteration cap)
    std::vector<double> breakpoints;
    std::size_t next_bp = 0;
    bool be_next = true;
    bool dc_done = false;
    double t = 0.0;
    double h = 0.0;
    double h_try = 0.0;
    bool hit_bp = false;
    bool want_trap = false;
    bool attempt_trap = false;
    double attempt_t = 0.0;
    int nr_iter = 0;
    bool check_residual = false;
    bool needs_solve = false;
    bool force_fail = false;
    SolveStats stats;
    TransientResult result;
  };
  std::vector<Lane> lane;

  BatchRunStats bstats;
  std::size_t force_lane = static_cast<std::size_t>(-1);
  double force_time = 0.0;

  // Per-phase wall accumulators for the lockstep Newton loop; recorded as
  // esim.batch_{assemble,refactor,trisolve} timers once per run so the
  // BENCH reports break the SoA hot loop down without per-round registry
  // traffic.
  std::uint64_t ns_assemble = 0;
  std::uint64_t ns_refactor = 0;
  std::uint64_t ns_trisolve = 0;

  const double* node_ptr(std::ptrdiff_t u) const {
    return u < 0 ? zeros.data() : x.data() + static_cast<std::size_t>(u) * K;
  }

  // Heap footprint of the SoA stripes + the shared pattern and batched LU,
  // for the mem.batch_soa_bytes gauge.
  std::size_t soa_bytes() const;

  void build_structure();
  void refresh_template(std::size_t L, double gmin, double capmult, double h);
  void refresh_sources(std::size_t L);
  void assemble_round();
  void mos_eval_device(std::size_t mi);
  void freeze_pivots();
  void newton_round();
  void newton_converged(std::size_t L);
  void newton_fail(std::size_t L);
  void accept_dc(std::size_t L);
  void accept_step(std::size_t L);
  void arm(std::size_t L);
  void arm_dc(std::size_t L);
  void record(std::size_t L, double t);
  void refresh_cap_state(std::size_t L, double h, bool used_trap);
};

void BatchSimulator::Impl::build_structure() {
  const Circuit& c0 = circuits[0];
  n_nodes = c0.node_count();
  n_voltage = n_nodes - 1;
  n = n_voltage + c0.vsources().size();
  const std::size_t branch_base = n_voltage;

  // Pattern collection mirrors Simulator::build_stamp_plan.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  const auto add = [&entries](std::size_t r, std::size_t c) {
    entries.emplace_back(static_cast<std::uint32_t>(r),
                         static_cast<std::uint32_t>(c));
  };
  const auto add_pair = [&](NodeId row, NodeId col) {
    if (row.index != 0 && col.index != 0) add(row.index - 1, col.index - 1);
  };
  for (std::size_t i = 0; i < n_voltage; ++i) add(i, i);
  for (const auto& r : c0.resistors()) {
    add_pair(r.a, r.a);
    add_pair(r.a, r.b);
    add_pair(r.b, r.a);
    add_pair(r.b, r.b);
  }
  for (const auto& c : c0.capacitors()) {
    add_pair(c.a, c.a);
    add_pair(c.a, c.b);
    add_pair(c.b, c.a);
    add_pair(c.b, c.b);
  }
  for (const auto& m : c0.mosfets()) {
    add_pair(m.drain, m.gate);
    add_pair(m.drain, m.drain);
    add_pair(m.drain, m.source);
    add_pair(m.source, m.gate);
    add_pair(m.source, m.drain);
    add_pair(m.source, m.source);
  }
  const auto& vsrcs = c0.vsources();
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
  j = SparseMatrix(n, std::move(entries));

  const std::size_t dummy = j.dummy_slot();
  const auto slot_of = [&](NodeId row, NodeId col) {
    if (row.index == 0 || col.index == 0) return dummy;
    return j.slot(row.index - 1, col.index - 1);
  };
  diag_slot.resize(n_voltage);
  for (std::size_t i = 0; i < n_voltage; ++i) diag_slot[i] = j.slot(i, i);
  const auto quad_of = [&](NodeId a, NodeId b) {
    return Quad{slot_of(a, a), slot_of(a, b), slot_of(b, a), slot_of(b, b)};
  };
  const auto unknown_of = [](NodeId node) {
    return node.index == 0 ? std::ptrdiff_t{-1}
                           : static_cast<std::ptrdiff_t>(node.index - 1);
  };
  for (const auto& r : c0.resistors()) {
    resistor_slots.push_back(quad_of(r.a, r.b));
    res_nodes.push_back({unknown_of(r.a), unknown_of(r.b)});
  }
  for (const auto& c : c0.capacitors()) {
    cap_slots.push_back(quad_of(c.a, c.b));
    cap_nodes.push_back({unknown_of(c.a), unknown_of(c.b)});
  }
  for (const auto& m : c0.mosfets()) {
    mos_slots.push_back({slot_of(m.drain, m.gate), slot_of(m.drain, m.drain),
                         slot_of(m.drain, m.source), slot_of(m.source, m.gate),
                         slot_of(m.source, m.drain),
                         slot_of(m.source, m.source)});
    mos_nodes.push_back(
        {unknown_of(m.gate), unknown_of(m.drain), unknown_of(m.source)});
  }
  for (const auto& v : vsrcs) {
    vsrc_nodes.push_back({unknown_of(v.pos), unknown_of(v.neg)});
  }
  for (const auto& isrc : c0.isources()) {
    isrc_nodes.push_back({unknown_of(isrc.from), unknown_of(isrc.to)});
  }

  // Per-lane device parameters, lane-contiguous.
  const std::size_t nR = res_nodes.size();
  const std::size_t nC = cap_nodes.size();
  const std::size_t nM = mos_nodes.size();
  res_g.assign(nR * K, 0.0);
  cap_c.assign(nC * K, 0.0);
  mp_sign.assign(nM * K, 1.0);
  mp_beta.assign(nM * K, 0.0);
  mp_vt.assign(nM * K, 0.0);
  mp_lambda.assign(nM * K, 0.0);
  mp_fullon.assign(nM * K, 0.0);
  mp_on.assign(nM * K, 0.0);
  mp_open.assign(nM * K, 0.0);
  for (std::size_t L = 0; L < K; ++L) {
    const Circuit& c = circuits[L];
    for (std::size_t ri = 0; ri < nR; ++ri) {
      res_g[ri * K + L] = 1.0 / c.resistors()[ri].resistance;
    }
    for (std::size_t ci = 0; ci < nC; ++ci) {
      cap_c[ci * K + L] = c.capacitors()[ci].capacitance;
    }
    for (std::size_t mi = 0; mi < nM; ++mi) {
      const auto& m = c.mosfets()[mi];
      mp_sign[mi * K + L] = m.params.type == MosType::kNmos ? 1.0 : -1.0;
      mp_beta[mi * K + L] = m.params.beta();
      mp_vt[mi * K + L] = m.params.vt;
      mp_lambda[mi * K + L] = m.params.lambda;
      mp_fullon[mi * K + L] = m.params.full_on_vgs;
      mp_on[mi * K + L] = m.fault == MosFault::kStuckOn ? 1.0 : 0.0;
      mp_open[mi * K + L] = m.fault == MosFault::kStuckOpen ? 1.0 : 0.0;
    }
  }

  // Constant SoA template: resistor conductances + vsource incidence.
  const std::size_t nvals = j.values_size();
  base_vals.assign(nvals * K, 0.0);
  for (std::size_t ri = 0; ri < nR; ++ri) {
    const auto& q = resistor_slots[ri];
    for (std::size_t L = 0; L < K; ++L) {
      const double g = res_g[ri * K + L];
      base_vals[q.aa * K + L] += g;
      base_vals[q.ab * K + L] -= g;
      base_vals[q.ba * K + L] -= g;
      base_vals[q.bb * K + L] += g;
    }
  }
  for (std::size_t si = 0; si < vsrcs.size(); ++si) {
    const std::size_t bi = branch_base + si;
    if (vsrcs[si].pos.index != 0) {
      const std::size_t s1 = j.slot(vsrcs[si].pos.index - 1, bi);
      const std::size_t s2 = j.slot(bi, vsrcs[si].pos.index - 1);
      for (std::size_t L = 0; L < K; ++L) {
        base_vals[s1 * K + L] += 1.0;
        base_vals[s2 * K + L] += 1.0;
      }
    }
    if (vsrcs[si].neg.index != 0) {
      const std::size_t s1 = j.slot(vsrcs[si].neg.index - 1, bi);
      const std::size_t s2 = j.slot(bi, vsrcs[si].neg.index - 1);
      for (std::size_t L = 0; L < K; ++L) {
        base_vals[s1 * K + L] -= 1.0;
        base_vals[s2 * K + L] -= 1.0;
      }
    }
  }
  for (std::size_t L = 0; L < K; ++L) base_vals[dummy * K + L] = 0.0;
  tpl_vals = base_vals;
  soa_vals.assign(nvals * K, 0.0);

  mos_touched_slots.clear();
  for (const auto& ms : mos_slots) {
    for (const std::size_t s : {ms.dg, ms.dd, ms.ds, ms.sg, ms.sd, ms.ss}) {
      mos_touched_slots.push_back(s);
    }
  }
  mos_touched_slots.push_back(dummy);
  std::sort(mos_touched_slots.begin(), mos_touched_slots.end());
  mos_touched_slots.erase(
      std::unique(mos_touched_slots.begin(), mos_touched_slots.end()),
      mos_touched_slots.end());

  x.assign(n * K, 0.0);
  x_saved.assign(n * K, 0.0);
  f.assign(n * K, 0.0);
  rhs.assign(n * K, 0.0);
  dx.assign(n * K, 0.0);
  cap_v.assign(nC * K, 0.0);
  cap_i.assign(nC * K, 0.0);
  zeros.assign(K, 0.0);
  lane_gmin.assign(K, 0.0);
  lane_h.assign(K, 1.0);
  lane_capmult.assign(K, 0.0);
  lane_trapmask.assign(K, 0.0);
  lane_t.assign(K, 0.0);
  maxdv.assign(K, 0.0);
  damp.assign(K, 0.0);
  lu_ok.assign(K, 0);
  id0.assign(K, 0.0);
  gm.assign(K, 0.0);
  gds.assign(K, 0.0);
  cur.assign(K, 0.0);
  tap_buf.assign(n_voltage, 0.0);
  sc_flow.assign(K, 0.0);
  sc_lo.assign(K, 0.0);
  sc_vds.assign(K, 0.0);
  sc_leak.assign(K, 0.0);
  sc_clm.assign(K, 0.0);
  sc_iopen.assign(K, 0.0);
  tpl_gmin.assign(K, 0.0);
  tpl_capmult.assign(K, 0.0);
  tpl_h.assign(K, 0.0);
  tpl_valid.assign(K, 0);
  isrc_val.assign(isrc_nodes.size() * K, 0.0);
  vsrc_val.assign(vsrc_nodes.size() * K, 0.0);
  lane.resize(K);

  ref_lu.analyze(j);
}

std::size_t BatchSimulator::Impl::soa_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t total = j.memory_bytes() + ref_lu.memory_bytes() +
                      blu.memory_bytes();
  for (const auto* v :
       {&res_g, &cap_c, &mp_sign, &mp_beta, &mp_vt, &mp_lambda, &mp_fullon,
        &mp_on, &mp_open, &base_vals, &tpl_vals, &soa_vals, &tpl_gmin,
        &tpl_capmult, &tpl_h, &x, &x_saved, &f, &rhs, &dx, &cap_v, &cap_i,
        &zeros, &lane_gmin, &lane_h, &lane_capmult, &lane_trapmask, &lane_t,
        &maxdv, &damp, &id0, &gm, &gds, &cur, &tap_buf, &sc_flow, &sc_lo,
        &sc_vds, &sc_leak, &sc_clm, &sc_iopen, &isrc_val, &vsrc_val}) {
    total += bytes(*v);
  }
  total += bytes(mos_touched_slots) + bytes(tpl_valid) + bytes(lu_ok);
  return total;
}

// Rebuild lane L's column of the Jacobian template for its current
// (gmin, capacitor-companion) key.  geq uses the same (mult * C) / h
// expression the residual loop uses, so matrix and residual agree exactly
// (the scalar path has the same property).
void BatchSimulator::Impl::refresh_template(std::size_t L, double gmin,
                                            double capmult, double h) {
  // At a fixed dt the (gmin, capmult, h) key repeats for step after step —
  // the stripe rebuild (and its soa write-through) would produce exactly
  // the bytes already there, so skip it.  The key changes only at
  // breakpoint-shortened steps, trapezoidal<->BE switches, and the DC
  // round, which all rebuild.
  if (tpl_valid[L] != 0 && tpl_gmin[L] == gmin && tpl_capmult[L] == capmult &&
      tpl_h[L] == h) {
    return;
  }
  tpl_valid[L] = 1;
  tpl_gmin[L] = gmin;
  tpl_capmult[L] = capmult;
  tpl_h[L] = h;
  const std::size_t nvals = j.values_size();
  for (std::size_t s = 0; s < nvals; ++s) {
    tpl_vals[s * K + L] = base_vals[s * K + L];
  }
  for (std::size_t i = 0; i < n_voltage; ++i) {
    tpl_vals[diag_slot[i] * K + L] += gmin;
  }
  if (capmult != 0.0) {
    for (std::size_t ci = 0; ci < cap_nodes.size(); ++ci) {
      const double geq = (capmult * cap_c[ci * K + L]) / h;
      const auto& q = cap_slots[ci];
      tpl_vals[q.aa * K + L] += geq;
      tpl_vals[q.ab * K + L] -= geq;
      tpl_vals[q.ba * K + L] -= geq;
      tpl_vals[q.bb * K + L] += geq;
    }
  }
  tpl_vals[j.dummy_slot() * K + L] = 0.0;
  // Write-through: assemble_round only restores the MOSFET-touched slots
  // each Newton round, so every other slot of this lane's soa_vals stripe
  // must track the template from here (once per step, not per round).
  for (std::size_t s = 0; s < nvals; ++s) {
    soa_vals[s * K + L] = tpl_vals[s * K + L];
  }
}

// Branchless SoA level-1 MOSFET current + central-difference derivatives
// for device mi at the current x.  Matches mosfet_current()'s algebra:
// PMOS sign fold, symmetric drain/source swap via max/min, stuck-on gate
// override, stuck-open leakage-only select.  Cutoff and triode round
// bit-identically to the scalar model; saturation regroups
// 0.5*beta*vov^2*clm as beta*(vov*vov - 0.5*vov*vov)*clm (~1 ulp).
void BatchSimulator::Impl::mos_eval_device(std::size_t mi) {
  const double* vg = node_ptr(mos_nodes[mi].g);
  const double* vd = node_ptr(mos_nodes[mi].d);
  const double* vs = node_ptr(mos_nodes[mi].s);
  const double* sign = mp_sign.data() + mi * K;
  const double* beta = mp_beta.data() + mi * K;
  const double* vt = mp_vt.data() + mi * K;
  const double* lambda = mp_lambda.data() + mi * K;
  const double* fullon = mp_fullon.data() + mi * K;
  const double* on = mp_on.data() + mi * K;
  const double* open = mp_open.data() + mi * K;

  // Branch-free so the lane loop vectorizes (ternary selects defeat GCC's
  // if-conversion here): hi/lo swap via max/min, flow via copysign, and the
  // fault overrides as exact mask arithmetic — on[]/open[] are exactly 0.0
  // or 1.0, so `m*a + (1-m)*b` selects bit-identically to the ternary.
  //
  // The five evaluations (base + four finite-difference shifts) are split
  // so nothing drain/source-dependent is recomputed for the gate shifts:
  // one geometry sweep caches flow/lo/vds/leak/clm/i_open (they only
  // depend on d and s), three cheap gate-part sweeps reuse them for the
  // base current and both gate shifts, and only the two drain shifts run
  // the full kernel.  Each sweep stays a small flat lane loop — GCC
  // refuses to vectorize the fully fused variant ("no vectype") — and
  // every variant's expression sequence matches the former standalone
  // kernel, so the results are bit-identical (up to the sign of zero for
  // the base gate offset of +0.0, which compares equal).
  {
    double* __restrict w_flow = sc_flow.data();
    double* __restrict w_lo = sc_lo.data();
    double* __restrict w_vds = sc_vds.data();
    double* __restrict w_leak = sc_leak.data();
    double* __restrict w_clm = sc_clm.data();
    double* __restrict w_iopen = sc_iopen.data();
    for (std::size_t L = 0; L < K; ++L) {
      const double sg = sign[L];
      const double vdn = sg * vd[L];
      const double vsn = sg * vs[L];
      w_flow[L] = std::copysign(1.0, vdn - vsn);
      const double hi = std::max(vdn, vsn);
      const double lo = std::min(vdn, vsn);
      w_lo[L] = lo;
      const double vds = hi - lo;
      w_vds[L] = vds;
      w_leak[L] = kGoff * vds;
      w_clm[L] = 1.0 + lambda[L] * vds;
      w_iopen[L] = kGoff * (vd[L] - vs[L]);
    }
  }

  // Gate-part sweep: current for gate voltage vg[L] + off with the cached
  // geometry.  off == 0.0 is the base evaluation (x + 0.0 == x except for
  // the sign of a zero, which is value-equal).
  const auto gate_eval = [&](double off, double* __restrict out) {
    const double* __restrict r_flow = sc_flow.data();
    const double* __restrict r_lo = sc_lo.data();
    const double* __restrict r_vds = sc_vds.data();
    const double* __restrict r_leak = sc_leak.data();
    const double* __restrict r_clm = sc_clm.data();
    const double* __restrict r_iopen = sc_iopen.data();
    for (std::size_t L = 0; L < K; ++L) {
      const double sg = sign[L];
      const double vgn = sg * (vg[L] + off);
      const double onm = on[L];
      const double vgs = onm * fullon[L] + (1.0 - onm) * (vgn - r_lo[L]);
      const double vov = vgs - vt[L];
      const double vovp = std::max(vov, 0.0);
      const double vdse = std::min(r_vds[L], vovp);
      const double fwd =
          beta[L] * (vovp * vdse - 0.5 * vdse * vdse) * r_clm[L] + r_leak[L];
      const double i_chan = sg * r_flow[L] * fwd;
      const double openm = open[L];
      out[L] = openm * r_iopen[L] + (1.0 - openm) * i_chan;
    }
  };

  // Full sweep for a drain shift of off: the geometry changes, so this is
  // the original kernel with d[L] + off inlined where shift[] used to be.
  const auto drain_eval = [&](double off, double* __restrict out) {
    for (std::size_t L = 0; L < K; ++L) {
      const double sg = sign[L];
      const double draw = vd[L] + off;
      const double vgn = sg * vg[L];
      const double vdn = sg * draw;
      const double vsn = sg * vs[L];
      const double flow = std::copysign(1.0, vdn - vsn);
      const double hi = std::max(vdn, vsn);
      const double lo = std::min(vdn, vsn);
      const double onm = on[L];
      const double vgs = onm * fullon[L] + (1.0 - onm) * (vgn - lo);
      const double vds = hi - lo;
      const double leak = kGoff * vds;
      const double vov = vgs - vt[L];
      const double vovp = std::max(vov, 0.0);
      const double vdse = std::min(vds, vovp);
      const double clm = 1.0 + lambda[L] * vds;
      const double fwd =
          beta[L] * (vovp * vdse - 0.5 * vdse * vdse) * clm + leak;
      const double i_chan = sg * flow * fwd;
      const double i_open = kGoff * (draw - vs[L]);
      const double openm = open[L];
      out[L] = openm * i_open + (1.0 - openm) * i_chan;
    }
  };

  gate_eval(0.0, id0.data());
  gate_eval(kMosFdStep, gm.data());
  gate_eval(-kMosFdStep, cur.data());
  {
    double* __restrict w_gm = gm.data();
    const double* __restrict r_im = cur.data();
    for (std::size_t L = 0; L < K; ++L) {
      w_gm[L] = (w_gm[L] - r_im[L]) / (2.0 * kMosFdStep);
    }
  }
  drain_eval(kMosFdStep, gds.data());
  drain_eval(-kMosFdStep, cur.data());
  {
    double* __restrict w_gds = gds.data();
    const double* __restrict r_im = cur.data();
    for (std::size_t L = 0; L < K; ++L) {
      w_gds[L] = (w_gds[L] - r_im[L]) / (2.0 * kMosFdStep);
    }
  }
}

// One SoA assembly of every lane: template memcpy, then the residual in
// the scalar device order (gmin, resistors, capacitors, MOSFETs,
// isources, vsources) so live lanes reproduce assemble_sparse()'s F.
// Retired/done lanes are computed too (garbage in, garbage out, confined
// to the lane) — gating them would break the dense lane loops.
void BatchSimulator::Impl::assemble_round() {
  if (soa_stale) {
    std::memcpy(soa_vals.data(), tpl_vals.data(),
                soa_vals.size() * sizeof(double));
    soa_stale = false;
  } else {
    // Only the MOSFET-stamped slots differ from the template after the
    // previous round; refresh_template write-through covers the rest.
    for (const std::size_t s : mos_touched_slots) {
      std::memcpy(soa_vals.data() + s * K, tpl_vals.data() + s * K,
                  K * sizeof(double));
    }
  }
  std::fill(f.begin(), f.end(), 0.0);

  for (std::size_t i = 0; i < n_voltage; ++i) {
    double* fr = f.data() + i * K;
    const double* xr = x.data() + i * K;
    for (std::size_t L = 0; L < K; ++L) fr[L] += lane_gmin[L] * xr[L];
  }

  for (std::size_t ri = 0; ri < res_nodes.size(); ++ri) {
    const double* pa = node_ptr(res_nodes[ri].a);
    const double* pb = node_ptr(res_nodes[ri].b);
    const double* g = res_g.data() + ri * K;
    for (std::size_t L = 0; L < K; ++L) cur[L] = g[L] * (pa[L] - pb[L]);
    if (res_nodes[ri].a >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(res_nodes[ri].a) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] += cur[L];
    }
    if (res_nodes[ri].b >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(res_nodes[ri].b) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] -= cur[L];
    }
  }

  for (std::size_t ci = 0; ci < cap_nodes.size(); ++ci) {
    const double* pa = node_ptr(cap_nodes[ci].a);
    const double* pb = node_ptr(cap_nodes[ci].b);
    const double* c = cap_c.data() + ci * K;
    const double* pv = cap_v.data() + ci * K;
    const double* pi = cap_i.data() + ci * K;
    for (std::size_t L = 0; L < K; ++L) {
      // DC lanes carry capmult == 0 (and lane_h == 1), zeroing the stamp
      // exactly as the scalar DC assembly's open-circuit skip does.
      const double geq = (lane_capmult[L] * c[L]) / lane_h[L];
      cur[L] = geq * ((pa[L] - pb[L]) - pv[L]) - lane_trapmask[L] * pi[L];
    }
    if (cap_nodes[ci].a >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(cap_nodes[ci].a) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] += cur[L];
    }
    if (cap_nodes[ci].b >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(cap_nodes[ci].b) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] -= cur[L];
    }
  }

  for (std::size_t mi = 0; mi < mos_nodes.size(); ++mi) {
    mos_eval_device(mi);
    if (mos_nodes[mi].d >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(mos_nodes[mi].d) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] += id0[L];
    }
    if (mos_nodes[mi].s >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(mos_nodes[mi].s) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] -= id0[L];
    }
    const auto& s = mos_slots[mi];
    double* vdg = soa_vals.data() + s.dg * K;
    double* vdd = soa_vals.data() + s.dd * K;
    double* vds = soa_vals.data() + s.ds * K;
    double* vsg = soa_vals.data() + s.sg * K;
    double* vsd = soa_vals.data() + s.sd * K;
    double* vss = soa_vals.data() + s.ss * K;
    for (std::size_t L = 0; L < K; ++L) {
      const double gms = -(gm[L] + gds[L]);
      vdg[L] += gm[L];
      vdd[L] += gds[L];
      vds[L] += gms;
      vsg[L] -= gm[L];
      vsd[L] -= gds[L];
      vss[L] -= gms;
    }
  }
  // A device with identical terminals stamps multiple quads into the dummy
  // slot; reset it so the freeze-time gather stays clean.
  {
    double* dummy = soa_vals.data() + j.dummy_slot() * K;
    for (std::size_t L = 0; L < K; ++L) dummy[L] = 0.0;
  }

  for (std::size_t ii = 0; ii < isrc_nodes.size(); ++ii) {
    const double* iv = isrc_val.data() + ii * K;
    if (isrc_nodes[ii].a >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(isrc_nodes[ii].a) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] += iv[L];
    }
    if (isrc_nodes[ii].b >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(isrc_nodes[ii].b) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] -= iv[L];
    }
  }

  for (std::size_t si = 0; si < vsrc_nodes.size(); ++si) {
    const std::size_t bi = n_voltage + si;
    const double* ib = x.data() + bi * K;
    if (vsrc_nodes[si].a >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(vsrc_nodes[si].a) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] += ib[L];
    }
    if (vsrc_nodes[si].b >= 0) {
      double* fr = f.data() + static_cast<std::size_t>(vsrc_nodes[si].b) * K;
      for (std::size_t L = 0; L < K; ++L) fr[L] -= ib[L];
    }
    const double* pp = node_ptr(vsrc_nodes[si].a);
    const double* pn = node_ptr(vsrc_nodes[si].b);
    const double* vv = vsrc_val.data() + si * K;
    double* __restrict fb = f.data() + bi * K;
    for (std::size_t L = 0; L < K; ++L) {
      fb[L] = pp[L] - pn[L] - vv[L];
    }
  }
}

// Freeze the pivot order from the first lane whose first assembled matrix
// factors; lanes it does not suit are caught by the per-lane refactor
// acceptance test and retired.  If no lane factors (structurally singular
// circuit), every active lane retires to the scalar path, which reports
// the failure with its full diagnostics.
void BatchSimulator::Impl::freeze_pivots() {
  for (std::size_t ref = 0; ref < K; ++ref) {
    if (!lane[ref].needs_solve) continue;
    double* vals = j.values();
    for (std::size_t s = 0; s < j.values_size(); ++s) {
      vals[s] = soa_vals[s * K + ref];
    }
    if (ref_lu.factor(j) == SparseLuStatus::kOk) {
      blu.attach(ref_lu, K);
      pivot_frozen = true;
      // Every lane conceptually pays the one-time symbolic factorization,
      // matching the scalar sparse path's first-solve accounting.
      for (std::size_t L = 0; L < K; ++L) {
        ++lane[L].stats.lu_factorizations;
        ++lane[L].stats.lu_pattern_rebuilds;
      }
      return;
    }
  }
}

void BatchSimulator::Impl::newton_round() {
  const std::uint64_t t0 = now_ns();
  assemble_round();
  ns_assemble += now_ns() - t0;

  if (!pivot_frozen) {
    // First round: every live lane needs a solve by construction.
    for (std::size_t L = 0; L < K; ++L) {
      Lane& ln = lane[L];
      ln.needs_solve = ln.phase == Phase::kDc || ln.phase == Phase::kStep;
    }
    freeze_pivots();
    if (!pivot_frozen) {
      for (std::size_t L = 0; L < K; ++L) {
        if (lane[L].needs_solve) {
          lane[L].needs_solve = false;
          newton_fail(L);
        }
      }
      return;
    }
  }

  bool any_solve = false;
  for (std::size_t L = 0; L < K; ++L) {
    Lane& ln = lane[L];
    ln.needs_solve = false;
    if (ln.phase != Phase::kDc && ln.phase != Phase::kStep) continue;
    if (ln.force_fail && ln.attempt_t >= force_time) {
      newton_fail(L);
      continue;
    }
    if (ln.check_residual) {
      double max_res = 0.0;
      for (std::size_t i = 0; i < n_voltage; ++i) {
        max_res = std::max(max_res, std::fabs(f[i * K + L]));
      }
      if (max_res < ln.newton.itol) {
        newton_converged(L);
        continue;
      }
      ln.check_residual = false;
    }
    if (ln.nr_iter == ln.newton.max_iterations) {
      ++ln.stats.newton_failures;
      newton_fail(L);
      continue;
    }
    ++ln.nr_iter;
    ++ln.stats.newton_iterations;
    ln.needs_solve = true;
    any_solve = true;
  }
  if (!any_solve) return;

  for (std::size_t i = 0; i < n * K; ++i) rhs[i] = -f[i];

  std::fill(lu_ok.begin(), lu_ok.end(), std::uint8_t{0});
  for (std::size_t L = 0; L < K; ++L) {
    if (lane[L].needs_solve) lu_ok[L] = 1;
  }
  ++bstats.refactor_passes;
  const std::uint64_t t1 = now_ns();
  blu.refactor(j, soa_vals.data(), lu_ok);
  ns_refactor += now_ns() - t1;
  for (std::size_t L = 0; L < K; ++L) {
    Lane& ln = lane[L];
    if (!ln.needs_solve) continue;
    ++ln.stats.lu_refactorizations;
    ln.stats.sparse_nnz = j.nnz();
    if (!lu_ok[L]) {
      // The frozen pivot order no longer suits this lane; the scalar
      // solver would re-pivot, the batch retires the lane instead.
      ++ln.stats.newton_failures;
      ln.needs_solve = false;
      newton_fail(L);
    }
  }

  const std::uint64_t t2 = now_ns();
  blu.solve(rhs.data(), dx.data());
  ns_trisolve += now_ns() - t2;

  std::fill(maxdv.begin(), maxdv.end(), 0.0);
  for (std::size_t i = 0; i < n_voltage; ++i) {
    const double* dr = dx.data() + i * K;
    for (std::size_t L = 0; L < K; ++L) {
      maxdv[L] = std::max(maxdv[L], std::fabs(dr[L]));
    }
  }
  std::fill(damp.begin(), damp.end(), 0.0);
  for (std::size_t L = 0; L < K; ++L) {
    Lane& ln = lane[L];
    if (!ln.needs_solve) continue;
    bool finite = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(dx[i * K + L])) {
        finite = false;
        break;
      }
    }
    if (!finite) {
      ++ln.stats.lu_nonfinite;
      ++ln.stats.newton_failures;
      ln.needs_solve = false;
      newton_fail(L);
      continue;
    }
    damp[L] = maxdv[L] > ln.newton.max_step ? ln.newton.max_step / maxdv[L]
                                            : 1.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double* xr = x.data() + i * K;
    const double* dr = dx.data() + i * K;
    for (std::size_t L = 0; L < K; ++L) {
      // The select (not a multiply-by-zero mask) keeps NaN garbage in dead
      // lanes from contaminating x of lanes that converged this round.
      xr[L] = damp[L] != 0.0 ? xr[L] + damp[L] * dr[L] : xr[L];
    }
  }
  for (std::size_t L = 0; L < K; ++L) {
    Lane& ln = lane[L];
    if (!ln.needs_solve) continue;
    ln.check_residual = maxdv[L] * damp[L] < ln.newton.vtol;
  }
}

void BatchSimulator::Impl::newton_converged(std::size_t L) {
  if (lane[L].phase == Phase::kDc) {
    accept_dc(L);
  } else {
    accept_step(L);
  }
}

void BatchSimulator::Impl::newton_fail(std::size_t L) {
  Lane& ln = lane[L];
  if (ln.phase == Phase::kStep && ln.attempt_trap) {
    // In-batch retry at the same h with backward Euler, exactly the scalar
    // step loop's second attempt: restore the pre-step iterate and re-arm.
    for (std::size_t i = 0; i < n; ++i) x[i * K + L] = x_saved[i * K + L];
    ln.attempt_trap = false;
    ln.nr_iter = 0;
    ln.check_residual = false;
    ++ln.stats.newton_calls;
    refresh_template(L, ln.opt.gmin, 1.0, ln.h_try);
    lane_capmult[L] = 1.0;
    lane_trapmask[L] = 0.0;
    return;
  }
  // DC failure (the scalar path would climb the gmin/source ladder) or a
  // BE step failure (the scalar path would halve dt): retire the lane.
  ln.phase = Phase::kRetired;
}

void BatchSimulator::Impl::accept_dc(std::size_t L) {
  Lane& ln = lane[L];
  ln.dc_done = true;
  ln.newton = ln.opt.newton;
  for (std::size_t ci = 0; ci < cap_nodes.size(); ++ci) {
    const double* pa = node_ptr(cap_nodes[ci].a);
    const double* pb = node_ptr(cap_nodes[ci].b);
    cap_v[ci * K + L] = pa[L] - pb[L];
    cap_i[ci * K + L] = 0.0;
  }
  record(L, 0.0);
  while (ln.next_bp < ln.breakpoints.size() &&
         ln.breakpoints[ln.next_bp] <= 1e-18) {
    ++ln.next_bp;
  }
  ln.be_next = true;
  ln.t = 0.0;
  ln.phase = Phase::kIdle;
}

void BatchSimulator::Impl::accept_step(std::size_t L) {
  Lane& ln = lane[L];
  if (ln.want_trap && !ln.attempt_trap) ++ln.stats.be_fallbacks;
  refresh_cap_state(L, ln.h_try, ln.attempt_trap);
  ln.t += ln.h_try;
  ++ln.stats.steps_accepted;
  if (ln.stats.min_dt_used == 0.0 || ln.h_try < ln.stats.min_dt_used) {
    ln.stats.min_dt_used = ln.h_try;
  }
  record(L, ln.t);
  const bool completed_interval = ln.h_try >= ln.h - 1e-21;
  if (ln.hit_bp && completed_interval) {
    ++ln.next_bp;
    ++ln.stats.breakpoints_hit;
    ln.be_next = true;  // damp the new corner with one BE step
  } else {
    ln.be_next = false;
  }
  ln.phase = Phase::kIdle;
}

// Evaluate every source waveform for lane L at its current attempt time.
// Called whenever lane_t[L] changes (arm / arm_dc); the cached stripes are
// what assemble_round stamps, keeping Waveform::value() off the per-round
// hot path.
void BatchSimulator::Impl::refresh_sources(std::size_t L) {
  const double t = lane_t[L];
  const auto& isrcs = circuits[L].isources();
  for (std::size_t ii = 0; ii < isrc_nodes.size(); ++ii) {
    isrc_val[ii * K + L] = isrcs[ii].wave.value(t);
  }
  const auto& vsrcs = circuits[L].vsources();
  for (std::size_t si = 0; si < vsrc_nodes.size(); ++si) {
    vsrc_val[si * K + L] = vsrcs[si].wave.value(t);
  }
}

void BatchSimulator::Impl::arm_dc(std::size_t L) {
  Lane& ln = lane[L];
  for (std::size_t i = 0; i < n; ++i) x[i * K + L] = 0.0;
  // The scalar run_transient boosts the DC iteration cap to >= 120, and
  // dc_solve's first rung raises it again for small damping steps; the
  // batch runs only that first plain-Newton rung (ladder -> fallback).
  ln.newton = ln.opt.newton;
  ln.newton.max_iterations = std::max(ln.newton.max_iterations, 120);
  ln.newton.max_iterations =
      std::max(ln.newton.max_iterations,
               static_cast<int>(600.0 * 0.02 / ln.newton.max_step));
  ++ln.stats.dc_solves;
  ++ln.stats.newton_calls;
  ln.nr_iter = 0;
  ln.check_residual = false;
  ln.attempt_t = 0.0;
  lane_t[L] = 0.0;
  refresh_sources(L);
  lane_gmin[L] = 1e-12;
  lane_h[L] = 1.0;
  lane_capmult[L] = 0.0;
  lane_trapmask[L] = 0.0;
  refresh_template(L, 1e-12, 0.0, 1.0);
  ln.phase = Phase::kDc;
}

void BatchSimulator::Impl::arm(std::size_t L) {
  Lane& ln = lane[L];
  if (!ln.dc_done) {
    arm_dc(L);
    return;
  }
  // Mirror of the scalar transient loop's step-selection preamble.
  while (true) {
    if (ln.t >= ln.opt.t_end - 1e-18) {
      ln.phase = Phase::kDone;
      return;
    }
    double h = ln.opt.dt;
    ln.hit_bp = false;
    if (ln.next_bp < ln.breakpoints.size() &&
        ln.t + h >= ln.breakpoints[ln.next_bp] - 1e-18) {
      h = ln.breakpoints[ln.next_bp] - ln.t;
      ln.hit_bp = true;
    }
    if (ln.t + h > ln.opt.t_end) h = ln.opt.t_end - ln.t;
    if (h <= 0.0) {
      ++ln.next_bp;
      continue;
    }
    if (h < ln.opt.dt_min) {
      // Sub-resolution sliver before a breakpoint: advance without solving.
      ln.t += h;
      if (ln.hit_bp) ++ln.next_bp;
      ln.be_next = true;
      continue;
    }
    ln.h = h;
    ln.h_try = h;
    ln.want_trap = ln.opt.trapezoidal && !ln.be_next;
    ln.attempt_trap = ln.want_trap;
    for (std::size_t i = 0; i < n; ++i) x_saved[i * K + L] = x[i * K + L];
    ln.attempt_t = ln.t + h;
    lane_t[L] = ln.attempt_t;
    refresh_sources(L);
    ln.nr_iter = 0;
    ln.check_residual = false;
    ++ln.stats.newton_calls;
    lane_gmin[L] = ln.opt.gmin;
    lane_h[L] = h;
    lane_capmult[L] = ln.attempt_trap ? 2.0 : 1.0;
    lane_trapmask[L] = ln.attempt_trap ? 1.0 : 0.0;
    refresh_template(L, ln.opt.gmin, lane_capmult[L], h);
    ln.phase = Phase::kStep;
    return;
  }
}

void BatchSimulator::Impl::record(std::size_t L, double t) {
  Lane& ln = lane[L];
  if (ln.opt.stream_tap != nullptr && n_nodes > 1) {
    for (std::size_t i = 0; i < n_voltage; ++i) tap_buf[i] = x[i * K + L];
    ln.opt.stream_tap->on_step(t, tap_buf.data(), n_voltage);
  }
  if (obs::timeline().enabled()) obs::timeline().on_sim_time(t);
  if (!ln.opt.record_waveforms) return;
  ln.result.time.push_back(t);
  ln.result.node_v[0].push_back(0.0);
  for (std::size_t i = 1; i < n_nodes; ++i) {
    ln.result.node_v[i].push_back(x[(i - 1) * K + L]);
  }
  for (std::size_t s = 0; s < vsrc_nodes.size(); ++s) {
    ln.result.vsrc_i[s].push_back(x[(n_voltage + s) * K + L]);
  }
}

void BatchSimulator::Impl::refresh_cap_state(std::size_t L, double h,
                                             bool used_trap) {
  for (std::size_t ci = 0; ci < cap_nodes.size(); ++ci) {
    const double* pa = node_ptr(cap_nodes[ci].a);
    const double* pb = node_ptr(cap_nodes[ci].b);
    const double v_now = pa[L] - pb[L];
    const double c = cap_c[ci * K + L];
    double& iv = cap_i[ci * K + L];
    double& vv = cap_v[ci * K + L];
    if (used_trap) {
      iv = (2.0 * c / h) * (v_now - vv) - iv;
    } else {
      iv = (c / h) * (v_now - vv);
    }
    vv = v_now;
  }
}

BatchSimulator::BatchSimulator(std::vector<Circuit> lanes)
    : impl_(std::make_unique<Impl>()) {
  impl_->K = lane_count_checked(lanes);
  impl_->circuits = std::move(lanes);
  impl_->build_structure();
}

BatchSimulator::~BatchSimulator() = default;
BatchSimulator::BatchSimulator(BatchSimulator&&) noexcept = default;
BatchSimulator& BatchSimulator::operator=(BatchSimulator&&) noexcept = default;

std::size_t BatchSimulator::lanes() const { return impl_->K; }

const BatchRunStats& BatchSimulator::last_batch_stats() const {
  return impl_->bstats;
}

void BatchSimulator::force_step_rejection_for_test(std::size_t lane,
                                                   double t) {
  impl_->force_lane = lane;
  impl_->force_time = t;
}

std::vector<BatchLaneOutcome> BatchSimulator::run_transients(
    const std::vector<TransientOptions>& options) {
  Impl& im = *impl_;
  const std::size_t K = im.K;
  sks::check(options.size() == K || options.size() == 1,
             "BatchSimulator: expected 1 or ", K, " TransientOptions, got ",
             options.size());

  const obs::Stopwatch wall;
  static obs::TimerStat& batch_timer =
      obs::registry().timer("esim.batch_transients");
  obs::Span span("esim.batch_transients", batch_timer);
  span.arg("lanes", static_cast<double>(K));

  im.bstats = BatchRunStats{};
  im.bstats.lanes = K;
  im.pivot_frozen = false;
  im.soa_stale = true;
  std::fill(im.tpl_valid.begin(), im.tpl_valid.end(), std::uint8_t{0});
  std::fill(im.x.begin(), im.x.end(), 0.0);
  std::fill(im.cap_v.begin(), im.cap_v.end(), 0.0);
  std::fill(im.cap_i.begin(), im.cap_i.end(), 0.0);

  for (std::size_t L = 0; L < K; ++L) {
    Impl::Lane& ln = im.lane[L];
    ln = Impl::Lane{};
    ln.opt = options.size() == 1 ? options[0] : options[L];
    sks::check(ln.opt.t_end > 0.0, "run_transients: t_end must be positive");
    sks::check(ln.opt.dt > 0.0, "run_transients: dt must be positive");
    ln.newton = ln.opt.newton;
    ln.result.node_v.resize(im.n_nodes);
    ln.result.vsrc_i.resize(im.vsrc_nodes.size());
    ln.force_fail = L == im.force_lane;
    // Breakpoints from this lane's own source waveforms (lanes keep their
    // own time grids; only the Newton rounds are in lockstep).
    for (const auto& v : im.circuits[L].vsources()) {
      const auto bp = v.wave.breakpoints(ln.opt.t_end);
      ln.breakpoints.insert(ln.breakpoints.end(), bp.begin(), bp.end());
    }
    for (const auto& isrc : im.circuits[L].isources()) {
      const auto bp = isrc.wave.breakpoints(ln.opt.t_end);
      ln.breakpoints.insert(ln.breakpoints.end(), bp.begin(), bp.end());
    }
    ln.breakpoints.push_back(ln.opt.t_end);
    std::sort(ln.breakpoints.begin(), ln.breakpoints.end());
    ln.breakpoints.erase(
        std::unique(ln.breakpoints.begin(), ln.breakpoints.end(),
                    [](double a, double b) { return std::fabs(a - b) < 1e-18; }),
        ln.breakpoints.end());
    if (ln.opt.record_waveforms) {
      const std::size_t est_steps =
          static_cast<std::size_t>(ln.opt.t_end / ln.opt.dt) +
          2 * ln.breakpoints.size() + 4;
      ln.result.time.reserve(est_steps);
      for (auto& v : ln.result.node_v) v.reserve(est_steps);
      for (auto& v : ln.result.vsrc_i) v.reserve(est_steps);
    }
    if (ln.opt.adaptive) {
      // The batch locks steps for the fixed-dt schedule only; adaptive
      // lanes go straight to the scalar solver.
      ln.phase = Impl::Phase::kRetired;
    } else {
      ln.phase = Impl::Phase::kIdle;
    }
  }

  while (true) {
    for (std::size_t L = 0; L < K; ++L) {
      if (im.lane[L].phase == Impl::Phase::kIdle) im.arm(L);
    }
    bool any_active = false;
    for (std::size_t L = 0; L < K; ++L) {
      if (im.lane[L].phase == Impl::Phase::kDc ||
          im.lane[L].phase == Impl::Phase::kStep) {
        any_active = true;
        break;
      }
    }
    if (!any_active) break;
    im.newton_round();
  }

  const double wall_s = wall.seconds();
  std::vector<BatchLaneOutcome> out(K);
  for (std::size_t L = 0; L < K; ++L) {
    Impl::Lane& ln = im.lane[L];
    BatchLaneOutcome& o = out[L];
    if (ln.phase == Impl::Phase::kDone) {
      ln.stats.wall_seconds = wall_s / static_cast<double>(K);
      ln.result.stats = ln.stats;
      mirror_stats_to_registry(ln.stats);
      o.result = std::move(ln.result);
      o.simulated = true;
      continue;
    }
    // Retired lane: re-run on the scalar Simulator — the golden path, with
    // its DC continuation ladder, dt halving, ConvergenceError payloads
    // and postmortem bundles — and splice the result back in lane order.
    ++im.bstats.fallbacks;
    o.fell_back = true;
    Simulator scalar(im.circuits[L]);
    try {
      o.result = scalar.run_transient(ln.opt);
      o.simulated = true;
    } catch (const ConvergenceError& e) {
      o.simulated = false;
      o.failure = e.what();
      o.bundle = e.bundle_path();
    }
  }

  static obs::TimerStat& t_assemble =
      obs::registry().timer("esim.batch_assemble");
  static obs::TimerStat& t_refactor =
      obs::registry().timer("esim.batch_refactor");
  static obs::TimerStat& t_trisolve =
      obs::registry().timer("esim.batch_trisolve");
  t_assemble.record_ns(im.ns_assemble);
  t_refactor.record_ns(im.ns_refactor);
  t_trisolve.record_ns(im.ns_trisolve);
  im.ns_assemble = im.ns_refactor = im.ns_trisolve = 0;

  static obs::Counter& c_lanes = obs::registry().counter("batch.lanes");
  static obs::Counter& c_fallbacks =
      obs::registry().counter("batch.fallbacks");
  static obs::Counter& c_refactor =
      obs::registry().counter("batch.refactorizations");
  c_lanes.inc(im.bstats.lanes);
  c_fallbacks.inc(im.bstats.fallbacks);
  c_refactor.inc(im.bstats.refactor_passes);
  if (obs::enabled()) {
    static obs::Gauge& soa_gauge =
        obs::registry().gauge("mem.batch_soa_bytes");
    obs::record_peak_bytes(soa_gauge, static_cast<double>(im.soa_bytes()));
  }
  span.arg("fallbacks", static_cast<double>(im.bstats.fallbacks))
      .arg("refactor_passes", static_cast<double>(im.bstats.refactor_passes));
  return out;
}

std::size_t resolve_batch_lanes(std::size_t requested,
                                std::size_t auto_default) {
  std::size_t lanes = requested;
  if (lanes == 0) {
    lanes = auto_default;
    if (const char* env = std::getenv("SKS_BATCH")) {
      const std::string_view v(env);
      if (v == "off" || v == "0" || v == "1") {
        lanes = 1;
      } else {
        char* end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 2) {
          lanes = static_cast<std::size_t>(parsed);
        }
      }
    }
  }
  if (lanes == 0) lanes = 1;
  return std::min(lanes, kMaxBatchLanes);
}

}  // namespace sks::esim
