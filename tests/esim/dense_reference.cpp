#include "dense_reference.hpp"

#include <algorithm>
#include <cmath>

namespace sks::esim {

void DenseMatrix::clear() { std::fill(data_.begin(), data_.end(), 0.0); }

LuStatus lu_solve(DenseMatrix& a, std::vector<double>& b,
                  std::vector<double>& x_out) {
  const std::size_t n = a.size();
  if (b.size() != n) return LuStatus::kSingular;
  x_out.assign(n, 0.0);

  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  // LU factorization with partial pivoting, operating on logical rows
  // through the permutation vector.
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::fabs(a.at(perm[k], k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double cand = std::fabs(a.at(perm[r], k));
      if (cand > best) {
        best = cand;
        pivot = r;
      }
    }
    if (best < 1e-30) return LuStatus::kSingular;
    std::swap(perm[k], perm[pivot]);

    const double akk = a.at(perm[k], k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a.at(perm[r], k) / akk;
      if (factor == 0.0) continue;
      a.at(perm[r], k) = factor;  // store L
      for (std::size_t c = k + 1; c < n; ++c) {
        a.at(perm[r], c) -= factor * a.at(perm[k], c);
      }
      b[perm[r]] -= factor * b[perm[k]];
    }
  }

  for (std::size_t ki = n; ki-- > 0;) {
    double sum = b[perm[ki]];
    for (std::size_t c = ki + 1; c < n; ++c) {
      sum -= a.at(perm[ki], c) * x_out[c];
    }
    x_out[ki] = sum / a.at(perm[ki], ki);
    if (!std::isfinite(x_out[ki])) return LuStatus::kNonFinite;
  }
  return LuStatus::kOk;
}

namespace {

// Voltage of a node given the unknown vector (ground is 0 V).
double node_v(const std::vector<double>& x, NodeId n) {
  return n.index == 0 ? 0.0 : x[n.index - 1];
}

}  // namespace

void assemble_dense(const Circuit& circuit, const std::vector<double>& x,
                    double t, double h, const std::vector<double>& cap_prev_v,
                    double gmin, std::vector<double>& f_out,
                    DenseMatrix& j_out) {
  const std::size_t n_voltage = circuit.node_count() - 1;
  const std::size_t n_unknowns = n_voltage + circuit.vsources().size();
  f_out.assign(n_unknowns, 0.0);
  if (j_out.size() != n_unknowns) j_out = DenseMatrix(n_unknowns);
  j_out.clear();

  const auto stamp_f = [&](NodeId n, double current) {
    if (n.index != 0) f_out[n.index - 1] += current;
  };
  const auto stamp_j = [&](NodeId row, NodeId col, double g) {
    if (row.index != 0 && col.index != 0) {
      j_out.at(row.index - 1, col.index - 1) += g;
    }
  };
  // Two-terminal conductance g carrying current i from a to b.
  const auto stamp_branch = [&](NodeId a, NodeId b, double i, double g) {
    stamp_f(a, i);
    stamp_f(b, -i);
    stamp_j(a, a, g);
    stamp_j(a, b, -g);
    stamp_j(b, a, -g);
    stamp_j(b, b, g);
  };

  for (std::size_t i = 0; i < n_voltage; ++i) {
    f_out[i] += gmin * x[i];
    j_out.at(i, i) += gmin;
  }

  for (const auto& r : circuit.resistors()) {
    const double g = 1.0 / r.resistance;
    stamp_branch(r.a, r.b, g * (node_v(x, r.a) - node_v(x, r.b)), g);
  }

  if (h > 0.0) {
    const auto& caps = circuit.capacitors();
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      const auto& c = caps[ci];
      const double geq = c.capacitance / h;
      const double v = node_v(x, c.a) - node_v(x, c.b);
      stamp_branch(c.a, c.b, geq * (v - cap_prev_v[ci]), geq);
    }
  }

  for (const auto& m : circuit.mosfets()) {
    const MosEval e = eval_mosfet(m.params, m.fault, node_v(x, m.gate),
                                  node_v(x, m.drain), node_v(x, m.source));
    const double gms = -(e.gm + e.gds);  // dId/dVs
    stamp_f(m.drain, e.id);
    stamp_f(m.source, -e.id);
    stamp_j(m.drain, m.gate, e.gm);
    stamp_j(m.drain, m.drain, e.gds);
    stamp_j(m.drain, m.source, gms);
    stamp_j(m.source, m.gate, -e.gm);
    stamp_j(m.source, m.drain, -e.gds);
    stamp_j(m.source, m.source, -gms);
  }

  // Independent current sources: I(t) flows out of `from`, into `to`.
  for (const auto& isrc : circuit.isources()) {
    const double i = isrc.wave.value(t);
    stamp_f(isrc.from, i);
    stamp_f(isrc.to, -i);
  }

  // Voltage sources: the branch current leaves the positive node, and the
  // constraint row pins v_pos - v_neg to the source value.
  const auto& vsrcs = circuit.vsources();
  for (std::size_t si = 0; si < vsrcs.size(); ++si) {
    const auto& v = vsrcs[si];
    const std::size_t bi = n_voltage + si;
    stamp_f(v.pos, x[bi]);
    stamp_f(v.neg, -x[bi]);
    f_out[bi] = node_v(x, v.pos) - node_v(x, v.neg) - v.wave.value(t);
    if (v.pos.index != 0) {
      j_out.at(v.pos.index - 1, bi) += 1.0;
      j_out.at(bi, v.pos.index - 1) += 1.0;
    }
    if (v.neg.index != 0) {
      j_out.at(v.neg.index - 1, bi) -= 1.0;
      j_out.at(bi, v.neg.index - 1) -= 1.0;
    }
  }
}

bool dense_newton_solve(const Circuit& circuit, std::vector<double>& x,
                        double t, double h,
                        const std::vector<double>& cap_prev_v, double gmin,
                        const NewtonOptions& options) {
  const std::size_t n_voltage = circuit.node_count() - 1;
  std::vector<double> f, dx;
  DenseMatrix j;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    assemble_dense(circuit, x, t, h, cap_prev_v, gmin, f, j);
    for (double& v : f) v = -v;
    if (lu_solve(j, f, dx) != LuStatus::kOk) return false;
    double max_dv = 0.0;
    for (std::size_t i = 0; i < n_voltage; ++i) {
      max_dv = std::max(max_dv, std::fabs(dx[i]));
    }
    if (!std::isfinite(max_dv)) return false;
    const double damping =
        max_dv > options.max_step ? options.max_step / max_dv : 1.0;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += damping * dx[i];
    if (max_dv * damping < options.vtol) {
      assemble_dense(circuit, x, t, h, cap_prev_v, gmin, f, j);
      double max_res = 0.0;
      for (std::size_t i = 0; i < n_voltage; ++i) {
        max_res = std::max(max_res, std::fabs(f[i]));
      }
      if (max_res < options.itol) return true;
    }
  }
  return false;
}

}  // namespace sks::esim
