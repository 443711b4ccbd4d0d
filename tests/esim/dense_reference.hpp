// Test-only dense reference solver for the MNA system.
//
// The engine runs every solve on its sparse stamp plan (esim/engine.hpp).
// The tests check it against an implementation that shares none of that
// machinery: a dense LU with partial pivoting, a stamp loop that walks the
// public Circuit API device by device, and a Newton loop with the engine's
// damping and convergence rules.
#pragma once

#include <cstddef>
#include <vector>

#include "esim/engine.hpp"

namespace sks::esim {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

  std::size_t size() const { return n_; }
  double& at(std::size_t r, std::size_t c) { return data_[r * n_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * n_ + c]; }
  void clear();

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

// Outcome of a dense solve.  kSingular (no pivot above the 1e-30 floor, the
// same floor SparseLu uses) and kNonFinite (an overflow/NaN surfaced during
// back substitution) are kept apart.
enum class LuStatus { kOk, kSingular, kNonFinite };

// Solve A x = b in place (A and b are destroyed).
LuStatus lu_solve(DenseMatrix& a, std::vector<double>& b,
                  std::vector<double>& x_out);

// KCL residual F and Jacobian J of `circuit` at the unknown vector x (node
// voltages of nodes 1..N-1, then one branch current per voltage source).
// `h <= 0` is DC (capacitors open); otherwise capacitors use the
// backward-Euler companion model around their previous voltages
// `cap_prev_v`.
void assemble_dense(const Circuit& circuit, const std::vector<double>& x,
                    double t, double h, const std::vector<double>& cap_prev_v,
                    double gmin, std::vector<double>& f_out,
                    DenseMatrix& j_out);

// Newton solve of that system from the starting point x, with the engine's
// voltage-update clamp and vtol/itol convergence test.  Returns true on
// convergence, x updated in place.
bool dense_newton_solve(const Circuit& circuit, std::vector<double>& x,
                        double t, double h,
                        const std::vector<double>& cap_prev_v, double gmin,
                        const NewtonOptions& options);

}  // namespace sks::esim
