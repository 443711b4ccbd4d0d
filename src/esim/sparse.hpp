// Sparse linear algebra for the MNA solves.
//
// Clock-distribution circuits are extremely sparse (node degree <= 4 in an
// ACTreS-style tree), so a dense Jacobian would waste nearly all of its
// O(n^2) clear and O(n^3) LU work.  This header provides the two pieces
// every engine solve is built from:
//
//  * `SparseMatrix` — a compressed-sparse-column matrix whose *pattern* is
//    fixed at construction.  The engine's symbolic prepass resolves every
//    device stamp to a `slot()` (a direct index into `values()`), so
//    per-iteration assembly is a memcpy of a template plus a handful of
//    indexed writes — no (row, col) arithmetic, no searches, no
//    allocations.  Stamps that touch the ground node write to
//    `dummy_slot()`, one extra value the solver never reads, which keeps
//    assembly branch-free.
//
//  * `SparseLu` — an LU factorization in three phases mirroring the
//    KLU/Gilbert-Peierls design: `analyze()` computes a fill-reducing
//    (minimum-degree) column ordering once; `factor()` performs the full
//    left-looking factorization with partial pivoting, recording the pivot
//    order and the fill pattern; `refactor()` redoes only the numeric work
//    on the frozen pattern and pivot order — the per-Newton-iteration fast
//    path — and reports `kPivotDegenerate` when a reused pivot has become
//    untrustworthy so the caller can fall back to a full `factor()`.
//
// A pivot magnitude below 1e-30 classifies the matrix as numerically
// singular — the same floor as the test-only dense reference LU the tests
// compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sks::esim {

class SparseMatrix {
 public:
  SparseMatrix() = default;
  // Build an n x n pattern from (row, col) entries; duplicates are merged.
  // Values start at zero.
  SparseMatrix(std::size_t n,
               std::vector<std::pair<std::uint32_t, std::uint32_t>> entries);

  std::size_t size() const { return n_; }
  std::size_t nnz() const { return row_.size(); }

  // Index into values() for entry (r, c), which must be in the pattern.
  std::size_t slot(std::size_t r, std::size_t c) const;
  // One extra writable value past nnz() that the solver never reads:
  // stamps involving the ground node target it so assembly needs no
  // branches.
  std::size_t dummy_slot() const { return row_.size(); }

  // nnz() + 1 values; the last is the dummy slot.
  double* values() { return values_.data(); }
  const double* values() const { return values_.data(); }
  std::size_t values_size() const { return values_.size(); }

  // Column-compressed pattern: rows of column c are
  // row()[col_ptr()[c] .. col_ptr()[c+1]), sorted ascending, and their
  // values live at the same indices of values().
  const std::vector<std::size_t>& col_ptr() const { return col_ptr_; }
  const std::vector<std::uint32_t>& row() const { return row_; }

  // Value at (r, c), 0.0 when outside the pattern.  For tests and
  // diagnostics, not the hot path.
  double at(std::size_t r, std::size_t c) const;

  // Heap footprint of the pattern + values (allocated capacity), for the
  // mem.* byte gauges.
  std::size_t memory_bytes() const {
    return col_ptr_.capacity() * sizeof(std::size_t) +
           row_.capacity() * sizeof(std::uint32_t) +
           values_.capacity() * sizeof(double);
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> col_ptr_;  // n + 1
  std::vector<std::uint32_t> row_;    // nnz, sorted within each column
  std::vector<double> values_;        // nnz + 1 (last = dummy slot)
};

// Fill-reducing elimination order of the symmetrized pattern (A + A^T,
// diagonal implied): classic minimum-degree with smallest-index
// tie-breaking, so the order is deterministic.  Exposed for tests.
std::vector<std::uint32_t> min_degree_order(const SparseMatrix& a);

// Structural fill of symbolically eliminating the symmetrized pattern in
// the given order: the number of new off-diagonal (undirected) adjacencies
// created.  `order` must be a permutation of 0..n-1 (throws sks::Error
// otherwise).  This is the quantity min_degree_order minimizes greedily;
// exposed so tests can compare orderings without running a numeric factor.
std::size_t symbolic_fill(const SparseMatrix& a,
                          const std::vector<std::uint32_t>& order);

enum class SparseLuStatus {
  kOk,
  kSingular,         // no acceptable pivot (|pivot| < 1e-30): matrix singular
  kPivotDegenerate,  // refactor only: a frozen pivot lost too much magnitude;
                     // retry with a full factor()
};

class BatchLu;

class SparseLu {
 public:
  // Phase 1 (once per pattern): fill-reducing column ordering.
  void analyze(const SparseMatrix& a);
  bool analyzed() const { return !q_.empty(); }

  // Phase 2: full left-looking factorization (partial pivoting), records
  // pivot order + fill pattern.  Requires analyze() on the same pattern.
  SparseLuStatus factor(const SparseMatrix& a);
  bool factored() const { return factored_; }

  // Phase 3 (the per-iteration fast path): numeric-only refactorization on
  // the frozen pivot order and pattern.  Never returns kSingular — a
  // too-small or too-degraded pivot yields kPivotDegenerate and leaves the
  // factors invalid until the next successful factor()/refactor().
  SparseLuStatus refactor(const SparseMatrix& a);

  // Solve A x = b with the current factors.  Uses internal scratch, hence
  // non-const; does not allocate after the first call at a given size.
  void solve(const std::vector<double>& b, std::vector<double>& x_out);

  // nnz(L) + nnz(U) including diagonals — the fill the ordering produced.
  std::size_t factor_nnz() const;

  // |U| diagonal extrema of the current factors (0 when not factored).
  // max/min is the cheap condition estimate the diagnostics layer exports;
  // max over the pre-factor max |A_ij| is the pivot growth.
  double udiag_min_abs() const;
  double udiag_max_abs() const;

  // Heap footprint of the factors + scratch (allocated capacity), for the
  // mem.* byte gauges.
  std::size_t memory_bytes() const;

 private:
  friend class BatchLu;

  void scatter_column(const SparseMatrix& a, std::size_t col);
  SparseLuStatus factor_column(const SparseMatrix& a, std::uint32_t jj);

  static constexpr std::uint32_t kNone = 0xffffffffu;
  // Refactor pivot acceptance: keep the frozen pivot while it retains at
  // least this fraction of its column's largest candidate magnitude
  // (KLU-style growth guard).
  static constexpr double kPivotTolerance = 1e-3;
  static constexpr double kSingularFloor = 1e-30;

  std::size_t n_ = 0;
  std::vector<std::uint32_t> q_;     // column order: column q_[jj] is jj-th
  std::vector<std::uint32_t> pinv_;  // original row -> pivot position
  std::vector<std::uint32_t> prow_;  // pivot position -> original row
  // L (unit diagonal implicit) and U in compressed-column form indexed by
  // pivot position jj.  L rows are original row ids; U "rows" are pivot
  // positions k < jj, stored ascending (a valid topological order, replayed
  // verbatim by refactor so factor and refactor round identically).
  std::vector<std::size_t> lp_, up_;
  std::vector<std::uint32_t> li_, ui_;
  std::vector<double> lx_, ux_;
  std::vector<double> udiag_;
  bool factored_ = false;

  // Scratch (sized n): sparse accumulator, reach marks and stacks.
  std::vector<double> x_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> reach_, dfs_stack_, dfs_pos_, pivotal_;
  std::vector<double> fwd_, bwd_;  // solve scratch
};

// Multi-lane companion of SparseLu for structure-identical matrix batches:
// replays the numeric refactorization and the triangular solves of ONE
// frozen symbolic factorization (column order, pivot order, L/U fill
// pattern) across K matrices stored structure-of-arrays — values laid out
// `slot * lanes + lane`, so every inner loop runs contiguously over the
// lane axis and auto-vectorizes.  There is no per-lane pivoting: a lane
// whose frozen pivot degenerates (same acceptance rule as
// SparseLu::refactor) is flagged in the `ok` mask and must be retired to a
// scalar solver by the caller; the other lanes are unaffected.  Flagged
// lanes keep being computed (their factors are garbage, possibly non-
// finite) — garbage stays confined to the lane because no cross-lane
// reduction ever mixes values.
class BatchLu {
 public:
  // Freeze the symbolic structure of a successfully factored reference.
  // Only the pattern is copied; call refactor() before solve().
  void attach(const SparseLu& reference, std::size_t lanes);
  bool attached() const { return lanes_ > 0; }
  std::size_t lanes() const { return lanes_; }

  // Numeric refactor of every lane from `soa_values` (the SoA view of
  // `pattern.values()`: `lanes` doubles per slot; the dummy slot is never
  // read).  `ok` must arrive sized `lanes`; entries already false are
  // computed but not re-validated, entries true are cleared when that
  // lane's pivot acceptance fails.
  void refactor(const SparseMatrix& pattern, const double* soa_values,
                std::vector<std::uint8_t>& ok);

  // Blocked multi-RHS solve: x[u * lanes + lane] solves lane `lane` for
  // b[u * lanes + lane].  Requires refactor(); b and x may not alias.
  void solve(const double* b_soa, double* x_soa);

  // Heap footprint of the frozen symbolic data + SoA factors + scratch
  // (allocated capacity), for the mem.* byte gauges.
  std::size_t memory_bytes() const;

 private:
  std::size_t n_ = 0;
  std::size_t lanes_ = 0;
  // Frozen symbolic data, copied from the reference (names as in SparseLu).
  std::vector<std::uint32_t> q_, pinv_, prow_;
  std::vector<std::size_t> lp_, up_;
  std::vector<std::uint32_t> li_, ui_;
  // SoA numeric factors: `lanes` doubles per L/U entry and per pivot.
  std::vector<double> lx_, ux_, udiag_;
  // Scratch: dense per-lane accumulator (n * lanes), solve buffers.
  std::vector<double> acc_, fwd_, bwd_, yk_, maxc_;
};

}  // namespace sks::esim
