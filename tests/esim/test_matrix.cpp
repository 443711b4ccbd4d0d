// The test-only dense reference LU the engine's solvers are checked against.
#include <gtest/gtest.h>

#include <cmath>

#include "dense_reference.hpp"
#include "util/prng.hpp"

namespace sks::esim {
namespace {

TEST(Matrix, SolvesIdentity) {
  DenseMatrix a(3);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  std::vector<double> b{1.0, 2.0, 3.0};
  std::vector<double> x;
  ASSERT_EQ(lu_solve(a, b, x), LuStatus::kOk);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(Matrix, Solves2x2) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  DenseMatrix a(2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  std::vector<double> b{5.0, 10.0};
  std::vector<double> x;
  ASSERT_EQ(lu_solve(a, b, x), LuStatus::kOk);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, PivotingHandlesZeroDiagonal) {
  // Leading zero forces a row swap.
  DenseMatrix a(2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  std::vector<double> b{2.0, 3.0};
  std::vector<double> x;
  ASSERT_EQ(lu_solve(a, b, x), LuStatus::kOk);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Matrix, DetectsSingular) {
  DenseMatrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  std::vector<double> b{1.0, 2.0};
  std::vector<double> x;
  EXPECT_EQ(lu_solve(a, b, x), LuStatus::kSingular);
}

TEST(Matrix, RejectsSizeMismatch) {
  DenseMatrix a(2);
  std::vector<double> b{1.0};
  std::vector<double> x;
  EXPECT_EQ(lu_solve(a, b, x), LuStatus::kSingular);
}

TEST(Matrix, ClassifiesNonFiniteSeparately) {
  // A pivot just above the singularity floor with a huge RHS overflows in
  // back substitution: that is kNonFinite (ill-scaled), not kSingular.
  DenseMatrix a(1);
  a.at(0, 0) = 1e-30;
  std::vector<double> b{1e300};
  std::vector<double> x;
  EXPECT_EQ(lu_solve(a, b, x), LuStatus::kNonFinite);
}

TEST(Matrix, ClearZeroes) {
  DenseMatrix a(2);
  a.at(0, 0) = 5.0;
  a.clear();
  EXPECT_EQ(a.at(0, 0), 0.0);
}

// Property test: random diagonally-dominant systems solve to small residual.
class MatrixRandom : public ::testing::TestWithParam<int> {};

TEST_P(MatrixRandom, ResidualIsSmall) {
  util::Prng prng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 12;
  DenseMatrix a(n);
  std::vector<std::vector<double>> a_copy(n, std::vector<double>(n));
  for (std::size_t r = 0; r < n; ++r) {
    double offsum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      const double v = prng.uniform(-1.0, 1.0);
      a.at(r, c) = v;
      a_copy[r][c] = v;
      offsum += std::fabs(v);
    }
    const double diag = offsum + prng.uniform(0.5, 2.0);
    a.at(r, r) = diag;
    a_copy[r][r] = diag;
  }
  std::vector<double> b(n);
  for (auto& v : b) v = prng.uniform(-10.0, 10.0);
  const std::vector<double> b_copy = b;

  std::vector<double> x;
  ASSERT_EQ(lu_solve(a, b, x), LuStatus::kOk);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) sum += a_copy[r][c] * x[c];
    EXPECT_NEAR(sum, b_copy[r], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixRandom, ::testing::Range(1, 13));

}  // namespace
}  // namespace sks::esim
