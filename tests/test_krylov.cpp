#include "krylov/arnoldi.hpp"
#include "krylov/operator.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "la/dense_lu.hpp"
#include "la/error.hpp"
#include "la/expm.hpp"
#include "la/vector_ops.hpp"
#include "test_util.hpp"

namespace matex::krylov {
namespace {

using la::CscMatrix;
using la::DenseMatrix;
using la::index_t;
using la::TripletMatrix;

/// Small RC system: G = grid Laplacian + leak, C = diagonal capacitances.
struct RcSystem {
  CscMatrix c;
  CscMatrix g;
};

RcSystem make_rc(index_t rows, index_t cols, double cap = 1.0,
                 double cap_spread = 0.0, std::uint64_t seed = 1) {
  RcSystem sys;
  sys.g = matex::testing::grid_laplacian(rows, cols, 0.1);
  matex::testing::Rng rng(seed);
  TripletMatrix tc(sys.g.rows(), sys.g.cols());
  for (index_t i = 0; i < sys.g.rows(); ++i)
    tc.add(i, i, cap * (1.0 + cap_spread * rng.uniform()));
  sys.c = tc.to_csc();
  return sys;
}

/// Dense A = -C^{-1} G for reference computations.
DenseMatrix dense_a(const RcSystem& sys) {
  const std::size_t n = static_cast<std::size_t>(sys.g.rows());
  const auto gd = sys.g.to_dense_column_major();
  const auto cd = sys.c.to_dense_column_major();
  DenseMatrix gdm(n, n, std::vector<double>(gd.begin(), gd.end()));
  DenseMatrix cdm(n, n, std::vector<double>(cd.begin(), cd.end()));
  DenseMatrix a = la::DenseLU(cdm).solve(gdm);
  return a.scaled(-1.0);
}

TEST(CircuitOperator, KindNames) {
  EXPECT_STREQ(kind_name(KrylovKind::kStandard), "MEXP");
  EXPECT_STREQ(kind_name(KrylovKind::kInverted), "I-MATEX");
  EXPECT_STREQ(kind_name(KrylovKind::kRational), "R-MATEX");
}

TEST(CircuitOperator, RationalRequiresPositiveGamma) {
  const auto sys = make_rc(2, 2);
  EXPECT_THROW(CircuitOperator(sys.c, sys.g, KrylovKind::kRational, 0.0),
               InvalidArgument);
  EXPECT_THROW(CircuitOperator(sys.c, sys.g, KrylovKind::kRational, -1.0),
               InvalidArgument);
}

TEST(CircuitOperator, DimensionMismatchThrows) {
  const auto sys = make_rc(2, 2);
  const auto g3 = matex::testing::grid_laplacian(3, 3);
  EXPECT_THROW(CircuitOperator(sys.c, g3, KrylovKind::kInverted),
               InvalidArgument);
}

TEST(CircuitOperator, StandardApplyMatchesDenseA) {
  const auto sys = make_rc(3, 3);
  const auto a = dense_a(sys);
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kStandard);
  matex::testing::Rng rng(2);
  const auto x = matex::testing::random_vector(9, rng);
  std::vector<double> y(9), yref(9);
  op.apply(x, y);
  a.multiply(x, yref);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(y[i], yref[i], 1e-12);
}

TEST(CircuitOperator, InvertedApplyIsInverseOfStandard) {
  const auto sys = make_rc(3, 4);
  const CircuitOperator fwd(sys.c, sys.g, KrylovKind::kStandard);
  const CircuitOperator inv(sys.c, sys.g, KrylovKind::kInverted);
  matex::testing::Rng rng(3);
  const auto x = matex::testing::random_vector(12, rng);
  std::vector<double> y(12), z(12);
  fwd.apply(x, y);
  inv.apply(y, z);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(z[i], x[i], 1e-10);
}

TEST(CircuitOperator, RationalApplyMatchesShiftInvert) {
  const auto sys = make_rc(3, 3);
  const double gamma = 0.37;
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kRational, gamma);
  const auto a = dense_a(sys);
  // (I - gamma A) y = x  ->  y = op(x)
  DenseMatrix shifted = DenseMatrix::identity(9);
  shifted.add_scaled(-gamma, a);
  matex::testing::Rng rng(4);
  const auto x = matex::testing::random_vector(9, rng);
  std::vector<double> y(9);
  op.apply(x, y);
  const auto yref = la::DenseLU(shifted).solve(x);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(y[i], yref[i], 1e-11);
}

struct KindParam {
  KrylovKind kind;
  double gamma;
};

class ArnoldiKindTest : public ::testing::TestWithParam<KindParam> {};

TEST_P(ArnoldiKindTest, BasisIsOrthonormal) {
  const auto [kind, gamma] = GetParam();
  const auto sys = make_rc(4, 4, 1.0, 0.5);
  const CircuitOperator op(sys.c, sys.g, kind, gamma);
  matex::testing::Rng rng(5);
  const auto v0 = matex::testing::random_vector(16, rng);
  ArnoldiOptions opts;
  opts.max_dim = 10;
  opts.tolerance = 1e-30;  // force the full dimension
  const auto s = arnoldi(op, v0, 0.5, opts);
  ASSERT_GE(s.dim(), 10);
  for (int i = 0; i <= s.dim(); ++i)
    for (int j = 0; j <= s.dim(); ++j) {
      const double vivj = la::dot(s.basis_vector(i), s.basis_vector(j));
      EXPECT_NEAR(vivj, i == j ? 1.0 : 0.0, 1e-10)
          << "i=" << i << " j=" << j;
    }
}

TEST_P(ArnoldiKindTest, ArnoldiRelationHolds) {
  // Op * V_m = V_m H + h_{m+1,m} v_{m+1} e_m'
  const auto [kind, gamma] = GetParam();
  const auto sys = make_rc(3, 5, 1.0, 0.3);
  const std::size_t n = 15;
  const CircuitOperator op(sys.c, sys.g, kind, gamma);
  matex::testing::Rng rng(6);
  const auto v0 = matex::testing::random_vector(n, rng);
  ArnoldiOptions opts;
  opts.max_dim = 8;
  opts.tolerance = 1e-30;
  const auto s = arnoldi(op, v0, 0.5, opts);
  const int m = s.dim();
  const auto hproj = s.projected_hessenberg();
  for (int j = 0; j < m; ++j) {
    std::vector<double> lhs(n);
    op.apply(s.basis_vector(j), lhs);
    std::vector<double> rhs(n, 0.0);
    for (int i = 0; i < m; ++i)
      la::axpy(hproj(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
               s.basis_vector(i), rhs);
    if (j == m - 1)
      la::axpy(s.subdiagonal(), s.basis_vector(m), rhs);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(lhs[i], rhs[i], 1e-9) << "column " << j;
  }
}

TEST_P(ArnoldiKindTest, MatchesDenseMatrixExponential) {
  const auto [kind, gamma] = GetParam();
  const auto sys = make_rc(4, 4, 1.0, 0.4);
  const std::size_t n = 16;
  const CircuitOperator op(sys.c, sys.g, kind, gamma);
  const auto a = dense_a(sys);
  matex::testing::Rng rng(7);
  const auto v0 = matex::testing::random_vector(n, rng);
  const double h = 0.8;
  ArnoldiOptions opts;
  opts.max_dim = 16;
  opts.tolerance = 1e-12;
  const auto s = arnoldi(op, v0, h, opts);
  std::vector<double> y(n);
  s.evaluate(h, y);
  const auto yref = la::expm_apply(a, h, v0);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(y[i], yref[i], 1e-6 * (1.0 + std::abs(yref[i])));
}

TEST_P(ArnoldiKindTest, ZeroStartVectorIsTrivial) {
  const auto [kind, gamma] = GetParam();
  const auto sys = make_rc(3, 3);
  const CircuitOperator op(sys.c, sys.g, kind, gamma);
  const std::vector<double> v0(9, 0.0);
  const auto s = arnoldi(op, v0, 0.5);
  EXPECT_TRUE(s.trivial());
  EXPECT_TRUE(s.converged());
  std::vector<double> y(9, 99.0);
  EXPECT_DOUBLE_EQ(s.evaluate(0.5, y), 0.0);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// evaluate_rows must reproduce the listed rows of evaluate() bit for bit
/// (and return the same error estimate), whatever the row order.
void expect_rows_match_evaluate(const KrylovSubspace& s, double h,
                                std::size_t n) {
  std::vector<double> full(n);
  const double full_err = s.evaluate(h, full);
  std::vector<index_t> rows;
  for (std::size_t i = n; i-- > 0;) rows.push_back(static_cast<index_t>(i));
  rows.push_back(rows[1]);  // a duplicate
  rows.push_back(0);
  std::vector<double> part(rows.size(), 42.0);
  EXPECT_EQ(s.evaluate_rows(h, rows, part), full_err);
  for (std::size_t p = 0; p < rows.size(); ++p)
    EXPECT_EQ(part[p], full[static_cast<std::size_t>(rows[p])])
        << "row " << rows[p] << " h=" << h;
  std::vector<double> none;
  EXPECT_EQ(s.evaluate_rows(h, std::vector<index_t>{}, none), full_err);
}

TEST_P(ArnoldiKindTest, EvaluateRowsIsBitwiseEqualToEvaluate) {
  const auto [kind, gamma] = GetParam();
  const auto sys = make_rc(4, 4, 1.0, 0.4);
  const CircuitOperator op(sys.c, sys.g, kind, gamma);
  matex::testing::Rng rng(11);
  const auto v0 = matex::testing::random_vector(16, rng);
  ArnoldiOptions opts;
  opts.max_dim = 12;
  opts.tolerance = 1e-12;
  const auto s = arnoldi(op, v0, 0.8, opts);
  ASSERT_GT(s.dim(), 1);
  for (const double h : {0.0, 0.1, 0.35, 0.8})
    expect_rows_match_evaluate(s, h, 16);
  std::vector<double> wrong_size(3);
  EXPECT_THROW(
      s.evaluate_rows(0.1, std::vector<index_t>{0, 1}, wrong_size),
      InvalidArgument);
}

TEST_P(ArnoldiKindTest, EvaluateRowsOnTrivialSubspaceIsZero) {
  const auto [kind, gamma] = GetParam();
  const auto sys = make_rc(3, 3);
  const CircuitOperator op(sys.c, sys.g, kind, gamma);
  const auto s = arnoldi(op, std::vector<double>(9, 0.0), 0.5);
  ASSERT_TRUE(s.trivial());
  expect_rows_match_evaluate(s, 0.5, 9);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ArnoldiKindTest,
    ::testing::Values(KindParam{KrylovKind::kStandard, 0.0},
                      KindParam{KrylovKind::kInverted, 0.0},
                      KindParam{KrylovKind::kRational, 0.5},
                      KindParam{KrylovKind::kRational, 0.05}));

TEST(Arnoldi, HappyBreakdownOnEigenvector) {
  // For a diagonal system every unit vector is an eigenvector: the
  // subspace closes after one step and evaluation is exact.
  TripletMatrix tc(4, 4), tg(4, 4);
  for (index_t i = 0; i < 4; ++i) {
    tc.add(i, i, 1.0);
    tg.add(i, i, static_cast<double>(i + 1));
  }
  const auto c = tc.to_csc();
  const auto g = tg.to_csc();
  const CircuitOperator op(c, g, KrylovKind::kInverted);
  std::vector<double> v0{0.0, 1.0, 0.0, 0.0};
  const auto s = arnoldi(op, v0, 1.0);
  EXPECT_TRUE(s.breakdown());
  EXPECT_TRUE(s.converged());
  EXPECT_EQ(s.dim(), 1);
  std::vector<double> y(4);
  EXPECT_DOUBLE_EQ(s.evaluate(1.0, y), 0.0);
  EXPECT_NEAR(y[1], std::exp(-2.0), 1e-12);  // lambda = -g/c = -2
  EXPECT_NEAR(y[0], 0.0, 1e-15);
  expect_rows_match_evaluate(s, 1.0, 4);
  expect_rows_match_evaluate(s, 0.25, 4);
}

TEST(Arnoldi, BreakdownOnAlgebraicSubspaceDecaysToZero) {
  // Singular C (an algebraic unknown, as on vsource decks): a starting
  // vector in null(C) is annihilated by the inverted and rational
  // operators, so Arnoldi breaks down at m = 1 with a *singular*
  // projected transform H'. The corresponding eigenvalue of A is
  // -infinity; the evaluation must return the exact decayed limit 0
  // instead of throwing out of the H' inversion.
  TripletMatrix tc(2, 2), tg(2, 2);
  tc.add(0, 0, 1e-12);  // x0 dynamic, x1 algebraic (zero C row/col)
  tg.add(0, 0, 2.0);
  tg.add(0, 1, -1.0);
  tg.add(1, 0, -1.0);
  tg.add(1, 1, 2.0);
  const auto c = tc.to_csc();
  const auto g = tg.to_csc();
  const std::vector<double> v0{0.0, 1.0};  // pure null(C) direction
  for (const auto kind : {KrylovKind::kInverted, KrylovKind::kRational}) {
    const CircuitOperator op(c, g, kind, 1e-10);
    KrylovSubspace s;
    ASSERT_NO_THROW(s = arnoldi(op, v0, 1e-10)) << kind_name(kind);
    EXPECT_TRUE(s.breakdown()) << kind_name(kind);
    EXPECT_TRUE(s.converged()) << kind_name(kind);
    std::vector<double> y(2, 1.0);
    EXPECT_DOUBLE_EQ(s.evaluate(1e-10, y), 0.0) << kind_name(kind);
    EXPECT_NEAR(y[0], 0.0, 1e-12) << kind_name(kind);
    EXPECT_NEAR(y[1], 0.0, 1e-12) << kind_name(kind);
    expect_rows_match_evaluate(s, 1e-10, 2);
  }
}

TEST(Arnoldi, ErrorEstimateDrivesConvergence) {
  const auto sys = make_rc(5, 5, 1.0, 0.7);
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kRational, 0.3);
  matex::testing::Rng rng(8);
  const auto v0 = matex::testing::random_vector(25, rng);
  ArnoldiOptions loose, tight;
  loose.tolerance = 1e-3;
  tight.tolerance = 1e-11;
  loose.max_dim = tight.max_dim = 25;
  const auto sl = arnoldi(op, v0, 0.5, loose);
  const auto st = arnoldi(op, v0, 0.5, tight);
  EXPECT_TRUE(sl.converged());
  EXPECT_TRUE(st.converged());
  EXPECT_LE(sl.dim(), st.dim());
  EXPECT_LT(st.error_estimate(0.5), 1e-11);
}

TEST(Arnoldi, StallReportsNotConvergedOrThrows) {
  const auto sys = make_rc(6, 6, 1.0, 0.5);
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kStandard);
  matex::testing::Rng rng(9);
  const auto v0 = matex::testing::random_vector(36, rng);
  ArnoldiOptions opts;
  opts.max_dim = 2;
  opts.tolerance = 1e-14;
  const auto s = arnoldi(op, v0, 2.0, opts);
  EXPECT_FALSE(s.converged());
  opts.throw_on_stall = true;
  EXPECT_THROW(arnoldi(op, v0, 2.0, opts), NumericalError);
}

TEST(Arnoldi, ExtensionGrowsToConvergence) {
  const auto sys = make_rc(5, 4, 1.0, 0.5);
  const std::size_t n = 20;
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kRational, 0.2);
  matex::testing::Rng rng(10);
  const auto v0 = matex::testing::random_vector(n, rng);
  ArnoldiOptions small;
  small.max_dim = 2;
  small.tolerance = 1e-10;
  auto s = arnoldi(op, v0, 0.7, small);
  const int dim_before = s.dim();

  ArnoldiOptions big = small;
  big.max_dim = 20;
  EXPECT_TRUE(arnoldi_extend(s, 0.7, big));
  EXPECT_TRUE(s.converged());
  EXPECT_GE(s.dim(), dim_before);

  // The extended subspace matches the dense reference.
  std::vector<double> y(n);
  s.evaluate(0.7, y);
  const auto yref = la::expm_apply(dense_a(sys), 0.7, v0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], yref[i], 1e-7);
}

TEST(Arnoldi, ReuseAcrossStepSizes) {
  // One subspace evaluated at several h values matches dense expm: this
  // is the Krylov-reuse property of Sec. 2.4 / Alg. 2 line 11.
  const auto sys = make_rc(4, 5, 1.0, 0.6);
  const std::size_t n = 20;
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kRational, 0.5);
  const auto a = dense_a(sys);
  matex::testing::Rng rng(11);
  const auto v0 = matex::testing::random_vector(n, rng);
  ArnoldiOptions opts;
  opts.max_dim = 20;
  opts.tolerance = 1e-12;
  const auto s = arnoldi(op, v0, 1.0, opts);
  for (double h : {0.05, 0.2, 0.5, 0.8, 1.0}) {
    std::vector<double> y(n);
    s.evaluate(h, y);
    const auto yref = la::expm_apply(a, h, v0);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(y[i], yref[i], 1e-6 * (1.0 + std::abs(yref[i])))
          << "h=" << h;
  }
}

TEST(Arnoldi, RationalErrorDecreasesWithLargerStep) {
  // The Fig. 5 phenomenon: for fixed (small) m on a *stiff* system, the
  // true error of the rational Krylov approximation falls as h grows,
  // because larger steps make the small-magnitude eigenvalues -- which the
  // rational basis captures first -- increasingly dominant.
  const std::size_t n = 25;
  const auto g = matex::testing::grid_laplacian(5, 5, 0.2);
  TripletMatrix tc(25, 25);
  matex::testing::Rng rng(12);
  for (index_t i = 0; i < 25; ++i)
    tc.add(i, i, std::pow(10.0, -6.0 * rng.uniform()));  // C in [1e-6, 1]
  const auto c = tc.to_csc();
  RcSystem sys{c, g};
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kRational, 1.0);
  const auto a = dense_a(sys);
  const auto v0 = matex::testing::random_vector(n, rng);
  ArnoldiOptions opts;
  opts.max_dim = 6;  // deliberately small so the error is visible
  opts.tolerance = 1e-30;
  const auto s = arnoldi(op, v0, 1.0, opts);
  std::vector<double> errs;
  for (double h : {0.01, 0.1, 1.0}) {
    std::vector<double> y(n);
    s.evaluate(h, y);
    const auto yref = la::expm_apply(a, h, v0);
    errs.push_back(la::max_abs_diff(std::span<const double>(y),
                                    std::span<const double>(yref)));
  }
  EXPECT_GT(errs[0], errs[1]);
  EXPECT_GT(errs[1], errs[2]);
}

TEST(Arnoldi, StiffSystemStandardNeedsManyMoreVectorsThanRational) {
  // Table 1's driving phenomenon in miniature: spread capacitances create
  // stiffness; the standard basis needs a much larger m than the rational
  // basis for the same budget.
  TripletMatrix tc(36, 36);
  matex::testing::Rng rng(13);
  const auto g = matex::testing::grid_laplacian(6, 6, 0.2);
  for (index_t i = 0; i < 36; ++i)
    tc.add(i, i, std::pow(10.0, -6.0 * rng.uniform()));  // C in [1e-6, 1]
  const auto c = tc.to_csc();
  const CircuitOperator std_op(c, g, KrylovKind::kStandard);
  const CircuitOperator rat_op(c, g, KrylovKind::kRational, 0.01);
  const auto v0 = matex::testing::random_vector(36, rng);
  const double h = 0.01;
  ArnoldiOptions opts;
  opts.max_dim = 36;
  opts.tolerance = 1e-8;
  const auto s_std = arnoldi(std_op, v0, h, opts);
  const auto s_rat = arnoldi(rat_op, v0, h, opts);
  EXPECT_TRUE(s_rat.converged());
  EXPECT_LT(s_rat.dim(), s_std.dim());
}

TEST(Arnoldi, OperatorApplicationsAreCounted) {
  const auto sys = make_rc(3, 3);
  const CircuitOperator op(sys.c, sys.g, KrylovKind::kInverted);
  matex::testing::Rng rng(14);
  const auto v0 = matex::testing::random_vector(9, rng);
  ArnoldiOptions opts;
  opts.max_dim = 5;
  opts.tolerance = 1e-30;
  const auto s = arnoldi(op, v0, 0.5, opts);
  EXPECT_EQ(s.operator_applications(), s.dim());
}

}  // namespace
}  // namespace matex::krylov
