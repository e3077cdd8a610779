#include "la/gmres.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/cholesky.hpp"
#include "la/precond.hpp"

namespace ms::la {
namespace {

CsrMatrix spd_tridiag(idx_t n) {
  TripletList t(n, n);
  for (idx_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0);
    if (i > 0) t.add(i, i - 1, -1.0);
    if (i + 1 < n) t.add(i, i + 1, -1.0);
  }
  return CsrMatrix::from_triplets(t);
}

/// Nonsymmetric but well-conditioned: tridiagonal with drift.
CsrMatrix nonsymmetric(idx_t n) {
  TripletList t(n, n);
  for (idx_t i = 0; i < n; ++i) {
    t.add(i, i, 5.0);
    if (i > 0) t.add(i, i - 1, -2.0);
    if (i + 1 < n) t.add(i, i + 1, -1.0);
  }
  return CsrMatrix::from_triplets(t);
}

Vec rhs_of(idx_t n) {
  Vec b(n);
  for (idx_t i = 0; i < n; ++i) b[i] = std::cos(0.2 * i);
  return b;
}

TEST(Gmres, SolvesSpdSystem) {
  const CsrMatrix a = spd_tridiag(50);
  const Vec b = rhs_of(50);
  const Vec x_ref = SparseCholesky(a).solve(b);
  Vec x;
  GmresOptions options;
  options.rel_tol = 1e-12;
  const IterativeResult result = gmres(a, b, x, nullptr, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(max_abs_diff(x, x_ref), 1e-9);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  const CsrMatrix a = nonsymmetric(60);
  Vec x_true(60);
  for (idx_t i = 0; i < 60; ++i) x_true[i] = std::sin(0.1 * i);
  Vec b;
  a.mul(x_true, b);
  Vec x;
  GmresOptions options;
  options.rel_tol = 1e-12;
  const IterativeResult result = gmres(a, b, x, nullptr, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-8);
}

class GmresRestart : public ::testing::TestWithParam<int> {};

TEST_P(GmresRestart, ConvergesAcrossRestartLengths) {
  const CsrMatrix a = nonsymmetric(40);
  const Vec b = rhs_of(40);
  Vec x;
  GmresOptions options;
  options.rel_tol = 1e-10;
  options.restart = GetParam();
  options.max_iterations = 5000;
  const IterativeResult result = gmres(a, b, x, nullptr, options);
  EXPECT_TRUE(result.converged) << "restart=" << GetParam();
  Vec ax;
  a.mul(x, ax);
  EXPECT_LT(max_abs_diff(ax, b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Restarts, GmresRestart, ::testing::Values(3, 5, 10, 40));

TEST(Gmres, PreconditionedConvergesFaster) {
  const CsrMatrix a = spd_tridiag(80);
  const Vec b = rhs_of(80);
  GmresOptions options;
  options.rel_tol = 1e-10;
  Vec x1, x2;
  const IterativeResult plain = gmres(a, b, x1, nullptr, options);
  auto jacobi =
      make_preconditioner(PreconditionerKind::kJacobi, [&a] { return a.diagonal(); }, &a);
  const IterativeResult pre = gmres(a, b, x2, jacobi.get(), options);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LE(pre.iterations, plain.iterations + 2);
}

TEST(Gmres, ZeroRhsShortCircuits) {
  const CsrMatrix a = spd_tridiag(10);
  Vec x;
  const IterativeResult result = gmres(a, Vec(10, 0.0), x, nullptr, {});
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

TEST(Gmres, AgreesWithCholeskyToTolerance) {
  const CsrMatrix a = spd_tridiag(30);
  const Vec b = rhs_of(30);
  const Vec x_ref = SparseCholesky(a).solve(b);
  Vec x;
  GmresOptions options;
  options.rel_tol = 1e-13;
  gmres(a, b, x, nullptr, options);
  EXPECT_LT(max_abs_diff(x, x_ref), 1e-9);
}

}  // namespace
}  // namespace ms::la
