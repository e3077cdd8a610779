#include "la/precond.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

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

TEST(IdentityPreconditioner, IsIdentity) {
  IdentityPreconditioner m;
  Vec z;
  m.apply({1.0, -2.0, 3.0}, z);
  EXPECT_EQ(z, (Vec{1.0, -2.0, 3.0}));
  EXPECT_EQ(m.memory_bytes(), 0u);
}

TEST(JacobiPreconditioner, DividesByDiagonal) {
  const CsrMatrix a = spd_tridiag(3);
  JacobiPreconditioner m(a);
  Vec z;
  m.apply({4.0, 8.0, 12.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 2.0);
  EXPECT_DOUBLE_EQ(z[2], 3.0);
}

TEST(JacobiPreconditioner, ZeroDiagonalIsSafe) {
  TripletList t(2, 2);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);  // zero diagonal
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  JacobiPreconditioner m(a);
  Vec z;
  m.apply({5.0, 7.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
}

TEST(SsorPreconditioner, ExactForDiagonalMatrix) {
  // With no off-diagonals SSOR(omega=1) reduces to Jacobi.
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 1, 4.0);
  t.add(2, 2, 8.0);
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  SsorPreconditioner m(a);
  Vec z;
  m.apply({2.0, 4.0, 8.0}, z);
  EXPECT_NEAR(z[0], 1.0, 1e-14);
  EXPECT_NEAR(z[1], 1.0, 1e-14);
  EXPECT_NEAR(z[2], 1.0, 1e-14);
}

TEST(SsorPreconditioner, ApplyIsSymmetric) {
  // SSOR with symmetric A is a symmetric operator: <M^{-1}u, v> = <u, M^{-1}v>.
  const CsrMatrix a = spd_tridiag(8);
  SsorPreconditioner m(a);
  Vec u(8), v(8), mu, mv;
  for (idx_t i = 0; i < 8; ++i) {
    u[i] = std::sin(i + 1.0);
    v[i] = std::cos(2.0 * i);
  }
  m.apply(u, mu);
  m.apply(v, mv);
  EXPECT_NEAR(dot(mu, v), dot(u, mv), 1e-12);
}

TEST(SsorPreconditioner, RejectsBadOmega) {
  const CsrMatrix a = spd_tridiag(3);
  EXPECT_THROW(SsorPreconditioner(a, 0.0), std::invalid_argument);
  EXPECT_THROW(SsorPreconditioner(a, 2.0), std::invalid_argument);
}

TEST(MakePreconditioner, FactoryDispatch) {
  const CsrMatrix a = spd_tridiag(4);
  const auto make = [&a](const std::string& name) {
    return make_preconditioner(parse_preconditioner(name), [&a] { return a.diagonal(); }, &a);
  };
  EXPECT_NE(make("none"), nullptr);
  EXPECT_NE(make("jacobi"), nullptr);
  EXPECT_NE(make("ssor"), nullptr);
  EXPECT_THROW(make("amg"), std::invalid_argument);
  // kSsor sweeps an assembled matrix; without one the factory refuses.
  EXPECT_THROW(make_preconditioner(PreconditionerKind::kSsor, [&a] { return a.diagonal(); },
                                   nullptr),
               std::logic_error);
}

}  // namespace
}  // namespace ms::la
