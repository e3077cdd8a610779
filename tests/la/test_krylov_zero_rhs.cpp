#include <gtest/gtest.h>

#include "la/cg.hpp"
#include "la/gmres.hpp"

namespace ms::la {
namespace {

CsrMatrix spd3() {
  TripletList t(3, 3);
  t.add(0, 0, 4.0);
  t.add(0, 1, -1.0);
  t.add(1, 0, -1.0);
  t.add(1, 1, 4.0);
  t.add(1, 2, -1.0);
  t.add(2, 1, -1.0);
  t.add(2, 2, 4.0);
  return CsrMatrix::from_triplets(t);
}

// A zero right-hand side has the exact solution x = 0 whatever the start;
// the early exit must not hand the initial guess back.
TEST(KrylovZeroRhs, ReturnsZeroFromNonzeroStart) {
  const CsrMatrix a = spd3();
  const auto apply = [&a](const Vec& x, Vec& y) { a.mul(x, y); };
  const Vec b(3, 0.0);
  GmresOptions options;
  options.use_initial_guess = true;
  const Vec zero(3, 0.0);

  Vec x(3, 25.0);
  EXPECT_TRUE(conjugate_gradient(a, b, x, nullptr, options).converged);
  EXPECT_EQ(x, zero);
  x.assign(3, 25.0);
  EXPECT_TRUE(conjugate_gradient(apply, b, x, nullptr, options).converged);
  EXPECT_EQ(x, zero);
  x.assign(3, 25.0);
  EXPECT_TRUE(gmres(a, b, x, nullptr, options).converged);
  EXPECT_EQ(x, zero);
  x.assign(3, 25.0);
  EXPECT_TRUE(gmres(apply, b, x, nullptr, options).converged);
  EXPECT_EQ(x, zero);
}

}  // namespace
}  // namespace ms::la
