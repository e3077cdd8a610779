// Iterative-solver breakdown: on an indefinite or singular operator CG and
// GMRES must report a *structured* failure (breakdown flag + reason) instead
// of silently stalling, diverging, or emitting NaN into the solution. The
// sweep engine turns these into kDidNotConverge scenario failures, so the
// contract here is load-bearing for the robustness layer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/sim_error.hpp"
#include "fem/linear_solve.hpp"
#include "la/cg.hpp"
#include "la/gmres.hpp"
#include "la/vec.hpp"

namespace ms::la {
namespace {

CsrMatrix diagonal(std::initializer_list<double> entries) {
  const idx_t n = static_cast<idx_t>(entries.size());
  TripletList t(n, n);
  idx_t i = 0;
  for (double d : entries) {
    t.add(i, i, d);
    ++i;
  }
  return CsrMatrix::from_triplets(t);
}

TEST(SolverBreakdown, CgReportsIndefiniteOperator) {
  // diag(1, -1) with b = (1, 1): the first search direction has p.Ap = 0,
  // which CG's SPD assumption cannot survive.
  const CsrMatrix a = diagonal({1.0, -1.0});
  const Vec b(2, 1.0);
  Vec x(2, 0.0);
  const IterativeResult result = conjugate_gradient(a, b, x, nullptr, {});
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.breakdown);
  EXPECT_EQ(std::string(result.breakdown_reason), "indefinite operator (p.Ap <= 0)");
  EXPECT_TRUE(all_finite(x));  // the last consistent iterate, never NaN
}

TEST(SolverBreakdown, CgReportsNonFiniteOperator) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, std::numeric_limits<double>::quiet_NaN());
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  const Vec b(2, 1.0);
  Vec x(2, 0.0);
  const IterativeResult result = conjugate_gradient(a, b, x, nullptr, {});
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.breakdown);
  EXPECT_EQ(std::string(result.breakdown_reason), "non-finite curvature p.Ap");
}

TEST(SolverBreakdown, GmresReportsSingularOperator) {
  // diag(1, 1, 0) with b touching the null space: no x satisfies Ax = b, so
  // GMRES must end in a structured breakdown (rank-deficient Hessenberg or
  // stagnation across a restart — both count) with a finite iterate.
  const CsrMatrix a = diagonal({1.0, 1.0, 0.0});
  const Vec b(3, 1.0);
  Vec x(3, 0.0);
  GmresOptions options;
  options.restart = 3;
  options.max_iterations = 60;
  const IterativeResult result = gmres(a, b, x, nullptr, options);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.breakdown);
  EXPECT_NE(std::string(result.breakdown_reason), "");
  EXPECT_TRUE(all_finite(x));
}

TEST(SolverBreakdown, GmresReportsNonFiniteOperator) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, std::numeric_limits<double>::infinity());
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  const Vec b(2, 1.0);
  Vec x(2, 0.0);
  const IterativeResult result = gmres(a, b, x, nullptr, {});
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.breakdown);
  EXPECT_NE(std::string(result.breakdown_reason), "");
}

TEST(SolverBreakdown, SharedKrylovLoopRaisesClassifiedError) {
  // The one lifted solve path behind every layer turns a breakdown into
  // core::SimError(kDidNotConverge) at "<stage>.solve", whichever Krylov
  // method runs. diag(1, -1, 0) is indefinite (CG: p.Ap = 0 on the first
  // step) and singular (GMRES cannot reach b's null-space component).
  for (const fem::SolveMethod method : {fem::SolveMethod::kCg, fem::SolveMethod::kGmres}) {
    CsrMatrix a = diagonal({1.0, -1.0, 0.0});
    std::vector<Vec> rhs{Vec(3, 1.0)};
    fem::SolveSpec spec;
    spec.method = method;
    spec.factor.stage = "test";
    spec.precond = la::PreconditionerKind::kNone;
    spec.krylov.restart = 3;
    spec.krylov.max_iterations = 60;
    fem::SolveStats stats;
    try {
      (void)fem::solve_lifted(a, rhs, {}, spec, stats);
      ADD_FAILURE() << "breakdown did not throw";
    } catch (const core::SimError& e) {
      EXPECT_EQ(e.code(), core::SimErrorCode::kDidNotConverge);
      EXPECT_EQ(e.stage(), "test.solve");
      EXPECT_NE(std::string(e.what()).find("breakdown"), std::string::npos) << e.what();
    }
  }
}

TEST(SolverBreakdown, HealthySystemsStillConvergeCleanly) {
  // The breakdown guards must not misfire on a well-posed SPD solve.
  const CsrMatrix a = diagonal({4.0, 3.0, 2.0, 1.0});
  const Vec b(4, 1.0);
  Vec x_cg(4, 0.0);
  const IterativeResult cg = conjugate_gradient(a, b, x_cg, nullptr, {});
  EXPECT_TRUE(cg.converged);
  EXPECT_FALSE(cg.breakdown);
  Vec x_gm(4, 0.0);
  const IterativeResult gm = gmres(a, b, x_gm, nullptr, {});
  EXPECT_TRUE(gm.converged);
  EXPECT_FALSE(gm.breakdown);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x_cg[i], 1.0 / static_cast<double>(4 - i), 1e-8);
    EXPECT_NEAR(x_gm[i], 1.0 / static_cast<double>(4 - i), 1e-8);
  }
}

}  // namespace
}  // namespace ms::la
