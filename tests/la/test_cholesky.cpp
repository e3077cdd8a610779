#include "la/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/dense.hpp"
#include "la/factor_check.hpp"

namespace ms::la {
namespace {

/// 2-D 5-point Laplacian on an m x m grid (SPD, sparse, realistic fill).
CsrMatrix laplacian_2d(idx_t m) {
  const idx_t n = m * m;
  TripletList t(n, n);
  for (idx_t j = 0; j < m; ++j) {
    for (idx_t i = 0; i < m; ++i) {
      const idx_t u = j * m + i;
      t.add(u, u, 4.0);
      if (i > 0) t.add(u, u - 1, -1.0);
      if (i + 1 < m) t.add(u, u + 1, -1.0);
      if (j > 0) t.add(u, u - m, -1.0);
      if (j + 1 < m) t.add(u, u + m, -1.0);
    }
  }
  return CsrMatrix::from_triplets(t);
}

Vec smooth_rhs(idx_t n) {
  Vec b(n);
  for (idx_t i = 0; i < n; ++i) b[i] = std::sin(0.1 * i) + 0.3 * std::cos(0.05 * i);
  return b;
}

class CholeskyGridSizes : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyGridSizes, ResidualIsTiny) {
  const idx_t m = GetParam();
  const CsrMatrix a = laplacian_2d(m);
  const Vec b = smooth_rhs(a.rows());
  const SparseCholesky chol(a);
  const Vec x = chol.solve(b);
  Vec ax;
  a.mul(x, ax);
  EXPECT_LT(max_abs_diff(ax, b), 1e-10) << "grid " << m << "x" << m;
}

INSTANTIATE_TEST_SUITE_P(Grids, CholeskyGridSizes, ::testing::Values(2, 3, 5, 8, 13, 21));

TEST(SparseCholesky, MatchesDenseCholesky) {
  const CsrMatrix a = laplacian_2d(4);
  DenseMatrix ad(a.rows(), a.cols());
  for (idx_t i = 0; i < a.rows(); ++i) {
    for (idx_t j = 0; j < a.cols(); ++j) ad(i, j) = a.coeff(i, j);
  }
  const Vec b = smooth_rhs(a.rows());
  const Vec sparse_x = SparseCholesky(a).solve(b);
  const Vec dense_x = DenseCholesky(ad).solve(b);
  EXPECT_LT(max_abs_diff(sparse_x, dense_x), 1e-11);
}

TEST(SparseCholesky, SupernodalAndSimplicialFactorsMatch) {
  const CsrMatrix a = laplacian_2d(12);
  const SparseCholesky chol(a);
  EXPECT_GT(chol.num_supernodes(), 0);
  EXPECT_LT(chol.num_supernodes(), chol.order());  // panels really group columns
  EXPECT_GT(chol.factor_nnz(), a.nnz() / 2);       // the factor holds the matrix
  EXPECT_GT(chol.fill_ratio(), 1.0);
  EXPECT_LT(factor_reconstruction_error(a, chol), 1e-12);
}

TEST(SparseCholesky, SolveMultiMatchesColumnwiseSolvesBitwise) {
  const CsrMatrix a = laplacian_2d(9);
  const idx_t n = a.rows();
  const idx_t nrhs = 5;
  Vec panel(static_cast<std::size_t>(n) * nrhs);
  for (idx_t r = 0; r < nrhs; ++r) {
    for (idx_t i = 0; i < n; ++i) {
      panel[static_cast<std::size_t>(r) * n + i] = std::cos(0.07 * i + r);
    }
  }
  const SparseCholesky chol(a);
  Vec x_panel(panel.size()), work;
  chol.solve_multi(panel.data(), x_panel.data(), nrhs, work);
  Vec x(static_cast<std::size_t>(n));
  for (idx_t r = 0; r < nrhs; ++r) {
    chol.solve_multi(panel.data() + static_cast<std::size_t>(r) * n, x.data(), 1, work);
    for (idx_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_panel[static_cast<std::size_t>(r) * n + i], x[i]) << "rhs " << r << " dof " << i;
    }
  }
}

TEST(SparseCholesky, RejectsIndefinite) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  EXPECT_THROW(SparseCholesky{a}, std::runtime_error);
}

TEST(SparseCholesky, RejectsRectangular) {
  TripletList t(2, 3);
  t.add(0, 0, 1.0);
  const CsrMatrix a = CsrMatrix::from_triplets(t);
  EXPECT_THROW(SparseCholesky{a}, std::invalid_argument);
}

TEST(SparseCholesky, MultipleSolvesReuseFactor) {
  const CsrMatrix a = laplacian_2d(6);
  const SparseCholesky chol(a);
  for (int rhs = 0; rhs < 5; ++rhs) {
    Vec b(a.rows());
    for (idx_t i = 0; i < a.rows(); ++i) b[i] = std::sin(0.2 * i + rhs);
    const Vec x = chol.solve(b);
    Vec ax;
    a.mul(x, ax);
    EXPECT_LT(max_abs_diff(ax, b), 1e-10);
  }
}

TEST(SparseCholesky, MemoryBytesCoversFactorAndPermutedMatrix) {
  const CsrMatrix a = laplacian_2d(8);
  const SparseCholesky chol(a);
  // The ledger must own at least the factor values, the permuted matrix
  // copy the numeric phase consumed, the two permutation arrays and the
  // supernode metadata (start column, pattern and panel offsets).
  const std::size_t floor_bytes =
      static_cast<std::size_t>(chol.factor_nnz()) * sizeof(double) + a.memory_bytes() +
      2 * static_cast<std::size_t>(a.rows()) * sizeof(idx_t) +
      static_cast<std::size_t>(chol.num_supernodes()) * (sizeof(idx_t) + 2 * sizeof(offset_t));
  EXPECT_GE(chol.memory_bytes(), floor_bytes);
  EXPECT_EQ(chol.order(), 64);
}

}  // namespace
}  // namespace ms::la
