#pragma once
// Sparse Cholesky (L L^T) for SPD systems, one path: approximate minimum
// degree ordering (far less fill than bandwidth orderings on 3D hex meshes),
// an elimination-tree postorder so supernode columns land consecutively
// (fill-neutral), and the supernodal numeric phase — columns with identical
// structure factor as dense column panels with register-tiled rank-k
// updates, independent etree subtrees concurrently under OpenMP (bitwise
// independent of the thread count) — followed by multi-RHS panel solves.
//
// This is the workhorse of the one-shot local stage (one factorization,
// n+1 basis solves — batched via solve_multi), the global direct path, the
// transient θ-stepper, the package model, and the reference-FEM harness.

#include <cstddef>
#include <vector>

#include "la/ordering.hpp"
#include "la/sparse.hpp"
#include "la/supernodal.hpp"

namespace ms::la {

class SparseCholesky {
 public:
  struct Options {
    /// Column cap per supernodal panel (keeps the dense working set near
    /// the register/cache sweet spot).
    idx_t max_supernode_width = 48;
  };

  /// Factor a symmetric positive definite matrix (full symmetric storage).
  /// Throws std::runtime_error if a non-positive pivot is hit.
  explicit SparseCholesky(const CsrMatrix& a);
  SparseCholesky(const CsrMatrix& a, Options options);

  /// The one solve: b and x are column-major n x nrhs panels (each
  /// right-hand side one contiguous column). The factor
  /// is traversed once for the whole panel, so nrhs solves cost roughly one
  /// factor sweep of memory traffic instead of nrhs, and per column the
  /// arithmetic matches the nrhs == 1 call bitwise. `work` is caller-owned
  /// scratch (resized to n * nrhs), so the factor is never written after
  /// construction and any number of threads may solve on one factor.
  void solve_multi(const double* b, double* x, idx_t nrhs, Vec& work) const;

  /// Convenience: solve A x = b with its own scratch.
  [[nodiscard]] Vec solve(const Vec& b) const;

  /// Convenience: solve separate right-hand sides as one panel, one solution
  /// per input case. Cases are gathered straight into the solve scratch and
  /// solutions scattered straight out of it (the same kernels as above,
  /// bitwise equal per column).
  [[nodiscard]] std::vector<Vec> solve_multi(const std::vector<Vec>& cases) const;

  [[nodiscard]] idx_t order() const { return n_; }

  /// Nonzeros of L, diagonal included (the panel trapezoids).
  [[nodiscard]] offset_t factor_nnz() const;

  /// nnz(L) / nnz(tril(A)) — 1.0 means no fill.
  [[nodiscard]] double fill_ratio() const;

  [[nodiscard]] idx_t num_supernodes() const { return snf_.num_supernodes; }

  /// The fill-reducing permutation the factor lives in: L L^T = P A P^T
  /// with (P A P^T)(i, j) = A(perm[i], perm[j]).
  [[nodiscard]] const Permutation& permutation() const { return perm_; }

  /// Bytes held to produce and apply the factor: the factor itself
  /// (values + patterns + supernode metadata), the permutation, and the
  /// permuted copy of the matrix the numeric phase consumed (freed after
  /// construction but part of the peak footprint the memory ledger must
  /// own). Solve scratch belongs to the callers.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Export L (permuted ordering, compressed sparse column, ascending rows,
  /// diagonal first) for tests and diagnostics.
  void extract_factor(std::vector<offset_t>& col_ptr, std::vector<idx_t>& row_idx,
                      std::vector<double>& values) const;

 private:
  idx_t n_ = 0;
  Permutation perm_;
  offset_t matrix_lower_nnz_ = 0;       // nnz(tril(A)), for fill_ratio
  std::size_t permuted_matrix_bytes_ = 0;
  SupernodalFactor snf_;
};

}  // namespace ms::la
