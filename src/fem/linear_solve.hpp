#pragma once
// The one lifted SPD solve path. Every stage of the pipeline ends in the same
// operation: lift the Dirichlet data (paper Sec. 4.2, fem/dirichlet.hpp),
// then solve an SPD system. That covers the reduced global system of Eq. 20
// (rom/global_solver), steady and transient conduction
// (thermal/thermal_solver), and the fine-mesh reference FEM (fem/solver).
// This module owns what those callers share: the method vocabulary, the
// factorization (factor cache, shift-retry ladder, cancellation check, fault
// probe), the split lifting, the multi-RHS panel and the Krylov loop, which
// runs on an apply-plus-diagonal operator so the ROM global stage can stay
// matrix-free. Each caller keeps only its fixed policy choices and its own
// stats publishing.

#include <functional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "fem/dirichlet.hpp"
#include "la/cholesky.hpp"
#include "la/factor_cache.hpp"
#include "la/gmres.hpp"
#include "la/precond.hpp"
#include "la/shift_retry.hpp"

namespace ms::fem {

enum class SolveMethod { kCg, kGmres, kDirect };

/// Parse "cg" | "gmres" | "direct". Throws std::invalid_argument naming the
/// valid set on any other name.
SolveMethod parse_solve_method(const std::string& name);

/// Direct-path factorization detail, declared once for every layer's stats
/// record (zero / empty on the Krylov paths).
struct FactorStats {
  double factor_seconds = 0.0;    ///< the one Cholesky factorization
  la::offset_t factor_nnz = 0;    ///< nnz(L), diagonal included
  double fill_ratio = 0.0;        ///< nnz(L) / nnz(tril(A))
  idx_t num_supernodes = 0;       ///< dense column panels of L
  /// Factorizations this call performed: 1 when it factored, 0 on a factor
  /// cache hit and on the Krylov paths.
  int num_factorizations = 0;
  /// Set when the factorization needed the diagonal shift-retry ladder: the
  /// solution solves A + shift*I, not A (close, but not the exact operator).
  bool degraded = false;
  double diagonal_shift = 0.0;
};

/// Solve outcome shared by the callers of solve_lifted.
struct SolveStats : FactorStats {
  idx_t iterations = 0;           ///< Krylov iterations over all cases; 0 when direct
  bool converged = false;
  std::size_t matrix_bytes = 0;   ///< storage of the operator (CSR, or a matrix-free one's own)
  std::size_t solver_bytes = 0;   ///< factor / Krylov workspace estimate
  double triangular_seconds = 0.0;///< forward/backward substitutions only
};

/// How one caller factors its operator.
struct FactorSpec {
  /// Site prefix: the cancellation check and shift-retry ladder report as
  /// "<stage>.factor", the cache builder's check and fault probe as
  /// "<stage>.factor_build", and Krylov failures as "<stage>.solve".
  std::string stage;
  la::SparseCholesky::Options options;
  la::ShiftRetryOptions shift_retry;
  core::CancelToken cancel;
  /// Memoization: used when both are set. The key must determine the lifted
  /// operator (values and constrained-dof set); see la/factor_cache.hpp.
  la::FactorCache* cache = nullptr;
  std::string key;
  [[nodiscard]] bool cached() const { return cache != nullptr && !key.empty(); }
};

/// Factor the SPD operator `a` and fill the factor detail of `stats`. With
/// `bc`, `a` is unlifted: the matrix half of the lifting is applied to it in
/// place before factoring, and a cached entry keeps the unlifted copy in
/// `matrix` for lifting right-hand sides. On a cache hit `a` is untouched
/// and may be left unassembled (empty).
la::FactorCache::Entry factor_spd(la::CsrMatrix& a, const DirichletBc* bc,
                                  const FactorSpec& spec, FactorStats& stats);

/// One caller's fixed solve policy.
struct SolveSpec {
  SolveMethod method = SolveMethod::kCg;
  FactorSpec factor;              ///< direct path
  /// Krylov paths; callers parse the public option name once with
  /// la::parse_preconditioner.
  la::PreconditionerKind precond = la::PreconditionerKind::kJacobi;
  la::GmresOptions krylov;        ///< tolerances, and the restart of GMRES
  double initial_guess = 0.0;     ///< Krylov start value of every entry
  /// Krylov non-convergence throws core::SimError(kDidNotConverge) when set
  /// and logs a warning otherwise. A breakdown always throws.
  bool throw_on_stall = false;
};

/// Lift `bc` into `a` and every entry of `rhs_cases` (in place, split so a
/// cached factorization is reused), then solve each case: the direct path
/// factors once and runs all cases as one multi-RHS panel, the Krylov paths
/// loop. Returns one solution per case and fills `stats`. Warm or cold, the
/// solutions are bit-identical to an uncached solve.
std::vector<Vec> solve_lifted(la::CsrMatrix& a, std::vector<Vec>& rhs_cases,
                              const DirichletBc& bc, const SolveSpec& spec, SolveStats& stats);

/// A lifted SPD operator as the Krylov loop sees it. `apply` and `diagonal`
/// are all kNone and kJacobi need, so the operator need not be assembled;
/// kSsor sweeps the assembled matrix and requires `matrix`.
struct KrylovOperator {
  std::function<void(const Vec&, Vec&)> apply;  ///< y = A x
  std::function<Vec()> diagonal;                ///< diag(A)
  const la::CsrMatrix* matrix = nullptr;        ///< assembled A, when there is one
  std::size_t matrix_bytes = 0;                 ///< reported as SolveStats::matrix_bytes
};

/// View an assembled matrix as a KrylovOperator; `a` must outlive it.
KrylovOperator csr_operator(const la::CsrMatrix& a);

/// The shared Krylov loop on an already lifted system: solves op x = rhs for
/// every case, each started at spec.initial_guess, with spec.method (CG or
/// GMRES) and spec.precond. Fills the Krylov fields of `stats`.
std::vector<Vec> solve_krylov(const KrylovOperator& op, const std::vector<Vec>& rhs_cases,
                              const SolveSpec& spec, SolveStats& stats);

}  // namespace ms::fem
