#pragma once
// Solve the reduced global system (paper Eq. 20). The lifted system is SPD,
// so preconditioned CG is the default; GMRES (the paper's choice) and a
// sparse direct path are available for the solver ablation. The Krylov
// paths run matrix-free on GlobalProblem::op (rom/block_operator.hpp),
// lifting the Dirichlet data without a matrix, and never read
// GlobalProblem::stiffness; the direct path lifts and factors the CSR.
// Factorization and the Krylov loop run through the one lifted solve path,
// fem/linear_solve.hpp; this layer adds the stats publishing and the
// solution fault probe.

#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "fem/linear_solve.hpp"
#include "la/cholesky.hpp"
#include "la/factor_cache.hpp"
#include "la/shift_retry.hpp"
#include "rom/global_assembler.hpp"

namespace ms::rom {

struct GlobalSolveOptions {
  std::string method = "cg";      ///< "cg", "gmres", or "direct"
  std::string precond = "jacobi"; ///< iterative paths: "none", "jacobi", "ssor"
  double rel_tol = 1e-9;
  idx_t max_iterations = 20000;
  idx_t gmres_restart = 80;
  /// Direct-path factorization: the supernode width cap.
  la::SparseCholesky::Options factor;
  /// Cross-call factorization memoization (direct path only; the Krylov
  /// paths factor nothing and ignore it). When `factor_cache` is set and
  /// `factor_key` is non-empty, the lifted operator's factorization is
  /// looked up / stored under the key together with the unlifted operator
  /// (needed to lift the right-hand sides). The key must determine the
  /// assembled matrix values and the constrained-dof *set*; BC values may
  /// vary freely between callers sharing a key (lifting splits cleanly, see
  /// fem/dirichlet.hpp). On a hit the caller may leave problem.stiffness
  /// unassembled (empty) and fill only problem.rhs / problem.num_dofs; a
  /// miss needs the assembled stiffness. Warm or cold, the returned
  /// solutions are bit-identical to the uncached path.
  la::FactorCache* factor_cache = nullptr;
  std::string factor_key;
  /// SPD breakdown recovery for the direct paths (see la/shift_retry.hpp).
  /// A rescued factorization marks the stats degraded and records the shift.
  la::ShiftRetryOptions shift_retry;
  /// Cooperative cancellation/deadline token, checked at the factorization
  /// boundary (inert by default — no cost for non-sweep callers).
  core::CancelToken cancel;
};

/// The shared solve outcome (converged, iterations, byte counts and the
/// factor detail of fem::SolveStats) plus this layer's totals. Breakdown of
/// an iterative path throws core::SimError(kDidNotConverge); running out of
/// iterations only warns and leaves `converged` false.
struct GlobalSolveStats : fem::SolveStats {
  idx_t num_dofs = 0;
  double solve_seconds = 0.0;     ///< total: factorization + triangular solves
  idx_t num_rhs = 0;              ///< right-hand sides solved in this call
};

/// Apply `bc` by lifting, then solve. Returns the nodal displacement vector.
Vec solve_global(GlobalProblem& problem, const DirichletBc& bc,
                 const GlobalSolveOptions& options = {}, GlobalSolveStats* stats = nullptr);

/// Multi-load variant: solve problem.rhs plus every vector of `extra_rhs`
/// against the same lifted operator. The direct path factors once and runs
/// all cases as one multi-RHS panel through SparseCholesky::solve_multi.
/// The Krylov paths loop over the cases on problem.op only (they throw
/// std::invalid_argument when it is null); problem.stiffness is read by the
/// direct path alone. The Krylov paths parse options.precond once, before
/// touching the operator, and hand the kind down; `matrix_bytes` counts the
/// operator's own storage (plus the lifted CSR that kSsor assembles).
/// Returns one solution per case — index 0 is problem.rhs, index 1 + k is
/// extra_rhs[k]. All right-hand sides must be unlifted (the lifting is
/// applied here, like solve_global does).
std::vector<Vec> solve_global_multi(GlobalProblem& problem, std::vector<Vec> extra_rhs,
                                    const DirichletBc& bc, const GlobalSolveOptions& options = {},
                                    GlobalSolveStats* stats = nullptr);

}  // namespace ms::rom
