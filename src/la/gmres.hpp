#pragma once
// Restarted GMRES. The paper solves the reduced global system with GMRES
// (Sec. 4.3); we provide it alongside CG (the lifted system is symmetric
// positive definite, so both work — the solver ablation bench compares them).

#include <functional>

#include "la/cg.hpp"  // IterativeOptions / IterativeResult
#include "la/precond.hpp"
#include "la/sparse.hpp"

namespace ms::la {

struct GmresOptions : IterativeOptions {
  idx_t restart = 50;  ///< Krylov subspace dimension between restarts
};

/// Solve A x = b with left-preconditioned restarted GMRES.
IterativeResult gmres(const CsrMatrix& a, const Vec& b, Vec& x, const Preconditioner* precond,
                      const GmresOptions& options);

/// Matrix-free variant: `apply_a` computes y = A x.
IterativeResult gmres(const std::function<void(const Vec&, Vec&)>& apply_a, const Vec& b, Vec& x,
                      const Preconditioner* precond, const GmresOptions& options);

}  // namespace ms::la
