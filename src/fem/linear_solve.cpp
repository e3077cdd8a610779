#include "fem/linear_solve.hpp"

#include <stdexcept>
#include <utility>

#include "core/sim_error.hpp"
#include "la/cg.hpp"
#include "util/fault_injector.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ms::fem {

SolveMethod parse_solve_method(const std::string& name) {
  if (name == "cg") return SolveMethod::kCg;
  if (name == "gmres") return SolveMethod::kGmres;
  if (name == "direct") return SolveMethod::kDirect;
  throw std::invalid_argument("unknown solver method '" + name +
                              "' (valid: cg, gmres, direct)");
}

la::FactorCache::Entry factor_spd(la::CsrMatrix& a, const DirichletBc* bc,
                                  const FactorSpec& spec, FactorStats& stats) {
  util::WallTimer timer;
  const std::string factor_site = spec.stage + ".factor";
  const auto factor_lifted = [&]() {
    la::FactorCache::Entry fresh;
    if (bc != nullptr) {
      if (spec.cached()) fresh.matrix = std::make_shared<la::CsrMatrix>(a);
      apply_dirichlet_matrix(a, *bc);
    }
    la::ShiftRetryResult factored =
        la::factor_with_shift_retry(a, spec.options, spec.shift_retry, factor_site.c_str());
    fresh.factor = std::move(factored.factor);
    fresh.diagonal_shift = factored.shift;
    return fresh;
  };
  la::FactorCache::Entry entry;
  if (spec.cached()) {
    bool built = false;
    entry = spec.cache->get_or_create(
        spec.key,
        [&]() {
          // Cancellation/fault checks live inside the builder on purpose: a
          // cancelled or injected-fault build throws, the cache clears the
          // slot (waiters retry), and no pending slot is ever poisoned.
          const std::string build_site = spec.stage + ".factor_build";
          spec.cancel.check(build_site.c_str());
          if (util::FaultInjector::enabled()) {
            util::FaultInjector::global().fire(build_site.c_str());
          }
          if (a.rows() == 0) {
            throw std::logic_error(spec.stage +
                                   ": factor-cache miss requires an assembled operator");
          }
          return factor_lifted();
        },
        &built);
    stats.num_factorizations = built ? 1 : 0;
  } else {
    spec.cancel.check(factor_site.c_str());
    entry = factor_lifted();
    stats.num_factorizations = 1;
  }
  stats.factor_seconds = timer.seconds();
  stats.factor_nnz = entry.factor->factor_nnz();
  stats.fill_ratio = entry.factor->fill_ratio();
  stats.num_supernodes = entry.factor->num_supernodes();
  stats.degraded = entry.diagonal_shift != 0.0;
  stats.diagonal_shift = entry.diagonal_shift;
  return entry;
}

namespace {

std::vector<Vec> solve_direct(la::CsrMatrix& a, std::vector<Vec>& rhs_cases,
                              const DirichletBc& bc, const FactorSpec& spec, SolveStats& stats) {
  // The split lifting reproduces the fused one bit for bit (fem/dirichlet.hpp),
  // so cached and uncached solves agree exactly.
  if (!spec.cached()) apply_dirichlet_rhs(a, rhs_cases, bc);
  const la::FactorCache::Entry f = factor_spd(a, &bc, spec, stats);
  if (spec.cached()) apply_dirichlet_rhs(*f.matrix, rhs_cases, bc);
  util::WallTimer timer;
  std::vector<Vec> solutions = f.factor->solve_multi(rhs_cases);
  stats.triangular_seconds = timer.seconds();
  stats.converged = true;
  stats.matrix_bytes = f.matrix != nullptr ? f.matrix->memory_bytes() : a.memory_bytes();
  stats.solver_bytes = f.factor->memory_bytes();
  return solutions;
}

}  // namespace

KrylovOperator csr_operator(const la::CsrMatrix& a) {
  KrylovOperator op;
  op.apply = [&a](const Vec& x, Vec& y) { a.mul(x, y); };
  op.diagonal = [&a]() { return a.diagonal(); };
  op.matrix = &a;
  op.matrix_bytes = a.memory_bytes();
  return op;
}

std::vector<Vec> solve_krylov(const KrylovOperator& op, const std::vector<Vec>& rhs_cases,
                              const SolveSpec& spec, SolveStats& stats) {
  const auto precond = la::make_preconditioner(spec.precond, op.diagonal, op.matrix);
  const bool cg = spec.method == SolveMethod::kCg;
  const char* name = cg ? "CG" : "GMRES";
  la::GmresOptions iter = spec.krylov;
  iter.use_initial_guess = true;
  const std::size_t n = rhs_cases.front().size();
  std::vector<Vec> solutions(rhs_cases.size());
  stats.converged = true;
  for (std::size_t c = 0; c < rhs_cases.size(); ++c) {
    solutions[c].assign(n, spec.initial_guess);
    const la::IterativeResult result =
        cg ? la::conjugate_gradient(op.apply, rhs_cases[c], solutions[c], precond.get(), iter)
           : la::gmres(op.apply, rhs_cases[c], solutions[c], precond.get(), iter);
    stats.iterations += result.iterations;
    stats.converged = stats.converged && result.converged;
    if (result.breakdown || (!result.converged && spec.throw_on_stall)) {
      throw core::SimError(core::SimErrorCode::kDidNotConverge, spec.factor.stage + ".solve",
                           std::string(name) + (result.breakdown
                                                    ? std::string(" breakdown: ") +
                                                          result.breakdown_reason
                                                    : std::string(" did not converge")),
                           "iterations=" + std::to_string(result.iterations) +
                               " residual=" + std::to_string(result.residual_norm));
    }
    if (!result.converged) {
      MS_LOG_WARN("%s: %s (case %d) did not converge in %d iterations (residual %.3e)",
                  spec.factor.stage.c_str(), name, static_cast<int>(c),
                  static_cast<int>(result.iterations), result.residual_norm);
    }
  }
  // Workspace: CG keeps x, r, z, p, Ap; GMRES the restart basis plus four.
  const std::size_t vectors = cg ? 5 : static_cast<std::size_t>(spec.krylov.restart) + 4;
  stats.solver_bytes = vectors * n * sizeof(double) + precond->memory_bytes();
  stats.matrix_bytes = op.matrix_bytes;
  return solutions;
}

std::vector<Vec> solve_lifted(la::CsrMatrix& a, std::vector<Vec>& rhs_cases,
                              const DirichletBc& bc, const SolveSpec& spec, SolveStats& stats) {
  if (spec.method == SolveMethod::kDirect) {
    return solve_direct(a, rhs_cases, bc, spec.factor, stats);
  }
  apply_dirichlet(a, rhs_cases, bc);
  return solve_krylov(csr_operator(a), rhs_cases, spec, stats);
}

}  // namespace ms::fem
