#include "rom/global_solver.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "la/precond.hpp"
#include "obs/metrics.hpp"
#include "obs/query_scope.hpp"
#include "obs/trace.hpp"
#include "util/fault_injector.hpp"
#include "util/timer.hpp"

namespace ms::rom {
namespace {

// Publish the exact values a GlobalSolveStats out-param receives, so the
// RunReport and the legacy struct can never disagree (the regression-lock
// test in tests/obs asserts this equality).
void publish_global_stats(const GlobalSolveStats& s) {
  auto& reg = obs::MetricRegistry::global();
  reg.counter("rom.global.solves").add(1);
  reg.counter("rom.global.rhs").add(s.num_rhs);
  reg.counter("rom.global.factorizations").add(s.num_factorizations);
  reg.counter("rom.global.iterations").add(s.iterations);
  reg.histogram("rom.global.solve_seconds").record(s.solve_seconds);
  reg.histogram("rom.global.factor_seconds").record(s.factor_seconds);
  reg.histogram("rom.global.triangular_seconds").record(s.triangular_seconds);
  reg.gauge("rom.global.num_dofs").set(static_cast<double>(s.num_dofs));
  reg.gauge("rom.global.converged").set(s.converged ? 1.0 : 0.0);
  reg.gauge("rom.global.matrix_bytes").set(static_cast<double>(s.matrix_bytes));
  reg.gauge("rom.global.solver_bytes").set(static_cast<double>(s.solver_bytes));
  reg.gauge("rom.global.factor_nnz").set(static_cast<double>(s.factor_nnz));
  reg.gauge("rom.global.fill_ratio").set(s.fill_ratio);
  reg.gauge("rom.global.num_supernodes").set(static_cast<double>(s.num_supernodes));
  reg.gauge("rom.global.degraded").set(s.degraded ? 1.0 : 0.0);
  reg.gauge("rom.global.diagonal_shift").set(s.diagonal_shift);
  // Query attribution: publish runs on the worker thread that executed the
  // solve, so the active QueryScope (if any) is the owning scenario's. The
  // per-query counts mirror the registry counters above 1:1 — that identity
  // is what the reconciliation test in tests/sweep locks.
  obs::QueryScope::count("global.solves");
  obs::QueryScope::count("rhs", s.num_rhs);
  obs::QueryScope::count("factorizations", s.num_factorizations);
  obs::QueryScope::observe_seconds("global.solve_seconds", s.solve_seconds);
  obs::QueryScope::observe_seconds("global.factor_seconds", s.factor_seconds);
  obs::QueryScope::observe_seconds("global.triangular_seconds", s.triangular_seconds);
}

/// The Krylov paths on the block operator, with the Dirichlet data lifted
/// without a matrix: constrained inputs are masked to zero and constrained
/// rows act as identity (the operator apply_dirichlet would build), free
/// rows of every rhs get -K x_D and constrained rows the prescribed value.
std::vector<Vec> solve_matrix_free(const BlockOperator& op, std::vector<Vec>& rhs_cases,
                                   const DirichletBc& bc, const fem::SolveSpec& spec,
                                   fem::SolveStats& stats) {
  const std::size_t n = static_cast<std::size_t>(op.num_dofs());
  std::vector<char> constrained(n, 0);
  Vec x_d(n, 0.0);  // the prescribed values, zero on free dofs
  for (std::size_t k = 0; k < bc.dofs.size(); ++k) {
    const std::size_t d = static_cast<std::size_t>(bc.dofs[k]);
    assert(d < n);
    constrained[d] = 1;
    x_d[d] = bc.values[k];
  }
  if (!bc.dofs.empty()) {
    Vec k_xd;
    op.apply(x_d, k_xd);
    for (Vec& rhs : rhs_cases) {
      for (std::size_t i = 0; i < n; ++i) rhs[i] = constrained[i] ? x_d[i] : rhs[i] - k_xd[i];
    }
  }

  Vec masked(n);
  fem::KrylovOperator lifted;
  lifted.apply = [&](const Vec& x, Vec& y) {
    for (std::size_t i = 0; i < n; ++i) masked[i] = constrained[i] ? 0.0 : x[i];
    op.apply(masked, y);
    for (std::size_t i = 0; i < n; ++i) {
      if (constrained[i]) y[i] = x[i];
    }
  };
  lifted.diagonal = [&]() {
    Vec d = op.diagonal();
    for (std::size_t i = 0; i < n; ++i) {
      if (constrained[i]) d[i] = 1.0;
    }
    return d;
  };
  lifted.matrix_bytes = op.memory_bytes();
  la::CsrMatrix assembled;  // only "ssor" sweeps an assembled matrix
  if (spec.precond == la::PreconditionerKind::kSsor) {
    assembled = op.to_csr();
    fem::apply_dirichlet_matrix(assembled, bc);
    lifted.matrix = &assembled;
    lifted.matrix_bytes += assembled.memory_bytes();
  }
  return fem::solve_krylov(lifted, rhs_cases, spec, stats);
}

}  // namespace

std::vector<Vec> solve_global_multi(GlobalProblem& problem, std::vector<Vec> extra_rhs,
                                    const DirichletBc& bc, const GlobalSolveOptions& options,
                                    GlobalSolveStats* stats) {
  MS_TRACE_SCOPE("rom.global.solve");
  fem::SolveSpec spec;
  spec.method = fem::parse_solve_method(options.method);
  const bool krylov = spec.method != fem::SolveMethod::kDirect;
  if (krylov) {
    spec.precond = la::parse_preconditioner(options.precond);  // before touching the operator
    if (problem.op == nullptr) {
      throw std::invalid_argument(
          "solve_global_multi: the Krylov methods need problem.op (assemble_global sets it)");
    }
  }
  spec.factor.stage = "rom.global";
  spec.factor.options = options.factor;
  spec.factor.shift_retry = options.shift_retry;
  spec.factor.cancel = options.cancel;
  spec.factor.cache = options.factor_cache;
  spec.factor.key = options.factor_key;
  spec.krylov.rel_tol = options.rel_tol;
  spec.krylov.max_iterations = options.max_iterations;
  spec.krylov.restart = options.gmres_restart;

  std::vector<Vec> rhs_cases;
  rhs_cases.reserve(extra_rhs.size() + 1);
  rhs_cases.push_back(std::move(problem.rhs));
  for (Vec& rhs : extra_rhs) {
    if (static_cast<idx_t>(rhs.size()) != problem.num_dofs) {
      throw std::invalid_argument("solve_global_multi: rhs size must match the problem");
    }
    rhs_cases.push_back(std::move(rhs));
  }

  util::WallTimer timer;
  GlobalSolveStats local;
  std::vector<Vec> solutions =
      krylov ? solve_matrix_free(*problem.op, rhs_cases, bc, spec, local)
             : fem::solve_lifted(problem.stiffness, rhs_cases, bc, spec, local);
  problem.rhs = std::move(rhs_cases.front());  // keep the lifted primary rhs visible
  // `nan` probe: poison the first solution entry so the stage-boundary
  // health sweep downstream must catch it (tests/robustness).
  if (util::FaultInjector::enabled() && !solutions.front().empty() &&
      util::FaultInjector::global().consume("rom.global.solve") == util::FaultAction::kNan) {
    solutions.front().front() = std::numeric_limits<double>::quiet_NaN();
  }

  local.num_dofs = problem.num_dofs;
  local.num_rhs = static_cast<idx_t>(rhs_cases.size());
  local.solve_seconds = timer.seconds();
  publish_global_stats(local);
  if (stats != nullptr) *stats = local;
  return solutions;
}

Vec solve_global(GlobalProblem& problem, const DirichletBc& bc, const GlobalSolveOptions& options,
                 GlobalSolveStats* stats) {
  std::vector<Vec> solutions = solve_global_multi(problem, {}, bc, options, stats);
  return std::move(solutions.front());
}

}  // namespace ms::rom
