#include "fem/solver.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"

namespace ms::fem {

namespace {

/// Mirror the exact out-param values into the registry (regression-locked
/// against the legacy struct by tests/obs).
void publish_fem_stats(const FemSolveStats& s) {
  auto& reg = obs::MetricRegistry::global();
  reg.counter("fem.solves").add(1);
  reg.counter("fem.iterations").add(s.iterations);
  reg.histogram("fem.assemble_seconds").record(s.assemble_seconds);
  reg.histogram("fem.solve_seconds").record(s.solve_seconds);
  reg.histogram("fem.factor_seconds").record(s.factor_seconds);
  reg.gauge("fem.num_dofs").set(static_cast<double>(s.num_dofs));
  reg.gauge("fem.converged").set(s.converged ? 1.0 : 0.0);
  reg.gauge("fem.factor_nnz").set(static_cast<double>(s.factor_nnz));
  reg.gauge("fem.fill_ratio").set(s.fill_ratio);
}

/// Shared tail of every entry point: solve all load cases against the one
/// assembled operator through the lifted solve path and fill the stats
/// record. The single-case wrappers delegate here.
std::vector<Vec> solve_assembled_cases(AssembledSystem& sys, std::vector<Vec> rhs_cases,
                                       const DirichletBc& bc, const FemSolveOptions& options,
                                       FemSolveStats* stats, util::WallTimer& timer) {
  MS_TRACE_SCOPE("fem.solve");
  SolveSpec spec;
  spec.method = parse_solve_method(options.method);
  spec.factor.stage = "fem";
  spec.factor.options = options.factor;
  // The reference must solve the exact operator: a shifted factor is no oracle.
  spec.factor.shift_retry.enabled = false;
  if (spec.method != SolveMethod::kDirect) {
    spec.precond = la::parse_preconditioner(options.precond);
  }
  spec.krylov.rel_tol = options.rel_tol;
  spec.krylov.max_iterations = options.max_iterations;

  FemSolveStats local;
  local.assemble_seconds = timer.seconds();
  util::ScopedLedgerBytes matrix_mem(sys.stiffness.memory_bytes() +
                                     (rhs_cases.size() + 1) * rhs_cases.front().size() *
                                         sizeof(double));
  timer.reset();
  std::vector<Vec> solutions = solve_lifted(sys.stiffness, rhs_cases, bc, spec, local);
  util::ScopedLedgerBytes solver_mem(local.solver_bytes);

  local.num_dofs = sys.num_dofs;
  local.solve_seconds = timer.seconds();
  publish_fem_stats(local);
  if (stats != nullptr) *stats = local;
  return solutions;
}

Vec solve_assembled(AssembledSystem& sys, Vec rhs, const DirichletBc& bc,
                    const FemSolveOptions& options, FemSolveStats* stats, util::WallTimer& timer) {
  std::vector<Vec> rhs_cases;
  rhs_cases.push_back(std::move(rhs));
  return std::move(
      solve_assembled_cases(sys, std::move(rhs_cases), bc, options, stats, timer).front());
}

}  // namespace

Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         double thermal_load, const DirichletBc& bc,
                         const FemSolveOptions& options, FemSolveStats* stats) {
  util::WallTimer timer;
  AssembledSystem sys = assemble_system(mesh, materials);
  Vec rhs = sys.thermal_load;
  la::scale(rhs, thermal_load);
  return solve_assembled(sys, std::move(rhs), bc, options, stats, timer);
}

Vec solve_thermal_stress(const mesh::HexMesh& mesh, const MaterialTable& materials,
                         const Vec& delta_t_per_elem, const DirichletBc& bc,
                         const FemSolveOptions& options, FemSolveStats* stats) {
  util::WallTimer timer;
  AssembledSystem sys = assemble_system(mesh, materials, &delta_t_per_elem);
  Vec rhs = sys.thermal_load;
  return solve_assembled(sys, std::move(rhs), bc, options, stats, timer);
}

std::vector<Vec> solve_thermal_stress_multi(const mesh::HexMesh& mesh,
                                            const MaterialTable& materials,
                                            const std::vector<Vec>& delta_t_cases,
                                            const DirichletBc& bc,
                                            const FemSolveOptions& options, FemSolveStats* stats) {
  if (delta_t_cases.empty()) return {};
  util::WallTimer timer;
  // One stiffness assembly; each case only needs its own load vector.
  AssembledSystem sys = assemble_system(mesh, materials, &delta_t_cases.front());
  std::vector<Vec> rhs_cases;
  rhs_cases.reserve(delta_t_cases.size());
  rhs_cases.push_back(sys.thermal_load);
  for (std::size_t c = 1; c < delta_t_cases.size(); ++c) {
    rhs_cases.push_back(assemble_thermal_load(mesh, materials, delta_t_cases[c]));
  }
  return solve_assembled_cases(sys, std::move(rhs_cases), bc, options, stats, timer);
}

}  // namespace ms::fem
