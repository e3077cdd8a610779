#pragma once
// Global-stage assembly (paper Sec. 4.3): each block's reduced element
// stiffness forms the block operator (rom/block_operator.hpp), each block's
// reduced load is scattered into the global load vector, and the Dirichlet
// data (clamped surfaces for standalone arrays; interpolated coarse
// displacements for sub-modeling) is lifted by the solver. The Krylov paths
// apply the operator matrix-free; only the direct path factors the
// assembled CSR.

#include <functional>
#include <memory>
#include <vector>

#include "fem/dirichlet.hpp"
#include "rom/block_grid.hpp"
#include "rom/block_operator.hpp"
#include "rom/load_field.hpp"
#include "rom/rom_model.hpp"

namespace ms::rom {

using fem::DirichletBc;
using la::CsrMatrix;

struct GlobalProblem {
  /// Assembled K for the direct path (and the factor-cache miss); the Krylov
  /// paths never read it.
  CsrMatrix stiffness;
  Vec rhs;
  idx_t num_dofs = 0;
  /// Matrix-free K, required by the Krylov paths. It owns copies of the
  /// element matrices, so the problem may outlive the models.
  std::shared_ptr<const BlockOperator> op;
};

/// Assemble the unconstrained global system: the block operator, its CSR,
/// and the load vector, where each block's reduced load is scaled by its own
/// ΔT from `load`. `dummy_model` may be null when the mask selects no dummy
/// blocks.
GlobalProblem assemble_global(const BlockGrid& grid, const RomModel& tsv_model,
                              const RomModel* dummy_model, const BlockMask& mask,
                              const BlockLoadField& load);

/// Assemble only the load vector for `load` on an already-assembled global
/// problem's grid: the reduced stiffness does not depend on the per-block
/// ΔT, so solving many load cases (e.g. transient snapshots) against one
/// factorization needs one stiffness assembly plus one of these per case.
Vec assemble_global_rhs(const BlockGrid& grid, const RomModel& tsv_model,
                        const RomModel* dummy_model, const BlockMask& mask,
                        const BlockLoadField& load);

/// Scalar-ΔT convenience (the paper's uniform reflow load).
inline GlobalProblem assemble_global(const BlockGrid& grid, const RomModel& tsv_model,
                                     const RomModel* dummy_model, const BlockMask& mask,
                                     double thermal_load) {
  return assemble_global(grid, tsv_model, dummy_model, mask,
                         BlockLoadField::uniform(thermal_load));
}

/// Clamped top/bottom condition of scenario 1 (all components zero).
DirichletBc clamp_top_bottom(const BlockGrid& grid);

/// Sub-modeling condition: prescribe every outer-boundary node to the value
/// of `displacement(p)` (e.g. interpolated from a coarse package solution).
DirichletBc submodel_boundary(const BlockGrid& grid,
                              const std::function<std::array<double, 3>(const mesh::Point3&)>&
                                  displacement);

}  // namespace ms::rom
