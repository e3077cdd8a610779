#include "rom/global_assembler.hpp"

#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace ms::rom {
namespace {

/// The load must select block models exactly as BlockOperator does.
void require_dummy_model(const BlockMask& mask, const RomModel* dummy_model,
                         const char* caller) {
  if (dummy_model != nullptr || mask.empty()) return;
  for (std::uint8_t m : mask) {
    if (m == 0) {
      throw std::invalid_argument(std::string(caller) +
                                  ": mask selects dummy blocks but no model");
    }
  }
}

const RomModel& block_model(const RomModel& tsv_model, const RomModel* dummy_model,
                            const BlockMask& mask, int blocks_x, int bx, int by) {
  const bool is_tsv =
      mask.empty() || mask[static_cast<std::size_t>(by) * blocks_x + bx] != 0;
  return is_tsv ? tsv_model : *dummy_model;
}

}  // namespace

GlobalProblem assemble_global(const BlockGrid& grid, const RomModel& tsv_model,
                              const RomModel* dummy_model, const BlockMask& mask,
                              const BlockLoadField& load) {
  MS_TRACE_SCOPE("rom.global.assemble");
  load.validate_extent(grid.blocks_x(), grid.blocks_y());
  GlobalProblem problem;
  problem.num_dofs = grid.num_dofs();
  problem.op = std::make_shared<const BlockOperator>(grid, tsv_model, dummy_model, mask);
  problem.rhs = assemble_global_rhs(grid, tsv_model, dummy_model, mask, load);
  problem.stiffness = problem.op->to_csr();
  return problem;
}

Vec assemble_global_rhs(const BlockGrid& grid, const RomModel& tsv_model,
                        const RomModel* dummy_model, const BlockMask& mask,
                        const BlockLoadField& load) {
  MS_TRACE_SCOPE("rom.global.assemble_rhs");
  const idx_t n = tsv_model.num_element_dofs();
  load.validate_extent(grid.blocks_x(), grid.blocks_y());
  require_dummy_model(mask, dummy_model, "assemble_global_rhs");
  Vec rhs(static_cast<std::size_t>(grid.num_dofs()), 0.0);
  // Neighbouring blocks share surface dofs, so the accumulation stays serial
  // and its summation order fixed (bitwise-deterministic).
  for (int by = 0; by < grid.blocks_y(); ++by) {
    for (int bx = 0; bx < grid.blocks_x(); ++bx) {
      const RomModel& model =
          block_model(tsv_model, dummy_model, mask, grid.blocks_x(), bx, by);
      const std::vector<idx_t> dofs = grid.block_dofs(bx, by);
      const double thermal_load = load.at(bx, by);
      for (idx_t i = 0; i < n; ++i) {
        rhs[dofs[i]] += thermal_load * model.element_load[i];
      }
    }
  }
  return rhs;
}

DirichletBc clamp_top_bottom(const BlockGrid& grid) {
  return DirichletBc::clamp_nodes(grid.nodes_top_bottom());
}

DirichletBc submodel_boundary(const BlockGrid& grid,
                              const std::function<std::array<double, 3>(const mesh::Point3&)>&
                                  displacement) {
  const std::vector<idx_t> nodes = grid.nodes_outer_boundary();
  Vec values;
  values.reserve(3 * nodes.size());
  for (idx_t node : nodes) {
    const auto u = displacement(grid.node_position(node));
    values.insert(values.end(), u.begin(), u.end());
  }
  return DirichletBc::clamp_nodes(nodes, values);
}

}  // namespace ms::rom
