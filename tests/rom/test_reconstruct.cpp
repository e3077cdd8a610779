#include "rom/reconstruct.hpp"

#include <gtest/gtest.h>

#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "mesh/tsv_block.hpp"
#include "rom/rom_fixtures.hpp"

namespace ms::rom {
namespace {

using fixtures::dummy_model;
using fixtures::make_grid;
using fixtures::tsv_model;

struct Case {
  BlockGrid grid;
  BlockMask mask;
  BlockLoadField load;
  Vec u;
};

/// Any nodal vector will do: reconstruction is linear in [u_b; ΔT_b].
Case make_case(int bx, int by, int rings) {
  Case c{make_grid(bx, by), rings > 0 ? mesh::padded_tsv_mask(bx, by, rings) : BlockMask{},
         BlockLoadField(), Vec()};
  Vec delta_t(static_cast<std::size_t>(bx) * by);
  for (std::size_t b = 0; b < delta_t.size(); ++b) delta_t[b] = -250.0 + 7.5 * b;
  c.load = BlockLoadField(bx, by, std::move(delta_t));
  c.u.resize(static_cast<std::size_t>(c.grid.num_dofs()));
  for (std::size_t i = 0; i < c.u.size(); ++i) c.u[i] = 1e-3 * std::sin(0.731 * i);
  return c;
}

/// The oracle: DenseMatrix::mul of the block's sample matrix by [u_b; ΔT_b],
/// compared bitwise with the batched field at every sample of every block.
template <typename Field>
void expect_per_block_products(const Case& c, const BlockRange& range,
                               la::DenseMatrix RomModel::*samples, const Field& field) {
  const int s = tsv_model().samples_per_block;
  const std::size_t width = static_cast<std::size_t>(range.width()) * s;
  const std::size_t k = field.front().size();
  ASSERT_EQ(field.size(), width * static_cast<std::size_t>(range.height()) * s);
  for (int by = range.by0; by < range.by1; ++by) {
    for (int bx = range.bx0; bx < range.bx1; ++bx) {
      const bool is_tsv =
          c.mask.empty() || c.mask[static_cast<std::size_t>(by) * c.grid.blocks_x() + bx] != 0;
      const RomModel& model = is_tsv ? tsv_model() : dummy_model();
      const std::vector<idx_t> dofs = c.grid.block_dofs(bx, by);
      Vec coef(dofs.size() + 1);
      for (std::size_t i = 0; i < dofs.size(); ++i) coef[i] = c.u[dofs[i]];
      coef[dofs.size()] = c.load.at(bx, by);
      Vec expected;
      (model.*samples).mul(coef, expected);
      for (int pt = 0; pt < s * s; ++pt) {
        const std::size_t gidx = (static_cast<std::size_t>(by - range.by0) * s + pt / s) * width +
                                 static_cast<std::size_t>(bx - range.bx0) * s + pt % s;
        for (std::size_t r = 0; r < k; ++r) {
          ASSERT_EQ(field[gidx][r], expected[k * pt + r])
              << "block (" << bx << "," << by << ") point " << pt << " row " << r;
        }
      }
    }
  }
}

void expect_all_fields_bitwise(const Case& c, const BlockRange& range) {
  expect_per_block_products(c, range, &RomModel::stress_samples,
                            reconstruct_plane_stress(c.grid, tsv_model(), &dummy_model(), c.mask,
                                                     c.u, c.load, range));
  expect_per_block_products(c, range, &RomModel::displacement_samples,
                            reconstruct_plane_displacement(c.grid, tsv_model(), &dummy_model(),
                                                           c.mask, c.u, c.load, range));
  expect_per_block_products(c, range, &RomModel::bump_shear_samples,
                            reconstruct_bump_plane_shear(c.grid, tsv_model(), &dummy_model(),
                                                         c.mask, c.u, c.load, range));
}

TEST(ReconstructBatched, MaskedGridEqualsPerBlockProducts) {
  const Case c = make_case(5, 4, 1);
  expect_all_fields_bitwise(c, BlockRange::all(c.grid));
}

TEST(ReconstructBatched, SubRangeEqualsPerBlockProducts) {
  const Case c = make_case(5, 4, 1);
  expect_all_fields_bitwise(c, BlockRange{1, 4, 1, 3});  // the sub-model report window
  expect_all_fields_bitwise(c, BlockRange{0, 2, 2, 4});  // TSV and dummy blocks mixed
}

TEST(ReconstructBatched, LargePanelEqualsPerBlockProductsForAnyThreadCount) {
  // 20 x 20 blocks: enough work for the parallel pass.
  const Case c = make_case(20, 20, 0);
  const BlockRange range = BlockRange::all(c.grid);
  const auto stress = [&] {
    return reconstruct_plane_stress(c.grid, tsv_model(), nullptr, c.mask, c.u, c.load, range);
  };
  expect_per_block_products(c, range, &RomModel::stress_samples, stress());
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto one = stress();
  omp_set_num_threads(4);
  const auto four = stress();
  omp_set_num_threads(saved);
  EXPECT_EQ(one, four);
#endif
}

}  // namespace
}  // namespace ms::rom
