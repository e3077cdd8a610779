#include "rom/reconstruct.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#ifdef _OPENMP
#define MS_OMP_SIMD _Pragma("omp simd")
#else
#define MS_OMP_SIMD
#endif

namespace ms::rom {
namespace {

/// Blocks per accumulator tile: sixteen running sums per sample row, and the
/// tile's coefficient panel (16 (n + 1) doubles) stays in L1.
constexpr std::size_t kTile = 16;
/// Sample points per task: the task's rows of the sample matrix stay in L2
/// while every tile of blocks passes over them.
constexpr int kPointChunk = 16;
/// Multiply-adds below which a panel is reconstructed serially. The sweeps'
/// small panels already run one query per worker thread.
constexpr double kParallelWork = 16.0 * 1024 * 1024;

/// Blocks of the range that share one model, with their coefficient panel.
struct BlockGroup {
  const RomModel* model = nullptr;
  std::vector<std::size_t> base;  ///< output index of each block's sample (0, 0)
  Vec coef;                       ///< (n + 1) x padded block count, column-major by block
  std::size_t padded = 0;         ///< block count rounded up to kTile
};

/// The shared pass: gathers the coefficient panel [u_b; ΔT_b] of every
/// block in range once, then makes one pass over each model's sample matrix
/// (`samples`, K rows per sample point), accumulating every block of a tile
/// per row. Each output entry still sums columns 0..n in order from 0.0 —
/// the arithmetic of DenseMatrix::mul on [u_b; ΔT_b] — so the fields are
/// bitwise identical to a per-block product, for any thread count.
template <std::size_t K>
std::vector<std::array<double, K>> reconstruct_batched(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range,
    DenseMatrix RomModel::*samples) {
  if (range.bx0 < 0 || range.bx1 > grid.blocks_x() || range.by0 < 0 ||
      range.by1 > grid.blocks_y() || range.width() <= 0 || range.height() <= 0) {
    throw std::invalid_argument("reconstruct: block range out of bounds");
  }
  if (!mask.empty() && mask.size() != static_cast<std::size_t>(grid.num_blocks())) {
    throw std::invalid_argument("reconstruct: mask size must be blocks_x*blocks_y");
  }
  load.validate_extent(grid.blocks_x(), grid.blocks_y());
  const idx_t n = tsv_model.num_element_dofs();
  const std::size_t cols = static_cast<std::size_t>(n) + 1;
  const int s = tsv_model.samples_per_block;
  const std::size_t width = static_cast<std::size_t>(range.width()) * s;
  std::vector<std::array<double, K>> out(width * static_cast<std::size_t>(range.height()) * s);

  // Group the range's blocks by model, in y-major order.
  BlockGroup groups[2];
  groups[0].model = &tsv_model;
  groups[1].model = dummy_model;
  std::vector<std::pair<int, int>> members[2];
  for (int by = range.by0; by < range.by1; ++by) {
    for (int bx = range.bx0; bx < range.bx1; ++bx) {
      const bool is_tsv =
          mask.empty() || mask[static_cast<std::size_t>(by) * grid.blocks_x() + bx] != 0;
      if (!is_tsv && dummy_model == nullptr) {
        throw std::invalid_argument("reconstruct: mask selects dummy blocks but no model");
      }
      members[is_tsv ? 0 : 1].emplace_back(bx, by);
    }
  }
  for (int g = 0; g < 2; ++g) {
    BlockGroup& group = groups[g];
    const std::size_t count = members[g].size();
    group.padded = (count + kTile - 1) / kTile * kTile;
    group.coef.assign(cols * group.padded, 0.0);
    for (std::size_t j = 0; j < count; ++j) {
      const auto [bx, by] = members[g][j];
      const std::vector<idx_t> dofs = grid.block_dofs(bx, by);
      for (idx_t i = 0; i < n; ++i) {
        group.coef[static_cast<std::size_t>(i) * group.padded + j] = u[dofs[i]];
      }
      group.coef[static_cast<std::size_t>(n) * group.padded + j] = load.at(bx, by);
      group.base.push_back(static_cast<std::size_t>(by - range.by0) * s * width +
                           static_cast<std::size_t>(bx - range.bx0) * s);
    }
  }

  const int points = s * s;
  const int chunks = (points + kPointChunk - 1) / kPointChunk;
  for (const BlockGroup& group : groups) {
    if (group.base.empty()) continue;
    const DenseMatrix& sm = group.model->*samples;
    if (static_cast<std::size_t>(sm.cols()) != cols ||
        sm.rows() != static_cast<idx_t>(K) * points) {
      throw std::logic_error("reconstruct: sample matrix does not match the model");
    }
    const double work = static_cast<double>(sm.rows()) * static_cast<double>(cols) *
                        static_cast<double>(group.padded);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (work >= kParallelWork)
#endif
    for (int chunk = 0; chunk < chunks; ++chunk) {
      const int pt_end = std::min(points, (chunk + 1) * kPointChunk);
      for (std::size_t j0 = 0; j0 < group.padded; j0 += kTile) {
        const std::size_t tile = std::min(kTile, group.base.size() - j0);
        for (int pt = chunk * kPointChunk; pt < pt_end; ++pt) {
          const std::size_t offset =
              static_cast<std::size_t>(pt / s) * width + static_cast<std::size_t>(pt % s);
          for (std::size_t r = 0; r < K; ++r) {
            const double* row = sm.data().data() + (K * pt + r) * cols;
            double acc[kTile] = {};
            for (std::size_t col = 0; col < cols; ++col) {
              const double sv = row[col];
              const double* c = &group.coef[col * group.padded + j0];
              MS_OMP_SIMD
              for (std::size_t t = 0; t < kTile; ++t) acc[t] += sv * c[t];
            }
            for (std::size_t t = 0; t < tile; ++t) out[group.base[j0 + t] + offset][r] = acc[t];
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

std::vector<fem::Stress6> reconstruct_plane_stress(const BlockGrid& grid,
                                                   const RomModel& tsv_model,
                                                   const RomModel* dummy_model,
                                                   const BlockMask& mask, const Vec& u,
                                                   const BlockLoadField& load,
                                                   const BlockRange& range) {
  return reconstruct_batched<fem::kVoigt>(grid, tsv_model, dummy_model, mask, u, load, range,
                                          &RomModel::stress_samples);
}

std::vector<double> reconstruct_plane_von_mises(const BlockGrid& grid, const RomModel& tsv_model,
                                                const RomModel* dummy_model, const BlockMask& mask,
                                                const Vec& u, const BlockLoadField& load,
                                                const BlockRange& range) {
  const std::vector<fem::Stress6> stress =
      reconstruct_plane_stress(grid, tsv_model, dummy_model, mask, u, load, range);
  return fem::to_von_mises(stress);
}

std::vector<std::array<double, 3>> reconstruct_plane_displacement(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range) {
  if (tsv_model.displacement_samples.rows() == 0) {
    throw std::logic_error(
        "reconstruct_plane_displacement: displacement sampling disabled in the local stage");
  }
  return reconstruct_batched<3>(grid, tsv_model, dummy_model, mask, u, load, range,
                                &RomModel::displacement_samples);
}

std::vector<std::array<double, 2>> reconstruct_bump_plane_shear(
    const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
    const BlockMask& mask, const Vec& u, const BlockLoadField& load, const BlockRange& range) {
  if (tsv_model.bump_shear_samples.rows() == 0) {
    throw std::logic_error(
        "reconstruct_bump_plane_shear: model carries no bump-plane samples (rebuild the local "
        "stage)");
  }
  return reconstruct_batched<2>(grid, tsv_model, dummy_model, mask, u, load, range,
                                &RomModel::bump_shear_samples);
}

}  // namespace ms::rom
