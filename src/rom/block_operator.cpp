#include "rom/block_operator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#ifdef _OPENMP
#define MS_OMP_SIMD _Pragma("omp simd")
#else
#define MS_OMP_SIMD
#endif

namespace ms::rom {
namespace {

/// Blocks per panel-product task: four blocks share every pass over a row of
/// the element stiffness, and their outputs (4 n doubles) stay in L1.
constexpr int kChunk = 4;
/// Multiply-adds per apply (blocks x n^2) below which the block products run
/// serially. An apply runs once per Krylov iteration, and sweep workers run
/// one query per thread: a sweep's 8x8 panel (1.8 M at n = 168) must not
/// start an OpenMP team every iteration, while the 16x16 Table 1 array
/// (7.2 M) runs in parallel.
constexpr double kParallelWork = 4.0 * 1024 * 1024;

/// y_c = K x_c for `count` <= kChunk blocks, with `kt` = K^T: row j of kt is
/// column j of K, so the product is a sum of scaled rows with unit-stride
/// inner loops. Every output entry is accumulated over j in order, the same
/// arithmetic for any `count`, so a block's product never depends on which
/// task computed it.
void chunk_product(const double* kt, std::size_t n, const double* const* xs, double* const* ys,
                   int count) {
  for (int c = 0; c < count; ++c) std::fill(ys[c], ys[c] + n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* kj = kt + j * n;
    if (count == kChunk) {
      const double x0 = xs[0][j], x1 = xs[1][j], x2 = xs[2][j], x3 = xs[3][j];
      double* y0 = ys[0];
      double* y1 = ys[1];
      double* y2 = ys[2];
      double* y3 = ys[3];
      MS_OMP_SIMD
      for (std::size_t i = 0; i < n; ++i) {
        const double kv = kj[i];
        y0[i] += x0 * kv;
        y1[i] += x1 * kv;
        y2[i] += x2 * kv;
        y3[i] += x3 * kv;
      }
      continue;
    }
    for (int c = 0; c < count; ++c) {
      const double xc = xs[c][j];
      double* yc = ys[c];
      MS_OMP_SIMD
      for (std::size_t i = 0; i < n; ++i) yc[i] += xc * kj[i];
    }
  }
}

}  // namespace

BlockOperator::BlockOperator(const BlockGrid& grid, const RomModel& tsv_model,
                             const RomModel* dummy_model, const BlockMask& mask)
    : n_(tsv_model.num_element_dofs()), num_dofs_(grid.num_dofs()), num_blocks_(grid.num_blocks()) {
  if (tsv_model.element_stiffness.rows() != n_ || grid.surface_nodes().num_dofs() != n_) {
    throw std::invalid_argument("BlockOperator: model element matrices missing");
  }
  if (!mask.empty() && mask.size() != static_cast<std::size_t>(num_blocks_)) {
    throw std::invalid_argument("BlockOperator: mask size must be blocks_x*blocks_y");
  }
  if (dummy_model != nullptr && !tsv_model.compatible_with(*dummy_model)) {
    throw std::invalid_argument("BlockOperator: dummy model incompatible with TSV model");
  }
  group_of_.assign(static_cast<std::size_t>(num_blocks_), 0);
  for (int b = 0; b < num_blocks_; ++b) {
    if (!mask.empty() && mask[static_cast<std::size_t>(b)] == 0) group_of_[b] = 1;
  }
  const bool any_dummy =
      std::find(group_of_.begin(), group_of_.end(), 1) != group_of_.end();
  if (any_dummy && dummy_model == nullptr) {
    throw std::invalid_argument("BlockOperator: mask selects dummy blocks but no model");
  }
  const auto columns = [&](const RomModel& model) {
    const DenseMatrix& k = model.element_stiffness;
    if (k.rows() != n_ || k.cols() != n_) {
      throw std::invalid_argument("BlockOperator: element stiffness must be n x n");
    }
    return k.transposed();
  };
  groups_.resize(any_dummy ? 2 : 1);
  groups_[0].columns = columns(tsv_model);
  if (any_dummy) groups_[1].columns = columns(*dummy_model);

  const std::size_t n = static_cast<std::size_t>(n_);
  dofs_.resize(static_cast<std::size_t>(num_blocks_) * n);
  for (int b = 0; b < num_blocks_; ++b) {
    const std::vector<idx_t> block = grid.block_dofs(b % grid.blocks_x(), b / grid.blocks_x());
    std::copy(block.begin(), block.end(), dofs_.begin() + static_cast<std::ptrdiff_t>(b * n));
    groups_[group_of_[b]].blocks.push_back(b);
  }
}

void BlockOperator::apply(const Vec& x, Vec& y) const {
  assert(static_cast<idx_t>(x.size()) == num_dofs_);
  const std::size_t n = static_cast<std::size_t>(n_);
  // Block-major panels: gathered inputs and their products.
  Vec xs(static_cast<std::size_t>(num_blocks_) * n);
  Vec ys(xs.size());
  const double work = static_cast<double>(num_blocks_) * static_cast<double>(n * n);
  for (const Group& group : groups_) {
    const int count = static_cast<int>(group.blocks.size());
    const int chunks = (count + kChunk - 1) / kChunk;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (work >= kParallelWork)
#endif
    for (int chunk = 0; chunk < chunks; ++chunk) {
      const int first = chunk * kChunk;
      const int size = std::min(kChunk, count - first);
      const double* in[kChunk];
      double* out[kChunk];
      for (int c = 0; c < size; ++c) {
        const int b = group.blocks[static_cast<std::size_t>(first + c)];
        const idx_t* dofs = dofs_of(b);
        double* xb = xs.data() + static_cast<std::size_t>(b) * n;
        for (std::size_t i = 0; i < n; ++i) xb[i] = x[dofs[i]];
        in[c] = xb;
        out[c] = ys.data() + static_cast<std::size_t>(b) * n;
      }
      chunk_product(group.columns.data().data(), n, in, out, size);
    }
  }
  // Neighbouring blocks share surface dofs: a serial scatter in block order
  // fixes every output's summation order.
  y.assign(static_cast<std::size_t>(num_dofs_), 0.0);
  for (int b = 0; b < num_blocks_; ++b) {
    const idx_t* dofs = dofs_of(b);
    const double* yb = ys.data() + static_cast<std::size_t>(b) * n;
    for (std::size_t i = 0; i < n; ++i) y[dofs[i]] += yb[i];
  }
}

Vec BlockOperator::diagonal() const {
  Vec d(static_cast<std::size_t>(num_dofs_), 0.0);
  for (int b = 0; b < num_blocks_; ++b) {
    const idx_t* dofs = dofs_of(b);
    const DenseMatrix& kt = columns_of(b);
    for (idx_t i = 0; i < n_; ++i) d[dofs[i]] += kt(i, i);
  }
  return d;
}

CsrMatrix BlockOperator::to_csr() const {
  // Every block contributes exactly n^2 stiffness entries, so each block
  // owns a fixed slice of the triplet arrays and the scatter parallelizes
  // with no races and a bitwise-deterministic result (the slice layout is
  // the serial push order).
  const std::size_t num_blocks = static_cast<std::size_t>(num_blocks_);
  const std::size_t per_block = static_cast<std::size_t>(n_) * n_;
  std::vector<idx_t> is(num_blocks * per_block);
  std::vector<idx_t> js(num_blocks * per_block);
  std::vector<double> vs(num_blocks * per_block);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int b = 0; b < num_blocks_; ++b) {
    const DenseMatrix& kt = columns_of(b);
    const idx_t* dofs = dofs_of(b);
    std::size_t pos = static_cast<std::size_t>(b) * per_block;
    for (idx_t i = 0; i < n_; ++i) {
      for (idx_t j = 0; j < n_; ++j, ++pos) {
        is[pos] = dofs[i];
        js[pos] = dofs[j];
        vs[pos] = kt(j, i);
      }
    }
  }
  return CsrMatrix::from_triplets(la::TripletList::from_parts(
      num_dofs_, num_dofs_, std::move(is), std::move(js), std::move(vs)));
}

std::size_t BlockOperator::memory_bytes() const {
  std::size_t bytes = dofs_.size() * sizeof(idx_t) + group_of_.size() * sizeof(std::uint8_t);
  for (const Group& g : groups_) {
    bytes += g.blocks.size() * sizeof(int) + g.columns.data().size() * sizeof(double);
  }
  return bytes;
}

}  // namespace ms::rom
