#pragma once
// The reduced global stiffness of paper Eq. 20 as a block operator. Every
// TSV block shares one reduced element matrix and every dummy block another,
// so K x needs no assembled matrix: gather each block's dofs into a panel,
// multiply by its type's element stiffness (one dense panel product per
// block type), and scatter-add the products back. This is the cell-local
// operator pattern of SNIPPETS §1 (amanzi's MimeticHexLocal); see DESIGN.md
// "Matrix-free global stage".

#include <cstdint>
#include <vector>

#include "la/sparse.hpp"
#include "rom/block_grid.hpp"
#include "rom/rom_model.hpp"

namespace ms::rom {

using la::CsrMatrix;

/// Per-block model selection for hybrid arrays: mask[by * blocks_x + bx] is
/// 1 for a TSV block, 0 for a dummy block. Empty mask = all TSV.
using BlockMask = std::vector<std::uint8_t>;

class BlockOperator {
 public:
  /// Build the block->global dof table with blocks grouped by model. The
  /// operator copies the element matrices it uses, so it does not depend on
  /// the models' lifetime. Throws std::invalid_argument when the element
  /// matrices are missing, the mask has the wrong size, the mask selects
  /// dummy blocks without `dummy_model`, or the models are incompatible.
  BlockOperator(const BlockGrid& grid, const RomModel& tsv_model, const RomModel* dummy_model,
                const BlockMask& mask);

  [[nodiscard]] idx_t num_dofs() const { return num_dofs_; }

  /// y = K x. Block products run in parallel on large operators; the
  /// scatter-add runs serially in block order, so y is bitwise independent
  /// of the thread count.
  void apply(const Vec& x, Vec& y) const;

  /// diag(K), accumulated in block order.
  [[nodiscard]] Vec diagonal() const;

  /// The assembled K, bitwise identical to the triplet scatter of
  /// assemble_global (the direct path factors it).
  [[nodiscard]] CsrMatrix to_csr() const;

  /// The operator's own storage: the dof table, the block groups and the
  /// copied element matrices.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Blocks that share one element stiffness, in block order. The group
  /// stores the transpose: row j holds column j of K, so K x is a sum of
  /// scaled rows with unit-stride inner loops, for any K.
  struct Group {
    DenseMatrix columns;
    std::vector<int> blocks;
  };

  [[nodiscard]] const idx_t* dofs_of(int block) const {
    return dofs_.data() + static_cast<std::size_t>(block) * n_;
  }
  [[nodiscard]] const DenseMatrix& columns_of(int block) const {
    return groups_[group_of_[static_cast<std::size_t>(block)]].columns;
  }

  idx_t n_ = 0;          ///< dofs per block
  idx_t num_dofs_ = 0;
  int num_blocks_ = 0;
  std::vector<idx_t> dofs_;              ///< block-major, n_ global dofs per block
  std::vector<std::uint8_t> group_of_;   ///< block -> index into groups_
  std::vector<Group> groups_;
};

}  // namespace ms::rom
