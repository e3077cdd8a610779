#include "rom/block_operator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "mesh/tsv_block.hpp"
#include "rom/global_assembler.hpp"
#include "rom/global_solver.hpp"
#include "rom/rom_fixtures.hpp"

namespace ms::rom {
namespace {

using fixtures::dummy_model;
using fixtures::make_grid;
using fixtures::tsv_model;

/// A 6x6 array padded by one ring of dummy blocks: 16 TSV and 20 dummy
/// blocks, so both block types span several panel-product tasks.
struct Hybrid {
  BlockGrid grid = make_grid(6, 6);
  BlockMask mask = mesh::padded_tsv_mask(6, 6, 1);
  BlockLoadField load = BlockLoadField::uniform(-250.0);

  [[nodiscard]] BlockOperator op() const {
    return BlockOperator(grid, tsv_model(), &dummy_model(), mask);
  }
  [[nodiscard]] GlobalProblem problem() const {
    return assemble_global(grid, tsv_model(), &dummy_model(), mask, load);
  }
  /// Sub-model boundary with nonzero prescribed values on every outer node.
  [[nodiscard]] fem::DirichletBc bc() const {
    const std::function<std::array<double, 3>(const mesh::Point3&)> field =
        [](const mesh::Point3& p) {
          return std::array<double, 3>{1e-3 * p.x + 2e-2, -2e-3 * p.y, 5e-4 * p.z - 1e-2};
        };
    return submodel_boundary(grid, field);
  }
};

Vec probe_vector(idx_t n) {
  Vec x(static_cast<std::size_t>(n));
  for (idx_t i = 0; i < n; ++i) x[i] = std::sin(0.37 * i) + 0.25 * std::cos(1.3 * i);
  return x;
}

double relative_diff(const Vec& a, const Vec& b) {
  return la::max_abs_diff(a, b) / la::norm_inf(b);
}

/// The triplet scatter assemble_global has always used: every block's n^2
/// entries pushed in block order, then merged by from_triplets.
la::CsrMatrix triplet_scatter(const Hybrid& h) {
  const idx_t n = tsv_model().num_element_dofs();
  la::TripletList t(h.grid.num_dofs(), h.grid.num_dofs());
  for (int by = 0; by < h.grid.blocks_y(); ++by) {
    for (int bx = 0; bx < h.grid.blocks_x(); ++bx) {
      const bool is_tsv = h.mask[static_cast<std::size_t>(by) * h.grid.blocks_x() + bx] != 0;
      const DenseMatrix& k = is_tsv ? tsv_model().element_stiffness
                                    : dummy_model().element_stiffness;
      const std::vector<idx_t> dofs = h.grid.block_dofs(bx, by);
      for (idx_t i = 0; i < n; ++i) {
        for (idx_t j = 0; j < n; ++j) t.add(dofs[i], dofs[j], k(i, j));
      }
    }
  }
  return la::CsrMatrix::from_triplets(t);
}

TEST(BlockOperator, ApplyMatchesCsrSpmv) {
  const Hybrid h;
  const BlockOperator op = h.op();
  const la::CsrMatrix csr = op.to_csr();
  const Vec x = probe_vector(op.num_dofs());
  Vec y_op;
  Vec y_csr;
  op.apply(x, y_op);
  csr.mul(x, y_csr);
  EXPECT_LT(relative_diff(y_op, y_csr), 1e-13);
}

TEST(BlockOperator, DiagonalMatchesCsr) {
  const Hybrid h;
  const BlockOperator op = h.op();
  const Vec d_op = op.diagonal();
  const Vec d_csr = op.to_csr().diagonal();
  ASSERT_EQ(d_op.size(), d_csr.size());
  for (std::size_t i = 0; i < d_op.size(); ++i) EXPECT_DOUBLE_EQ(d_op[i], d_csr[i]) << i;
}

TEST(BlockOperator, ToCsrEqualsTripletScatterBitwise) {
  const Hybrid h;
  const la::CsrMatrix expected = triplet_scatter(h);
  const la::CsrMatrix csr = h.op().to_csr();
  EXPECT_EQ(csr.row_ptr(), expected.row_ptr());
  EXPECT_EQ(csr.col_idx(), expected.col_idx());
  EXPECT_EQ(csr.values(), expected.values());
  // assemble_global fills GlobalProblem::stiffness through the same path.
  const GlobalProblem problem = h.problem();
  EXPECT_EQ(problem.stiffness.values(), expected.values());
  ASSERT_NE(problem.op, nullptr);
}

TEST(BlockOperator, KrylovSolvesMatchDirect) {
  const Hybrid h;
  const fem::DirichletBc bc = h.bc();
  GlobalSolveOptions direct;
  direct.method = "direct";
  GlobalProblem p_direct = h.problem();
  const Vec u_direct = solve_global(p_direct, bc, direct);

  for (const char* method : {"cg", "gmres"}) {
    for (const char* precond : {"jacobi", "ssor"}) {
      GlobalSolveOptions options;
      options.method = method;
      options.precond = precond;
      options.rel_tol = 1e-13;
      GlobalProblem problem = h.problem();
      GlobalSolveStats stats;
      const Vec u = solve_global(problem, bc, options, &stats);
      EXPECT_TRUE(stats.converged) << method << "/" << precond;
      EXPECT_LT(relative_diff(u, u_direct), 1e-9) << method << "/" << precond;
    }
  }
}

TEST(BlockOperator, KrylovPathReportsOperatorStorage) {
  const Hybrid h;
  GlobalProblem problem = h.problem();
  GlobalSolveStats stats;
  (void)solve_global(problem, h.bc(), {}, &stats);
  EXPECT_EQ(stats.matrix_bytes, problem.op->memory_bytes());
  EXPECT_LT(stats.matrix_bytes, problem.stiffness.memory_bytes() / 10);
}

#ifdef _OPENMP
TEST(BlockOperator, CgSolutionIndependentOfThreadCount) {
  // 28 x 28 blocks (26 x 26 TSV blocks inside one dummy ring): enough work per
  // apply for the parallel block products.
  const BlockGrid grid = make_grid(28, 28);
  const BlockMask mask = mesh::padded_tsv_mask(28, 28, 1);
  const BlockLoadField load = BlockLoadField::uniform(-250.0);
  const auto op = std::make_shared<const BlockOperator>(grid, tsv_model(), &dummy_model(), mask);
  const Vec rhs = assemble_global_rhs(grid, tsv_model(), &dummy_model(), mask, load);
  const int saved = omp_get_max_threads();
  const auto solve = [&](int threads) {
    omp_set_num_threads(threads);
    GlobalProblem problem{{}, rhs, grid.num_dofs(), op};
    GlobalSolveOptions options;
    options.method = "cg";
    return solve_global(problem, clamp_top_bottom(grid), options);
  };
  const Vec one = solve(1);
  const Vec four = solve(4);
  omp_set_num_threads(saved);
  EXPECT_EQ(one, four);
}
#endif

TEST(BlockOperator, RejectsInvalidModels) {
  const Hybrid h;
  EXPECT_THROW(BlockOperator(h.grid, tsv_model(), nullptr, h.mask), std::invalid_argument);
  EXPECT_THROW(BlockOperator(h.grid, tsv_model(), &dummy_model(), {1, 0}),
               std::invalid_argument);
}

TEST(BlockOperator, KrylovMethodsRequireTheOperator) {
  const Hybrid h;
  GlobalProblem problem = h.problem();
  problem.op.reset();
  for (const char* method : {"cg", "gmres"}) {
    GlobalSolveOptions options;
    options.method = method;
    GlobalProblem copy = problem;
    EXPECT_THROW((void)solve_global(copy, h.bc(), options), std::invalid_argument) << method;
  }
  GlobalSolveOptions direct;
  direct.method = "direct";
  EXPECT_NO_THROW((void)solve_global(problem, h.bc(), direct));
}

// A stiffness that is symmetric only to rounding, as a model read back with
// RomModel::load may be: the operator applies K itself, not its transpose,
// and every path still solves.
TEST(BlockOperator, RoundingAsymmetricStiffnessSolvesOnEveryPath) {
  const Hybrid h;
  RomModel model = tsv_model();
  double& k01 = model.element_stiffness(0, 1);
  k01 = std::nextafter(k01, 2.0 * k01);
  ASSERT_GT(model.element_stiffness.symmetry_error(), 0.0);

  const BlockOperator op(h.grid, model, &dummy_model(), h.mask);
  const la::CsrMatrix csr = op.to_csr();
  const Vec x = probe_vector(op.num_dofs());
  Vec y_op;
  Vec y_csr;
  op.apply(x, y_op);
  csr.mul(x, y_csr);
  EXPECT_LT(relative_diff(y_op, y_csr), 1e-13);

  GlobalSolveOptions direct;
  direct.method = "direct";
  GlobalProblem p_direct = assemble_global(h.grid, model, &dummy_model(), h.mask, h.load);
  const Vec u_direct = solve_global(p_direct, h.bc(), direct);
  GlobalProblem p_cg = assemble_global(h.grid, model, &dummy_model(), h.mask, h.load);
  GlobalSolveOptions cg;
  cg.rel_tol = 1e-13;
  EXPECT_LT(relative_diff(solve_global(p_cg, h.bc(), cg), u_direct), 1e-9);
}

TEST(BlockOperator, ProblemOutlivesItsModels) {
  const Hybrid h;
  GlobalProblem problem;
  {
    const RomModel tsv = tsv_model();
    const RomModel dummy = dummy_model();
    problem = assemble_global(h.grid, tsv, &dummy, h.mask, h.load);
  }
  GlobalProblem expected_problem = h.problem();
  const Vec expected = solve_global(expected_problem, h.bc());
  EXPECT_EQ(solve_global(problem, h.bc()), expected);
}

}  // namespace
}  // namespace ms::rom
