#include "la/cholesky.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ms::la {
namespace {

bool is_identity_order(const std::vector<idx_t>& order) {
  for (idx_t i = 0; i < static_cast<idx_t>(order.size()); ++i) {
    if (order[i] != i) return false;
  }
  return true;
}

// Registry handles are stable for the process lifetime; cache them once so
// the per-panel solve path records with lock-free atomics only (no registry
// mutex inside OpenMP regions).
struct CholeskyMetrics {
  obs::Counter& factorizations;
  obs::Counter& solve_rhs;
  obs::Histogram& factor_seconds;
  obs::Histogram& ordering_seconds;
  obs::Histogram& symbolic_seconds;
  obs::Histogram& numeric_seconds;
  obs::Histogram& solve_seconds;
  obs::Gauge& factor_nnz;
  obs::Gauge& fill_ratio;
  obs::Gauge& num_supernodes;
};

CholeskyMetrics& chol_metrics() {
  auto& reg = obs::MetricRegistry::global();
  static CholeskyMetrics m{reg.counter("la.cholesky.factorizations"),
                           reg.counter("la.cholesky.solve_rhs"),
                           reg.histogram("la.cholesky.factor_seconds"),
                           reg.histogram("la.cholesky.ordering_seconds"),
                           reg.histogram("la.cholesky.symbolic_seconds"),
                           reg.histogram("la.cholesky.numeric_seconds"),
                           reg.histogram("la.cholesky.solve_seconds"),
                           reg.gauge("la.cholesky.factor_nnz"),
                           reg.gauge("la.cholesky.fill_ratio"),
                           reg.gauge("la.cholesky.num_supernodes")};
  return m;
}

}  // namespace

SparseCholesky::SparseCholesky(const CsrMatrix& a) : SparseCholesky(a, Options{}) {}

SparseCholesky::SparseCholesky(const CsrMatrix& a, Options options) {
  if (a.rows() != a.cols()) throw std::invalid_argument("SparseCholesky: matrix must be square");
  CholeskyMetrics& metrics = chol_metrics();
  MS_TRACE_SCOPE("la.cholesky.factor");
  obs::ScopedDuration factor_timer(metrics.factor_seconds);
  n_ = a.rows();
  {
    MS_TRACE_SCOPE("la.cholesky.ordering");
    obs::ScopedDuration timer(metrics.ordering_seconds);
    perm_ = amd_ordering(a);
  }
  // The numeric phase consumes a permuted copy (kept only through
  // construction, but owned by the memory ledger as part of the peak
  // footprint), and the symbolic and numeric phases share one elimination
  // tree.
  CsrMatrix pa;
  std::vector<idx_t> parent;
  {
    MS_TRACE_SCOPE("la.cholesky.symbolic");
    obs::ScopedDuration timer(metrics.symbolic_seconds);
    pa = permute_symmetric(a, perm_);
    parent = elimination_tree(pa);
    // Postorder the elimination tree so supernode columns land consecutively
    // (fill-neutral relabeling).
    const std::vector<idx_t> post = etree_postorder(parent);
    if (!is_identity_order(post)) {
      Permutation p2;
      p2.perm = post;
      p2.inv_perm.assign(n_, 0);
      for (idx_t i = 0; i < n_; ++i) p2.inv_perm[p2.perm[i]] = i;
      perm_ = perm_.then(p2);
      pa = permute_symmetric(pa, p2);  // == P2 (P A P^T) P2^T
      // A postorder is etree-consistent (children numbered before parents),
      // so the tree of the relabeled matrix is the relabeled tree — no
      // second symbolic sweep needed.
      std::vector<idx_t> relabeled(static_cast<std::size_t>(n_));
      for (idx_t v = 0; v < n_; ++v) {
        relabeled[p2.inv_perm[v]] = parent[v] == -1 ? -1 : p2.inv_perm[parent[v]];
      }
      parent = std::move(relabeled);
    }
    matrix_lower_nnz_ = 0;
    for (idx_t r = 0; r < n_; ++r) {
      const offset_t end = pa.row_ptr()[static_cast<std::size_t>(r) + 1];
      for (offset_t p = pa.row_ptr()[r]; p < end; ++p) {
        if (pa.col_idx()[p] <= r) ++matrix_lower_nnz_;
      }
    }
    permuted_matrix_bytes_ = pa.memory_bytes();
    snf_ = analyze_supernodes(pa, parent, cholesky_column_counts(pa, parent),
                              options.max_supernode_width);
  }
  {
    MS_TRACE_SCOPE("la.cholesky.numeric");
    obs::ScopedDuration timer(metrics.numeric_seconds);
    factorize_supernodal(pa, parent, snf_);
  }
  metrics.factorizations.add(1);
  metrics.factor_nnz.set(static_cast<double>(factor_nnz()));
  metrics.fill_ratio.set(fill_ratio());
  metrics.num_supernodes.set(static_cast<double>(num_supernodes()));
}

Vec SparseCholesky::solve(const Vec& b) const {
  assert(static_cast<idx_t>(b.size()) == n_);
  Vec x(b.size());
  Vec work;
  solve_multi(b.data(), x.data(), 1, work);
  return x;
}

namespace {

/// The gather / panel solve / scatter both solve_multi forms share: case r
/// reads its right-hand side from `rhs(r)` and writes its solution to
/// `sol(r)` (each n contiguous values), so the packed and the per-case entry
/// points go through `work` alone, with no staging copy of either side.
template <class Rhs, class Sol>
void panel_solve(const std::vector<idx_t>& perm, const SupernodalFactor& snf, idx_t nrhs,
                 Vec& work, Rhs rhs, Sol sol) {
  assert(nrhs >= 1);
  CholeskyMetrics& metrics = chol_metrics();
  MS_TRACE_SCOPE("la.cholesky.triangular_solve");
  obs::ScopedDuration solve_timer(metrics.solve_seconds);
  metrics.solve_rhs.add(nrhs);
  const auto n = static_cast<idx_t>(perm.size());
  work.resize(static_cast<std::size_t>(n) * nrhs);
  double* y = work.data();
  // Gather into the permuted, dof-major layout (all nrhs values of one dof
  // contiguous): the innermost per-case loops of the kernels then vectorize
  // and every factor entry is loaded once per panel instead of once per rhs.
  for (idx_t i = 0; i < n; ++i) {
    const idx_t src = perm[i];
    double* yi = y + static_cast<std::size_t>(i) * nrhs;
    for (idx_t r = 0; r < nrhs; ++r) yi[r] = rhs(r)[src];
  }
  supernodal_forward_solve(snf, y, nrhs);
  supernodal_backward_solve(snf, y, nrhs);
  for (idx_t i = 0; i < n; ++i) {
    const idx_t dst = perm[i];
    const double* yi = y + static_cast<std::size_t>(i) * nrhs;
    for (idx_t r = 0; r < nrhs; ++r) sol(r)[dst] = yi[r];
  }
}

}  // namespace

std::vector<Vec> SparseCholesky::solve_multi(const std::vector<Vec>& cases) const {
  for (std::size_t c = 0; c < cases.size(); ++c) {
    assert(static_cast<idx_t>(cases[c].size()) == n_);
  }
  std::vector<Vec> solutions(cases.size(), Vec(static_cast<std::size_t>(n_)));
  Vec work;
  panel_solve(
      perm_.perm, snf_, static_cast<idx_t>(cases.size()), work,
      [&cases](idx_t r) { return cases[static_cast<std::size_t>(r)].data(); },
      [&solutions](idx_t r) { return solutions[static_cast<std::size_t>(r)].data(); });
  return solutions;
}

void SparseCholesky::solve_multi(const double* b, double* x, idx_t nrhs, Vec& work) const {
  const std::size_t n = static_cast<std::size_t>(n_);
  panel_solve(
      perm_.perm, snf_, nrhs, work, [b, n](idx_t r) { return b + static_cast<std::size_t>(r) * n; },
      [x, n](idx_t r) { return x + static_cast<std::size_t>(r) * n; });
}

offset_t SparseCholesky::factor_nnz() const { return snf_.factor_nnz(); }

double SparseCholesky::fill_ratio() const {
  return matrix_lower_nnz_ > 0
             ? static_cast<double>(factor_nnz()) / static_cast<double>(matrix_lower_nnz_)
             : 1.0;
}

std::size_t SparseCholesky::memory_bytes() const {
  return 2 * perm_.perm.size() * sizeof(idx_t) + permuted_matrix_bytes_ + snf_.memory_bytes();
}

void SparseCholesky::extract_factor(std::vector<offset_t>& col_ptr, std::vector<idx_t>& row_idx,
                                    std::vector<double>& values) const {
  col_ptr.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (idx_t s = 0; s < snf_.num_supernodes; ++s) {
    const idx_t c0 = snf_.super_start[s];
    const idx_t w = snf_.super_start[static_cast<std::size_t>(s) + 1] - c0;
    const offset_t m = snf_.row_start[static_cast<std::size_t>(s) + 1] - snf_.row_start[s];
    for (idx_t j = 0; j < w; ++j) {
      col_ptr[static_cast<std::size_t>(c0 + j) + 1] = m - j;
    }
  }
  for (idx_t j = 0; j < n_; ++j) col_ptr[static_cast<std::size_t>(j) + 1] += col_ptr[j];
  row_idx.assign(static_cast<std::size_t>(col_ptr[n_]), 0);
  values.assign(static_cast<std::size_t>(col_ptr[n_]), 0.0);
  for (idx_t s = 0; s < snf_.num_supernodes; ++s) {
    const idx_t c0 = snf_.super_start[s];
    const idx_t w = snf_.super_start[static_cast<std::size_t>(s) + 1] - c0;
    const offset_t r0 = snf_.row_start[s];
    const idx_t m = static_cast<idx_t>(snf_.row_start[static_cast<std::size_t>(s) + 1] - r0);
    const idx_t* rs = snf_.rows.data() + r0;
    const double* panel = snf_.values.data() + snf_.val_start[s];
    for (idx_t j = 0; j < w; ++j) {
      offset_t out = col_ptr[c0 + j];
      for (idx_t i = j; i < m; ++i) {
        row_idx[out] = rs[i];
        values[out] = panel[static_cast<std::size_t>(j) * m + i];
        ++out;
      }
    }
  }
}

}  // namespace ms::la
