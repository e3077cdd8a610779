#pragma once
// An oracle for SparseCholesky that shares no sparse code with it: the
// exported factor L is multiplied out row by row and compared against
// P A P^T read straight from the CSR matrix through the permutation, over
// every entry either side touches (all other entries are zero on both).

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "la/cholesky.hpp"

namespace ms::la {

/// max |(L L^T - P A P^T)(i, j)| / max |A(i, j)|.
inline double factor_reconstruction_error(const CsrMatrix& a, const SparseCholesky& chol) {
  std::vector<offset_t> col_ptr;
  std::vector<idx_t> row_idx;
  std::vector<double> values;
  chol.extract_factor(col_ptr, row_idx, values);
  const idx_t n = a.rows();
  const Permutation& p = chol.permutation();

  // Rows of L (column, value), from its column storage.
  std::vector<std::vector<std::pair<idx_t, double>>> rows(n);
  for (idx_t j = 0; j < n; ++j) {
    for (offset_t q = col_ptr[j]; q < col_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
      rows[row_idx[q]].emplace_back(j, values[q]);
    }
  }
  std::vector<double> diff(n, 0.0);
  std::vector<char> touched(n, 0);
  std::vector<idx_t> row_pattern;
  const auto touch = [&](idx_t k) {
    if (!touched[k]) {
      touched[k] = 1;
      row_pattern.push_back(k);
    }
  };
  double max_a = 0.0, max_diff = 0.0;
  for (idx_t i = 0; i < n; ++i) {
    // (L L^T)(i, k) = sum_j L(i, j) L(k, j) over the columns j of row i.
    for (const auto& [j, lij] : rows[i]) {
      for (offset_t q = col_ptr[j]; q < col_ptr[static_cast<std::size_t>(j) + 1]; ++q) {
        touch(row_idx[q]);
        diff[row_idx[q]] += lij * values[q];
      }
    }
    // (P A P^T)(i, k) = A(perm[i], perm[k]).
    const idx_t r = p.perm[i];
    for (offset_t q = a.row_ptr()[r]; q < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++q) {
      const idx_t k = p.inv_perm[a.col_idx()[q]];
      touch(k);
      diff[k] -= a.values()[q];
      max_a = std::max(max_a, std::abs(a.values()[q]));
    }
    for (const idx_t k : row_pattern) {
      max_diff = std::max(max_diff, std::abs(diff[k]));
      diff[k] = 0.0;
      touched[k] = 0;
    }
    row_pattern.clear();
  }
  return max_diff / max_a;
}

}  // namespace ms::la
