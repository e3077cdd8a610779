#include "la/gmres.hpp"

#include <cmath>
#include <vector>

namespace ms::la {

IterativeResult gmres(const std::function<void(const Vec&, Vec&)>& apply_a, const Vec& b, Vec& x,
                      const Preconditioner* precond, const GmresOptions& options) {
  const std::size_t n = b.size();
  const idx_t m = options.restart;
  IterativeResult result;
  result.rhs_norm = norm2(b);
  const double target = std::max(options.rel_tol * result.rhs_norm, options.abs_tol);

  // A zero right-hand side has the exact solution x = 0, whatever the start.
  if (!options.use_initial_guess || x.size() != n || result.rhs_norm == 0.0) x.assign(n, 0.0);
  if (result.rhs_norm == 0.0) {
    result.converged = true;
    return result;
  }

  auto apply_m = [&](const Vec& in, Vec& out) {
    if (precond != nullptr) {
      precond->apply(in, out);
    } else {
      out = in;
    }
  };

  // Arnoldi basis (m+1 vectors) and Hessenberg in column-major-ish layout.
  std::vector<Vec> v(static_cast<std::size_t>(m) + 1, Vec(n));
  std::vector<std::vector<double>> h(static_cast<std::size_t>(m) + 1,
                                     std::vector<double>(m, 0.0));
  std::vector<double> cs(m), sn(m), g(static_cast<std::size_t>(m) + 1);
  Vec r(n), w(n), tmp(n);

  idx_t total_iters = 0;
  double prev_outer_residual = -1.0;
  while (total_iters < options.max_iterations) {
    // True residual decides convergence; the preconditioned residual only
    // drives the Krylov recurrence (comparing M^{-1} r against a target
    // derived from |b| would exit far too early for scaling preconditioners).
    apply_a(x, tmp);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = b[i] - tmp[i];
    result.residual_norm = norm2(tmp);
    if (result.residual_norm <= target) {
      result.converged = true;
      return result;
    }
    if (!std::isfinite(result.residual_norm)) {
      result.breakdown = true;
      result.breakdown_reason = "non-finite residual";
      return result;
    }
    // A restart cycle that made no progress means the operator is singular
    // or the system inconsistent — looping to max_iterations would just
    // repeat it. Structured breakdown instead.
    if (prev_outer_residual >= 0.0 && result.residual_norm >= prev_outer_residual * (1.0 - 1e-12)) {
      result.breakdown = true;
      result.breakdown_reason = "stagnation (restart cycle made no progress)";
      return result;
    }
    prev_outer_residual = result.residual_norm;
    apply_m(tmp, r);
    const double beta = norm2(r);
    if (beta == 0.0) {
      result.converged = true;
      return result;
    }
    if (!std::isfinite(beta)) {
      result.breakdown = true;
      result.breakdown_reason = "non-finite preconditioned residual";
      return result;
    }

    for (std::size_t i = 0; i < n; ++i) v[0][i] = r[i] / beta;
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;
    // Inner-loop exit threshold in the preconditioned norm, proportional to
    // the current preconditioned/true residual ratio; the outer true-residual
    // check above remains authoritative.
    const double inner_target = target * beta / result.residual_norm;

    idx_t k = 0;
    for (; k < m && total_iters < options.max_iterations; ++k, ++total_iters) {
      // w = M^{-1} A v_k
      apply_a(v[k], tmp);
      apply_m(tmp, w);
      // Modified Gram-Schmidt.
      for (idx_t i = 0; i <= k; ++i) {
        h[i][k] = dot(w, v[i]);
        axpy(-h[i][k], v[i], w);
      }
      h[static_cast<std::size_t>(k) + 1][k] = norm2(w);
      if (h[static_cast<std::size_t>(k) + 1][k] > 0.0) {
        for (std::size_t i = 0; i < n; ++i) {
          v[static_cast<std::size_t>(k) + 1][i] = w[i] / h[static_cast<std::size_t>(k) + 1][k];
        }
      }
      // Apply accumulated Givens rotations to the new column.
      for (idx_t i = 0; i < k; ++i) {
        const double t = cs[i] * h[i][k] + sn[i] * h[static_cast<std::size_t>(i) + 1][k];
        h[static_cast<std::size_t>(i) + 1][k] =
            -sn[i] * h[i][k] + cs[i] * h[static_cast<std::size_t>(i) + 1][k];
        h[i][k] = t;
      }
      // New rotation annihilating the subdiagonal.
      const double hk = h[k][k];
      const double hk1 = h[static_cast<std::size_t>(k) + 1][k];
      const double denom = std::hypot(hk, hk1);
      if (denom == 0.0) {
        cs[k] = 1.0;
        sn[k] = 0.0;
      } else {
        cs[k] = hk / denom;
        sn[k] = hk1 / denom;
      }
      h[k][k] = cs[k] * hk + sn[k] * hk1;
      h[static_cast<std::size_t>(k) + 1][k] = 0.0;
      g[static_cast<std::size_t>(k) + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];

      result.iterations = total_iters + 1;
      if (std::fabs(g[static_cast<std::size_t>(k) + 1]) <= inner_target) {
        ++k;
        break;
      }
    }

    // Solve the small triangular system and update x. A zero or non-finite
    // pivot means the Hessenberg lost rank (singular operator): report the
    // breakdown and leave x at its last consistent state.
    std::vector<double> y(k, 0.0);
    bool y_ok = true;
    for (idx_t i = k - 1; i >= 0; --i) {
      double sum = g[i];
      for (idx_t j = i + 1; j < k; ++j) sum -= h[i][j] * y[j];
      if (h[i][i] == 0.0) {
        y_ok = false;
        break;
      }
      y[i] = sum / h[i][i];
      if (!std::isfinite(y[i])) {
        y_ok = false;
        break;
      }
    }
    if (!y_ok) {
      result.breakdown = true;
      result.breakdown_reason = "rank-deficient Hessenberg (singular operator)";
      return result;
    }
    for (idx_t i = 0; i < k; ++i) axpy(y[i], v[i], x);

    // Convergence check on the true residual.
    apply_a(x, tmp);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = b[i] - tmp[i];
    result.residual_norm = norm2(tmp);
    if (result.residual_norm <= std::max(options.rel_tol * result.rhs_norm, options.abs_tol)) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

IterativeResult gmres(const CsrMatrix& a, const Vec& b, Vec& x, const Preconditioner* precond,
                      const GmresOptions& options) {
  return gmres([&a](const Vec& in, Vec& out) { a.mul(in, out); }, b, x, precond, options);
}

}  // namespace ms::la
