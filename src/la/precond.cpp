#include "la/precond.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace ms::la {

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a)
    : JacobiPreconditioner(a.diagonal()) {}

JacobiPreconditioner::JacobiPreconditioner(Vec diagonal) : inv_diag_(std::move(diagonal)) {
  for (double& d : inv_diag_) d = (d != 0.0) ? 1.0 / d : 1.0;
}

void JacobiPreconditioner::apply(const Vec& r, Vec& z) const {
  assert(r.size() == inv_diag_.size());
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = inv_diag_[i] * r[i];
}

std::size_t JacobiPreconditioner::memory_bytes() const {
  return inv_diag_.size() * sizeof(double);
}

SsorPreconditioner::SsorPreconditioner(const CsrMatrix& a, double omega)
    : a_(a), omega_(omega), inv_diag_(a.diagonal()) {
  if (omega <= 0.0 || omega >= 2.0) throw std::invalid_argument("SsorPreconditioner: omega in (0,2)");
  for (double& d : inv_diag_) d = (d != 0.0) ? 1.0 / d : 1.0;
}

void SsorPreconditioner::apply(const Vec& r, Vec& z) const {
  const idx_t n = a_.rows();
  assert(static_cast<idx_t>(r.size()) == n);
  z.assign(n, 0.0);
  const auto& row_ptr = a_.row_ptr();
  const auto& col = a_.col_idx();
  const auto& val = a_.values();

  // Forward sweep: (D/omega + L) z = r.
  for (idx_t i = 0; i < n; ++i) {
    double sum = r[i];
    const offset_t end = row_ptr[static_cast<std::size_t>(i) + 1];
    for (offset_t k = row_ptr[i]; k < end; ++k) {
      const idx_t j = col[k];
      if (j < i) sum -= val[k] * z[j];
    }
    z[i] = omega_ * inv_diag_[i] * sum;
  }
  // Scale by D/omega (SSOR middle factor), then backward sweep.
  for (idx_t i = 0; i < n; ++i) z[i] /= omega_ * inv_diag_[i];
  for (idx_t i = n - 1; i >= 0; --i) {
    double sum = z[i];
    const offset_t end = row_ptr[static_cast<std::size_t>(i) + 1];
    for (offset_t k = row_ptr[i]; k < end; ++k) {
      const idx_t j = col[k];
      if (j > i) sum -= val[k] * z[j];
    }
    z[i] = omega_ * inv_diag_[i] * sum;
  }
}

std::size_t SsorPreconditioner::memory_bytes() const {
  return inv_diag_.size() * sizeof(double);
}

PreconditionerKind parse_preconditioner(const std::string& name) {
  if (name == "none") return PreconditionerKind::kNone;
  if (name == "jacobi") return PreconditionerKind::kJacobi;
  if (name == "ssor") return PreconditionerKind::kSsor;
  throw std::invalid_argument("unknown preconditioner '" + name +
                              "' (valid: none, jacobi, ssor)");
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const std::function<Vec()>& diagonal,
                                                    const CsrMatrix* a) {
  if (kind == PreconditionerKind::kNone) return std::make_unique<IdentityPreconditioner>();
  if (kind == PreconditionerKind::kJacobi) {
    return std::make_unique<JacobiPreconditioner>(diagonal());
  }
  if (a == nullptr) throw std::logic_error("make_preconditioner: ssor needs an assembled matrix");
  return std::make_unique<SsorPreconditioner>(*a);
}

}  // namespace ms::la
