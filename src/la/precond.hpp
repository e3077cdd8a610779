#pragma once
// Preconditioners for the Krylov solvers. Jacobi (diagonal) is the default
// for the small, well-conditioned reduced global systems; symmetric
// Gauss-Seidel (SSOR with omega=1) accelerates the fine-mesh reference FEM
// solves where the elasticity operator is much stiffer.

#include <functional>
#include <memory>
#include <string>

#include "la/sparse.hpp"

namespace ms::la {

/// Interface: z = M^{-1} r for a fixed matrix A provided at construction.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Apply the preconditioner: z = M^{-1} r.
  virtual void apply(const Vec& r, Vec& z) const = 0;

  /// Resident bytes for the memory ledger.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;
};

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const Vec& r, Vec& z) const override { z = r; }
  [[nodiscard]] std::size_t memory_bytes() const override { return 0; }
};

/// Diagonal scaling; zero diagonals are treated as 1 so the apply stays safe.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  /// From diag(A) directly, for operators that are never assembled.
  explicit JacobiPreconditioner(Vec diagonal);
  void apply(const Vec& r, Vec& z) const override;
  [[nodiscard]] std::size_t memory_bytes() const override;

 private:
  Vec inv_diag_;
};

/// Symmetric successive over-relaxation (forward + backward Gauss-Seidel
/// sweep). Keeps a reference to A; A must outlive the preconditioner.
class SsorPreconditioner final : public Preconditioner {
 public:
  explicit SsorPreconditioner(const CsrMatrix& a, double omega = 1.0);
  void apply(const Vec& r, Vec& z) const override;
  [[nodiscard]] std::size_t memory_bytes() const override;

 private:
  const CsrMatrix& a_;
  double omega_;
  Vec inv_diag_;
};

enum class PreconditionerKind { kNone, kJacobi, kSsor };

/// Parse "none" | "jacobi" | "ssor" — the one place a preconditioner name
/// is read. Throws std::invalid_argument naming the valid set on any other
/// name.
PreconditionerKind parse_preconditioner(const std::string& name);

/// Build a preconditioner for an operator that need not be assembled: kNone
/// and kJacobi use only `diagonal` (called once, by kJacobi); kSsor sweeps
/// `a`, which must then be non-null (std::logic_error otherwise) and outlive
/// the preconditioner.
std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind,
                                                    const std::function<Vec()>& diagonal,
                                                    const CsrMatrix* a);

}  // namespace ms::la
