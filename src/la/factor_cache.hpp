#pragma once
// Cross-scenario factorization memoization for the sweep engine.
//
// A sweep over a trace family (duty / period / amplitude variations of one
// layout) re-solves the same lifted operator with different right-hand
// sides; the factorization — the dominant cost of every direct path — can
// be built once and shared. FactorCache maps an opaque string key (composed
// by the caller from everything that determines the lifted operator: mesh,
// materials, mask, factor options, and the constrained-dof *set* — BC
// values excluded, see DESIGN.md) to a factorized operator plus, when the
// caller needs right-hand-side lifting against the original matrix, the
// unlifted operator it was built from.
//
// get_or_create is single-flight: when several sweep workers race on one
// key, exactly one runs the builder while the rest wait on the slot, so
// `num_factorizations` stays deterministic (one per distinct key) no matter
// the thread schedule. Entries are never evicted; the owning engine's
// lifetime bounds the cache. A SparseCholesky is never written after
// construction, so any number of threads may solve on one shared factor.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "la/cholesky.hpp"
#include "la/sparse.hpp"

namespace ms::la {

class FactorCache {
 public:
  struct Entry {
    /// The operator *before* Dirichlet lifting, kept when the caller lifts
    /// right-hand sides separately (null when the path never needs it, e.g.
    /// the transient stepper which re-assembles A for the correction term).
    std::shared_ptr<const CsrMatrix> matrix;
    std::shared_ptr<const SparseCholesky> factor;
    /// Non-zero when the factor was rescued by the diagonal shift-retry
    /// ladder (see la/shift_retry.hpp): every solve through this entry —
    /// warm hits included — must report its stats as degraded.
    double diagonal_shift = 0.0;
  };

  /// Return the entry under `key`, running `build` if absent. Concurrent
  /// callers of one absent key block until the single in-flight build
  /// finishes. `built` (optional) reports whether *this* call ran the
  /// builder — the caller's num_factorizations contribution. A throwing
  /// builder clears the slot (the next caller retries) and rethrows.
  Entry get_or_create(const std::string& key, const std::function<Entry()>& build,
                      bool* built = nullptr);

  /// True when `key` is resident and ready (in-flight builds don't count).
  /// Lets callers skip work that only a cache miss needs — e.g. the global
  /// stage skips matrix assembly when the factor is already resident.
  [[nodiscard]] bool contains(const std::string& key) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Drop every entry (callers holding shared_ptrs keep theirs alive).
  /// Not safe to call concurrently with get_or_create.
  void clear();

 private:
  struct Slot {
    bool ready = false;  // false while the owning builder runs
    Entry entry;
  };

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::unordered_map<std::string, Slot> slots_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace ms::la
