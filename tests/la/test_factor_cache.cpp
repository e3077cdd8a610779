#include "la/factor_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ms::la {
namespace {

/// 2-D 5-point Laplacian on an m x m grid (SPD, sparse, realistic fill).
CsrMatrix laplacian_2d(idx_t m) {
  const idx_t n = m * m;
  TripletList t(n, n);
  for (idx_t j = 0; j < m; ++j) {
    for (idx_t i = 0; i < m; ++i) {
      const idx_t u = j * m + i;
      t.add(u, u, 4.0);
      if (i > 0) t.add(u, u - 1, -1.0);
      if (i + 1 < m) t.add(u, u + 1, -1.0);
      if (j > 0) t.add(u, u - m, -1.0);
      if (j + 1 < m) t.add(u, u + m, -1.0);
    }
  }
  return CsrMatrix::from_triplets(t);
}

FactorCache::Entry build_entry(idx_t m) {
  FactorCache::Entry entry;
  auto matrix = std::make_shared<CsrMatrix>(laplacian_2d(m));
  entry.factor = std::make_shared<SparseCholesky>(*matrix);
  entry.matrix = std::move(matrix);
  return entry;
}

TEST(FactorCache, MissBuildsThenHitsShareOneEntry) {
  FactorCache cache;
  EXPECT_FALSE(cache.contains("k"));
  bool built = false;
  const FactorCache::Entry first = cache.get_or_create("k", [] { return build_entry(6); }, &built);
  EXPECT_TRUE(built);
  EXPECT_TRUE(cache.contains("k"));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const FactorCache::Entry second =
      cache.get_or_create("k", [] { return build_entry(6); }, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(second.factor.get(), first.factor.get());
  EXPECT_EQ(second.matrix.get(), first.matrix.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FactorCache, DistinctKeysBuildDistinctEntries) {
  FactorCache cache;
  const auto a = cache.get_or_create("a", [] { return build_entry(4); });
  const auto b = cache.get_or_create("b", [] { return build_entry(5); });
  EXPECT_NE(a.factor.get(), b.factor.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(FactorCache, SingleFlightUnderContention) {
  // Many threads race on one absent key: exactly one builder run, everyone
  // gets the same entry — num_factorizations stays deterministic.
  FactorCache cache;
  std::atomic<int> builds{0};
  std::atomic<int> built_flags{0};
  constexpr int kThreads = 8;
  std::vector<const SparseCholesky*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool built = false;
      const auto entry = cache.get_or_create(
          "shared",
          [&] {
            builds.fetch_add(1);
            return build_entry(10);
          },
          &built);
      if (built) built_flags.fetch_add(1);
      seen[static_cast<std::size_t>(t)] = entry.factor.get();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_flags.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(FactorCache, SharedFactorSolvesConcurrently) {
  // Sweep workers share one cached factor and solve on it at once. Every
  // solve owns its scratch and the factor is never written after
  // construction, so concurrent results match serial ones bit for bit (and
  // TSan sees no race).
  FactorCache cache;
  const auto build = [] { return build_entry(12); };
  const FactorCache::Entry entry = cache.get_or_create("shared", build);
  const std::size_t n = static_cast<std::size_t>(entry.matrix->rows());
  constexpr int kThreads = 4;
  constexpr int kCases = 3;
  std::vector<Vec> rhs(kThreads, Vec(n));
  std::vector<std::vector<Vec>> cases(kThreads, std::vector<Vec>(kCases, Vec(n)));
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      const double u = static_cast<double>(i);
      rhs[t][i] = std::sin(0.1 * u + t);
      for (int c = 0; c < kCases; ++c) cases[t][c][i] = std::cos(0.05 * u * (c + 1) + t);
    }
  }

  std::vector<Vec> single(kThreads);
  std::vector<std::vector<Vec>> multi(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const FactorCache::Entry shared = cache.get_or_create("shared", build);
      for (int rep = 0; rep < 4; ++rep) {
        single[t] = shared.factor->solve(rhs[t]);
        multi[t] = shared.factor->solve_multi(cases[t]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const Vec serial = entry.factor->solve(rhs[t]);
    ASSERT_EQ(single[t].size(), n);
    EXPECT_EQ(std::memcmp(single[t].data(), serial.data(), n * sizeof(double)), 0) << t;
    const std::vector<Vec> serial_multi = entry.factor->solve_multi(cases[t]);
    ASSERT_EQ(multi[t].size(), static_cast<std::size_t>(kCases));
    for (int c = 0; c < kCases; ++c) {
      ASSERT_EQ(multi[t][c].size(), n);
      EXPECT_EQ(std::memcmp(multi[t][c].data(), serial_multi[c].data(), n * sizeof(double)), 0)
          << "thread " << t << " case " << c;
    }
  }
}

TEST(FactorCache, ThrowingBuilderClearsSlotForRetry) {
  FactorCache cache;
  EXPECT_THROW(cache.get_or_create("k",
                                   []() -> FactorCache::Entry {
                                     throw std::runtime_error("assembly failed");
                                   }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains("k"));
  // The failed build left no slot behind; the next caller builds cleanly.
  bool built = false;
  const auto entry = cache.get_or_create("k", [] { return build_entry(4); }, &built);
  EXPECT_TRUE(built);
  EXPECT_NE(entry.factor, nullptr);
  EXPECT_TRUE(cache.contains("k"));
}

TEST(FactorCache, WaitersRetryAfterBuilderFailure) {
  // Contention on one key whose FIRST builder invocation throws: the failed
  // claimant must erase its pending slot (not poison it), the waiters race
  // to claim the retry, exactly one rebuilds, and everyone else shares the
  // rebuilt entry. This is the protocol cancelled/faulted sweep queries
  // lean on — a thrown builder never wedges later scenarios.
  FactorCache cache;
  std::atomic<int> attempts{0};
  std::atomic<int> exceptions{0};
  std::atomic<int> successes{0};
  constexpr int kThreads = 8;
  std::vector<const SparseCholesky*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        const auto entry = cache.get_or_create("shared", [&] {
          if (attempts.fetch_add(1) == 0) throw std::runtime_error("injected build failure");
          return build_entry(8);
        });
        successes.fetch_add(1);
        seen[static_cast<std::size_t>(t)] = entry.factor.get();
      } catch (const std::runtime_error&) {
        exceptions.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Exactly one thread saw the failure; every other got the one rebuilt
  // factor. Two claims total (failed + retry), the rest were hits.
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(exceptions.load(), 1);
  EXPECT_EQ(successes.load(), kThreads - 1);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 2));
  EXPECT_EQ(cache.size(), 1u);
  const SparseCholesky* shared = nullptr;
  for (const SparseCholesky* factor : seen) {
    if (factor == nullptr) continue;
    if (shared == nullptr) shared = factor;
    EXPECT_EQ(factor, shared);
  }
  EXPECT_NE(shared, nullptr);
}

TEST(FactorCache, ClearDropsEntriesButCallersKeepTheirs) {
  FactorCache cache;
  const auto entry = cache.get_or_create("k", [] { return build_entry(4); });
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains("k"));
  EXPECT_NE(entry.factor, nullptr);  // shared_ptr keeps the factor alive
  const Vec rhs(static_cast<std::size_t>(entry.matrix->rows()), 1.0);
  const Vec x = entry.factor->solve(rhs);
  EXPECT_EQ(x.size(), rhs.size());
}

}  // namespace
}  // namespace ms::la
