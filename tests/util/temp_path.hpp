#pragma once
// Per-test scratch file names. ctest runs every test as its own process, in
// parallel, and ::testing::TempDir() is shared: a fixed file name lets two
// tests clobber each other's output. The current test's full name plus the
// process id keeps each path unique.
//
// Header-only so every test suite can include it as "util/temp_path.hpp".

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace ms::testutil {

/// ::testing::TempDir() + "<Suite>.<Test>.<pid><suffix>".
inline std::string unique_temp_path(const std::string& suffix) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test = info != nullptr ? std::string(info->test_suite_name()) + "." +
                                                 info->name()
                                           : std::string("no_test");
  return ::testing::TempDir() + test + "." + std::to_string(::getpid()) + suffix;
}

}  // namespace ms::testutil
