// A temporary directory of the running test's own, named by kind, test
// and process id, so build trees and runs sharing ::testing::TempDir()
// never see each other's files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace bgpcc::test {

/// `<TempDir()>/bgpcc_<kind>_<test name>_<pid><suffix>`. Removed on
/// construction (a killed run may have left it behind) and on
/// destruction; never created here, so a spill directory is still the
/// engine's to create.
class TestDir {
 public:
  explicit TestDir(const std::string& kind, const std::string& suffix = "")
      : path_(::testing::TempDir() + "/bgpcc_" + kind + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              "_" + std::to_string(::getpid()) + suffix) {
    std::filesystem::remove_all(path_);
  }
  ~TestDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace bgpcc::test
