#pragma once

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace pcss::testing {

/// A directory of its own under temp_directory_path(), made by mkdtemp so
/// that two runs of the suite on one machine never share (or delete) each
/// other's files. Removed with its contents when the object dies.
class TempDir {
 public:
  TempDir() {
    std::string pattern = (std::filesystem::temp_directory_path() / "pcss_test_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + pattern);
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  /// The path of `name` inside the directory.
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace pcss::testing
