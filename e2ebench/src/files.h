// Directory helpers that report failure as a Status instead of throwing.

#ifndef E2EBENCH_FILES_H_
#define E2EBENCH_FILES_H_

#include <filesystem>
#include <string>
#include <system_error>

#include "common/status.h"

namespace e2ebench {

/// rm -rf; a missing path is fine.
inline void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

/// cp -r from to (`to` must not exist yet).
inline slicetuner::Status CopyTree(const std::string& from,
                                   const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  if (ec) {
    return slicetuner::Status::Internal("copy " + from + " -> " + to + ": " +
                                        ec.message());
  }
  return slicetuner::Status::OK();
}

}  // namespace e2ebench

#endif  // E2EBENCH_FILES_H_
