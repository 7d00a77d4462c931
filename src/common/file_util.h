// Small filesystem helpers shared by the checkpoint writers (recovery,
// plan cache, stream state).

#ifndef ETLOPT_COMMON_FILE_UTIL_H_
#define ETLOPT_COMMON_FILE_UTIL_H_

#include <filesystem>
#include <functional>
#include <string>

#include "common/statusor.h"

namespace etlopt {

/// Writes `bytes` to `path` via a sibling temp file + rename, so readers
/// never observe a half-written file.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads the whole file into a byte string. IOError when the file cannot
/// be opened or read.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Bounded retention GC for stale checkpoints: of the entries directly
/// under `dir` that `matches` accepts, `keep` excluded, only the
/// `max_retained` most recently written survive; the rest are removed
/// (recursively), oldest first with the path as tie-break. Best-effort:
/// returns how many were removed and never fails.
size_t PruneOldestEntries(
    const std::string& dir, const std::string& keep, size_t max_retained,
    const std::function<bool(const std::filesystem::directory_entry&)>&
        matches);

}  // namespace etlopt

#endif  // ETLOPT_COMMON_FILE_UTIL_H_
