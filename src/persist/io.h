#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace autoindex {
namespace persist {

// File IO for the durability layer. All durable bytes flow through these
// helpers, which makes two things possible in one place: every error
// surfaces as a Status (scripts/analysis bans raw fstream use outside
// src/persist/ for this reason), and the crash-injection hook below can
// tear any write at an exact byte to exercise recovery.

// Reads the whole file. NotFound when absent, Internal on read errors.
Status ReadFileToString(const std::string& path, std::string* out);

// Crash-safe replace: writes to `path`.tmp, fsyncs, renames over `path`,
// and fsyncs the parent directory. A crash (real or injected) at any
// point leaves either the old complete file or the new complete file —
// never a torn mix.
Status AtomicWriteFile(const std::string& path, const std::string& data);

// Truncates `path` to `size` bytes (drops a torn tail found by replay).
Status TruncateFile(const std::string& path, uint64_t size);

// --- crash injection ----------------------------------------------------
// Arms a global byte budget over all subsequent persist writes: once
// `budget` bytes have been written, the write in progress is cut short at
// exactly that byte and fails with Status::Internal("injected crash..."),
// simulating power loss mid-write. Negative disarms. The budget is also
// seeded from the AUTOINDEX_CRASH_AT_BYTE environment variable on first
// use, so shell experiments can tear writes without code changes.
void SetCrashAfterBytes(int64_t budget);
// Remaining budget; negative when disarmed.
int64_t CrashBudgetRemaining();
// True when a previous write already hit the injected crash point.
bool CrashTriggered();

// Internal: writes `len` bytes to `fd` honoring the crash budget. On an
// injected crash the leading slice of the data is still written (the torn
// prefix a real crash would leave) and Internal is returned.
Status CrashCheckedWrite(int fd, const char* data, size_t len);

}  // namespace persist
}  // namespace autoindex
