#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace autoindex {

// Error categories surfaced by the library. Kept deliberately small: the
// engine treats anything other than kOk as a terminal failure for the
// current statement.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
};

// A lightweight absl::Status-like result carrier. Copyable, cheap for the
// kOk case (no allocation). [[nodiscard]] so that dropping an error on the
// floor requires an explicit (void) cast — scripts/analysis enforces the
// same rule textually for toolchains that miss the attribute.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Human-readable rendering, e.g. "InvalidArgument: bad token".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// A value-or-error holder in the spirit of absl::StatusOr. The value is
// only accessible when ok().
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return std::move(*value_); }

  T& operator*() & { return *value_; }
  const T& operator*() const& { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

// Aborts the process when a status is not OK. For scaffolding code whose
// failures are programming errors (workload populate with a fixed schema,
// example setup) where no caller can act on the error: aborting loudly
// beats threading a Status through a void API or dropping it silently.
inline void CheckOk(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "CheckOk failed: %s\n", status.ToString().c_str());
  std::abort();
}

template <typename T>
void CheckOk(const StatusOr<T>& status_or) {
  CheckOk(status_or.status());
}

}  // namespace autoindex
