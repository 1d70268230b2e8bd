#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

// The benchmark's own span recorder. Spans are taken around the calls the
// benchmark makes into each module's public functions (never inside
// src/), kept in per-thread memory while the run lasts, and aggregated or
// written out as Chrome trace JSON when it ends. Span sites take the
// recorder as a nullable pointer: null means "not traced" and costs one
// branch.
struct SpanRecord {
  const char* name = "";
  uint32_t parent = 0;  // 1-based index into the same thread's spans; 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One row of the per-layer table.
struct SpanSummary {
  std::string name;
  size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  // Exact p99 of span durations; negative when too few spans lie beyond
  // it (see ExactPercentile).
  double p99_us = -1.0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span on the calling thread, nested under its innermost open
  // span; returns a handle for End.
  uint32_t Begin(const char* name);
  void End(uint32_t handle);
  // Records an already finished interval as a child of the calling
  // thread's innermost open span.
  void AddCompleted(const char* name, Clock::time_point start,
                    Clock::time_point end);

  // Per-name aggregate over every thread; self time is a span's duration
  // minus the part covered by its children.
  std::vector<SpanSummary> Summarize() const;

  // Chrome trace-event JSON ("X" events, microseconds), at most
  // `max_events` spans.
  std::string ChromeTraceJson(size_t max_events) const;

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<uint32_t> open;  // stack of 1-based indices
  };

  ThreadBuffer& ThisThread();

  const uint64_t generation_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        handle_(recorder != nullptr ? recorder->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(handle_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  uint32_t handle_;
};

}  // namespace wallbench
