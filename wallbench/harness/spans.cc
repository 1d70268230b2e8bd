#include "harness/spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "harness/percentiles.h"

namespace wallbench {
namespace {

std::atomic<uint64_t> g_generation{0};

// The calling thread's buffer in the recorder of `generation`; a thread
// that meets a newer recorder registers a fresh buffer with it.
struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

int64_t NsSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder()
    : generation_(g_generation.fetch_add(1) + 1), epoch_(Clock::now()) {}

SpanRecorder::ThreadBuffer& SpanRecorder::ThisThread() {
  if (t_slot.generation != generation_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = static_cast<uint32_t>(buffers_.size() + 1);
    t_slot = ThreadSlot{generation_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(t_slot.buffer);
}

uint32_t SpanRecorder::Begin(const char* name) {
  ThreadBuffer& b = ThisThread();
  SpanRecord span;
  span.name = name;
  span.parent = b.open.empty() ? 0 : b.open.back();
  span.start_ns = NsSince(epoch_, Clock::now());
  b.spans.push_back(span);
  const uint32_t handle = static_cast<uint32_t>(b.spans.size());
  b.open.push_back(handle);
  return handle;
}

void SpanRecorder::End(uint32_t handle) {
  ThreadBuffer& b = ThisThread();
  b.spans[handle - 1].end_ns = NsSince(epoch_, Clock::now());
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

void SpanRecorder::AddCompleted(const char* name, Clock::time_point start,
                                Clock::time_point end) {
  ThreadBuffer& b = ThisThread();
  SpanRecord span;
  span.name = name;
  span.parent = b.open.empty() ? 0 : b.open.back();
  span.start_ns = NsSince(epoch_, start);
  span.end_ns = NsSince(epoch_, end);
  b.spans.push_back(span);
}

std::vector<SpanSummary> SpanRecorder::Summarize() const {
  struct Acc {
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Acc> by_name;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    const std::vector<SpanRecord>& spans = buffer->spans;
    std::vector<double> child_us(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent != 0) {
        child_us[s.parent - 1] += (s.end_ns - s.start_ns) / 1000.0;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double us = (spans[i].end_ns - spans[i].start_ns) / 1000.0;
      Acc& acc = by_name[spans[i].name];
      acc.total_us += us;
      acc.self_us += std::max(0.0, us - child_us[i]);
      acc.durations.push_back(us);
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, acc] : by_name) {
    std::sort(acc.durations.begin(), acc.durations.end());
    SpanSummary row;
    row.name = name;
    row.count = acc.durations.size();
    row.total_us = acc.total_us;
    row.self_us = acc.self_us;
    row.p99_us = ExactPercentile(acc.durations, 0.99).value_or(-1.0);
    out.push_back(std::move(row));
  }
  return out;
}

std::string SpanRecorder::ChromeTraceJson(size_t max_events) const {
  std::string out = "{\"traceEvents\":[";
  size_t written = 0;
  char line[256];
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      if (written == max_events) break;
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    written == 0 ? "" : ",\n", s.name, buffer->tid,
                    s.start_ns / 1000.0, (s.end_ns - s.start_ns) / 1000.0);
      out += line;
      ++written;
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace wallbench
