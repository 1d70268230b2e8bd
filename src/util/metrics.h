#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace autoindex {
namespace util {

// Process-wide observability substrate (DESIGN.md §11). Three metric
// kinds — Counter, Gauge, LatencyHistogram — live in a global
// MetricsRegistry keyed by dotted lowercase names
// (`<subsystem>.<thing>`, e.g. "wal.fsync_us"). Hot-path updates are
// lock-free atomics; the registry mutex is only taken on first
// lookup (call sites cache the returned pointer in a function-local
// static) and on snapshot/render.
//
// Building with -DAUTOINDEX_METRICS=OFF defines
// AUTOINDEX_METRICS_DISABLED: every update and every ScopedTimer clock
// read compiles to nothing while all call sites keep compiling — the
// baseline scripts/check.sh measures the instrumentation overhead
// against.
#if defined(AUTOINDEX_METRICS_DISABLED)
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

// Monotone event count. Add() is a single relaxed fetch_add: updates
// from any thread, no ordering guarantees beyond the final total.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if constexpr (kMetricsEnabled) {
      value_.fetch_add(n, std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  // Test support: zeroes the count (never call on live production paths —
  // counters are contractually monotone between snapshots).
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-writer-wins instantaneous level (queue depths, backlog sizes).
class Gauge {
 public:
  void Set(int64_t v) {
    if constexpr (kMetricsEnabled) {
      value_.store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  void Add(int64_t delta) {
    if constexpr (kMetricsEnabled) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    } else {
      (void)delta;
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Merged, plain-data view of one LatencyHistogram (or of fabricated
// values in validator tests). Bucket b counts samples in microseconds
// with bit_width b: bucket 0 holds the value 0, bucket b>0 holds
// [2^(b-1), 2^b). Percentile() returns the *upper bound* of the bucket
// containing the requested rank — deterministic, and never below the
// true percentile by more than one power of two.
struct HistogramSnapshot {
  static constexpr size_t kNumBuckets = 40;

  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t max_us = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  // Upper bound (inclusive) in microseconds of values counted in `b`.
  static uint64_t BucketUpperBound(size_t b) {
    if (b == 0) return 0;
    if (b >= kNumBuckets - 1) return UINT64_MAX;
    return (uint64_t{1} << b) - 1;
  }

  uint64_t BucketSum() const {
    uint64_t total = 0;
    for (uint64_t b : buckets) total += b;
    return total;
  }

  // p in [0,1]; 0.5 = median. Returns 0 for an empty histogram.
  uint64_t PercentileUs(double p) const;
  uint64_t P50Us() const { return PercentileUs(0.50); }
  uint64_t P90Us() const { return PercentileUs(0.90); }
  uint64_t P99Us() const { return PercentileUs(0.99); }
  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_us) / count;
  }

  void Merge(const HistogramSnapshot& other);
};

// Fixed-bucket exponential latency histogram with per-thread shards.
// Record() touches only the calling thread's shard (atomics, no locks);
// Snapshot() merges the shards. Microsecond domain, power-of-two
// buckets: see HistogramSnapshot for the bucket scheme.
//
// Consistency contract: each shard carries a `begun` sequence number
// that Record bumps before touching anything else, and Record bumps the
// shard count last. Snapshot reads a shard's count, then its fields, then
// `begun`, and retries the shard until the two agree: no Record was in
// flight, so the shard's count, buckets, sum and max describe the same
// set of samples (bucket_sum == count, and an empty shard has zero sum
// and max). Record stays lock-free; only Snapshot waits. The
// MetricsValidator's checks therefore hold on every snapshot, even one
// taken mid-Record.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;
  static constexpr size_t kNumShards = 8;

  void Record(uint64_t us);
  HistogramSnapshot Snapshot() const;
  void Reset();

  // Corruption drill for the MetricsValidator tests: inflates one
  // shard's count without touching its buckets, breaking the
  // bucket_sum >= count invariant. Never call outside tests.
  void TestOnlyCorruptCount(uint64_t delta) {
    shards_[0].begun.fetch_add(delta, std::memory_order_relaxed);
    shards_[0].count.fetch_add(delta, std::memory_order_relaxed);
  }

  static size_t BucketFor(uint64_t us) {
    size_t b = 0;
    while (us > 0 && b < kNumBuckets - 1) {
      us >>= 1;
      ++b;
    }
    return b;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_us{0};
    std::atomic<uint64_t> max_us{0};
    std::atomic<uint64_t> begun{0};  // Records started; == count when idle
  };

  Shard& ThisThreadShard();

  std::array<Shard, kNumShards> shards_;
};

// Monotonic-clock stopwatch. The ONLY sanctioned way to do latency math
// outside src/util/metrics.* / src/workload/ / bench/: the
// raw-chrono-metric lint rule forbids naked steady_clock::now() calls
// elsewhere, so instrumented subsystems time themselves through this
// wrapper (or ScopedTimer below) and stay trivially auditable.
class Stopwatch {
 public:
  // Deferred-start tag: no clock read at construction (Restart() arms
  // it). Lets conditionally-timed members avoid the read entirely when
  // instrumentation is compiled out.
  struct DeferStart {};

  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  explicit Stopwatch(DeferStart) {}

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  uint64_t ElapsedUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// RAII latency recorder: measures construction→destruction and records
// into the given histogram (null target = disabled, zero cost beyond
// the clock read; compiled-out builds skip the clock read too). Holds
// no capability — annotated free of lock requirements so the
// thread-safety analysis verifies timed scopes the same as untimed
// ones.
class [[nodiscard]] ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* hist) : hist_(hist) {
    if constexpr (kMetricsEnabled) {
      if (hist_ != nullptr) watch_.Restart();
    }
  }
  ~ScopedTimer() {
    if constexpr (kMetricsEnabled) {
      if (hist_ != nullptr) hist_->Record(watch_.ElapsedUs());
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Detaches without recording (e.g. the timed operation failed in a way
  // that should not pollute the distribution).
  void Cancel() { hist_ = nullptr; }

 private:
  LatencyHistogram* hist_;
  Stopwatch watch_;
};

// Name → metric directory. Get* registers on first use and returns a
// stable pointer (entries are never erased, so call sites may cache it
// for the process lifetime — the idiom is a function-local static).
// Looking a name up as the wrong kind is counted as a type collision
// and returns a process-shared dummy metric instead of crashing; the
// MetricsValidator requires the collision count to stay zero.
class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  // One rendered metric in a snapshot.
  struct MetricValue {
    std::string name;
    Kind kind = Kind::kCounter;
    uint64_t counter = 0;
    int64_t gauge = 0;
    HistogramSnapshot hist;
  };

  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) EXCLUDES(mu_);
  LatencyHistogram* GetHistogram(const std::string& name) EXCLUDES(mu_);

  // Every metric whose name starts with `prefix` (all when empty), in
  // name order.
  std::vector<MetricValue> Snapshot(const std::string& prefix = {}) const
      EXCLUDES(mu_);

  // Prometheus-style text exposition:
  //   # TYPE autoindex_wal_fsync_us histogram
  //   autoindex_wal_fsync_us_bucket{le="127"} 42
  //   ...
  // Dots become underscores; histogram buckets render cumulative with
  // `le` upper bounds, plus _sum/_count/_max series.
  std::string RenderText(const std::string& prefix = {}) const EXCLUDES(mu_);

  // Registrations under a name already taken by a different kind.
  uint64_t type_collisions() const {
    return type_collisions_.load(std::memory_order_relaxed);
  }

  // Zeroes every registered metric's value *without* invalidating any
  // cached pointer (entries stay registered), and clears the collision
  // count. Test isolation only.
  void ResetForTest() EXCLUDES(mu_);

 private:
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> hist;
  };

  Entry* FindOrCreate(const std::string& name, Kind kind) REQUIRES(mu_);

  mutable util::Mutex mu_;
  // std::map: stable addresses for Entry values and sorted iteration for
  // Snapshot/RenderText.
  std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
  std::atomic<uint64_t> type_collisions_{0};

  // Fallbacks handed out on a kind mismatch so callers never receive
  // null; their values are meaningless and excluded from snapshots.
  Counter dummy_counter_;
  Gauge dummy_gauge_;
  LatencyHistogram dummy_hist_;
};

}  // namespace util
}  // namespace autoindex
