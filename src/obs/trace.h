#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/metrics.h"
#include "util/mutex.h"

namespace autoindex {
namespace obs {

// Request-scoped tracing (DESIGN.md §13). One *trace* covers one unit of
// work (a statement, a tuning round, an online index build, a network
// request) and holds a bounded tree of *spans*, each timed through the
// sanctioned util::Stopwatch clock. Recording is lock-free: a trace is
// built in a thread-local TraceContext and only touches the Tracer's
// mutex once, at submit time, when the completed trace is offered to the
// flight recorder (a fixed-size ring buffer). Whether a trace is kept is
// decided at submit: slow traces (total >= the configured threshold)
// always land; the rest are head-sampled by a deterministic hash of the
// trace id so a fixed fraction of normal traffic stays inspectable.
//
// Instrumentation sites never call the span API below directly — the
// raw-trace-span lint rule restricts StartSpan/FinishSpan/DetachSpan to
// src/obs/ — they use the RAII helpers at the bottom of this header
// (ScopedTrace, ScopedSpan, OperatorSpan), which compile to nothing
// under AUTOINDEX_METRICS=OFF exactly like the metrics layer.

// One timed node of a span tree. Names are static string literals (the
// hot path never allocates for a span); `start_us` is the offset from
// the trace's own start, so a span's absolute position is
// trace.start_offset_us + span.start_us on the tracer's epoch clock.
struct SpanRecord {
  uint32_t id = 0;      // 1-based, dense within the trace
  uint32_t parent = 0;  // 0 = root
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  const char* name = "";
  // Optional single attribute (rows produced, bytes appended, ...).
  const char* attr_name = nullptr;
  int64_t attr_value = 0;
};

// One completed trace as stored in the flight recorder.
struct TraceData {
  uint64_t trace_id = 0;
  // The client's trace id when this trace was propagated over the wire
  // (kQuery carries it; 0 = the request was not client-traced).
  uint64_t client_trace_id = 0;
  // Trace start as an offset from the owning Tracer's epoch.
  uint64_t start_offset_us = 0;
  uint64_t total_us = 0;  // root span duration
  // Spans refused by the per-trace cap (the first kMaxSpansPerTrace are
  // kept; the count records how much of the tree is missing).
  uint32_t spans_dropped = 0;
  // True when the trace was kept by head sampling rather than by the
  // slow-query threshold.
  bool sampled = false;
  std::vector<SpanRecord> spans;
};

class Tracer;

// The per-thread recording surface. At most one trace is active on a
// thread at a time (nested ScopedTrace construction is a no-op), and all
// span operations touch only thread-local state — no locks, no
// allocation beyond the reused span vector.
//
// Spans are two-phase so non-LIFO lifetimes (a Volcano operator's
// Open..Close brackets its children's whole lifetime, but Open returns
// while the children are still open) still form a correct tree:
// StartSpan makes the span the active parent, DetachSpan pops it off the
// active chain *without* closing it, FinishSpan stamps the duration
// whenever the work really ends. Strictly nested scopes use EndSpan
// (detach + finish).
class TraceContext {
 public:
  static constexpr uint32_t kMaxSpansPerTrace = 256;

  // Starts a span under the currently active span and makes it active.
  // Returns 0 (a universally ignored id) once the per-trace cap is hit.
  uint32_t StartSpan(const char* name);
  // Pops the span off the active chain without stamping its duration.
  void DetachSpan(uint32_t id);
  // Stamps the duration (now - start). The span must have been started.
  void FinishSpan(uint32_t id);
  void SetSpanAttr(uint32_t id, const char* attr_name, int64_t value);
  // Detach + finish, for strictly nested (RAII) scopes.
  void EndSpan(uint32_t id) {
    DetachSpan(id);
    FinishSpan(id);
  }

  uint64_t trace_id() const { return data_.trace_id; }
  uint32_t span_count() const {
    return static_cast<uint32_t>(data_.spans.size());
  }
  void set_client_trace_id(uint64_t id) { data_.client_trace_id = id; }

 private:
  friend class ScopedTrace;
  friend class Tracer;

  void Begin(const char* name, Tracer* tracer, uint64_t trace_id,
             bool sampled);
  // Closes the root span and offers the trace to the tracer.
  void End();
  void Abandon();

  TraceData data_;
  uint32_t active_ = 0;  // id of the innermost open span
  uint32_t root_ = 0;
  util::Stopwatch watch_{util::Stopwatch::DeferStart{}};
  Tracer* tracer_ = nullptr;
};

// The flight recorder: a fixed-capacity ring of the most recent kept
// traces plus the bookkeeping CheckTraces audits. Instantiable
// for tests; production code uses the process-wide Default().
class Tracer {
 public:
  struct Stats {
    uint64_t started = 0;    // traces begun (ids allocated)
    uint64_t finished = 0;   // traces submitted (kept or sampled out)
    uint64_t recorded = 0;   // traces kept in the ring
    uint64_t sampled_out = 0;  // submitted but dropped (fast + unsampled)
    uint64_t cancelled = 0;  // begun but explicitly discarded
    uint64_t spans_dropped = 0;  // spans refused by the per-trace cap
  };

  // A consistent view of the recorder: ring contents (oldest first),
  // stats, and capacity, all read under one lock so the validator's
  // bookkeeping invariants hold exactly.
  struct Snapshot {
    std::vector<TraceData> traces;
    Stats stats;
    size_t capacity = 0;
  };

  static constexpr size_t kDefaultCapacity = 256;
  static constexpr uint64_t kDefaultSlowUs = 10'000;
  static constexpr double kDefaultSampleRate = 0.01;

  explicit Tracer(size_t capacity = kDefaultCapacity);
  static Tracer& Default();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Keep policy. slow_us = 0 keeps every trace; sample_rate in [0,1] is
  // the fraction of non-slow traces kept (deterministic in the trace
  // id — no RNG on the hot path, reproducible in tests).
  void Configure(uint64_t slow_us, double sample_rate);
  uint64_t slow_threshold_us() const {
    return slow_us_.load(std::memory_order_relaxed);
  }

  Snapshot TakeSnapshot() const EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }

  // Empties the ring and zeroes the stats (cached Tracer& references
  // stay valid). Test isolation only.
  void ResetForTest() EXCLUDES(mu_);

  // --- CheckTraces corruption drills (never call outside tests) -------
  // Mutable pointer into ring slot `index` (oldest first, as in
  // TakeSnapshot). Null when out of range.
  TraceData* TestOnlyMutableTrace(size_t index) EXCLUDES(mu_);
  // Skews the bookkeeping counters to break the ring invariants.
  void TestOnlyCorruptStats(int64_t d_finished, int64_t d_recorded,
                            int64_t d_sampled_out) EXCLUDES(mu_);

 private:
  friend class ScopedTrace;
  friend class TraceContext;

  // Allocates a trace id and decides head sampling. `sampled` is the
  // deterministic coin flip, made at trace start so wire propagation can
  // tell the client whether the server kept its trace.
  uint64_t BeginTrace(bool* sampled);
  uint64_t EpochElapsedUs() const { return epoch_.ElapsedUs(); }
  void Submit(const TraceData& data) EXCLUDES(mu_);
  void NoteCancelled() EXCLUDES(mu_);

  const size_t capacity_;
  const util::Stopwatch epoch_;
  std::atomic<uint64_t> next_trace_id_{0};
  std::atomic<uint64_t> slow_us_{kDefaultSlowUs};
  // Keep iff splitmix64(trace_id) < sample_threshold_.
  std::atomic<uint64_t> sample_threshold_{0};

  mutable util::Mutex mu_;
  std::vector<TraceData> ring_ GUARDED_BY(mu_);
  size_t next_slot_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);  // started mirrors next_trace_id_
};

// The trace id active on this thread, 0 when none. What the net client
// stamps into kQuery so the server can link its trace to the caller's.
uint64_t CurrentTraceId();

// --- RAII instrumentation surface (the only API outside src/obs/) ------

// Opens a trace for the lifetime of the scope. If a trace is already
// active on this thread (or metrics are compiled out) the constructor is
// a no-op and the scope merely nests inside the enclosing trace —
// layered entry points (server request → session → database) can each
// guard themselves and the outermost one wins.
class [[nodiscard]] ScopedTrace {
 public:
  explicit ScopedTrace(const char* name) : ScopedTrace(name, nullptr) {}
  // tracer = nullptr means Tracer::Default().
  ScopedTrace(const char* name, Tracer* tracer);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  // Discards the trace instead of submitting it (e.g. the request turned
  // out not to be query traffic). Only meaningful on the owning scope.
  void Cancel();

  // True when this scope opened the trace (not nested, not compiled
  // out). trace_id/span_count are live reads for wire propagation.
  bool owns() const { return ctx_ != nullptr; }
  uint64_t trace_id() const;
  uint32_t span_count() const;
  void set_client_trace_id(uint64_t id);
  // Attribute on the root span (e.g. the server's span count echoed back
  // to a client-side trace).
  void SetRootAttr(const char* name, int64_t value);

 private:
  TraceContext* ctx_ = nullptr;
};

// One span for the lifetime of the scope, under the thread's active
// trace (no-op when none is active).
class [[nodiscard]] ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void SetAttr(const char* name, int64_t value);

 private:
  TraceContext* ctx_ = nullptr;
  uint32_t id_ = 0;
};

// Two-phase span for Volcano operators, whose Open..Close lifetime is
// not a C++ scope: Begin() at Open (children opened inside nest under
// it), Leave() when Open returns (pops the active chain while the span
// stays unfinished), End() at Close (stamps duration and the rows_out
// attribute). Default-constructed inert; cheap enough to embed in every
// PhysicalOperator.
class OperatorSpan {
 public:
  void Begin(const char* name);
  void Leave();
  void End(const char* attr_name, int64_t attr_value);

 private:
  TraceContext* ctx_ = nullptr;
  uint32_t id_ = 0;
};

}  // namespace obs
}  // namespace autoindex
