#include "util/metrics.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/string_util.h"

namespace autoindex {
namespace util {

uint64_t HistogramSnapshot::PercentileUs(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested sample, 1-based; p=0.5 over 1000 samples asks
  // for the 500th.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(p * count + 0.5));
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Never report beyond the observed maximum (the top bucket's bound
      // is a power of two that can far exceed it).
      return std::min(BucketUpperBound(b), max_us);
    }
  }
  return max_us;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum_us += other.sum_us;
  max_us = std::max(max_us, other.max_us);
  for (size_t b = 0; b < kNumBuckets; ++b) buckets[b] += other.buckets[b];
}

LatencyHistogram::Shard& LatencyHistogram::ThisThreadShard() {
  // Each thread gets a process-wide shard slot once (round-robin); every
  // histogram maps the slot onto its own shard array. Threads sharing a
  // slot still race safely — shards are atomics — they just contend.
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return shards_[slot % kNumShards];
}

void LatencyHistogram::Record(uint64_t us) {
  if constexpr (!kMetricsEnabled) {
    (void)us;
    return;
  }
  Shard& shard = ThisThreadShard();
  // Announce the sample before any field changes. Every field write below
  // is a release, so a snapshot whose acquire load sees one of them also
  // sees this increment (no fences: TSan does not model them).
  shard.begun.fetch_add(1, std::memory_order_relaxed);
  shard.buckets[BucketFor(us)].fetch_add(1, std::memory_order_release);
  shard.sum_us.fetch_add(us, std::memory_order_release);
  uint64_t prev_max = shard.max_us.load(std::memory_order_relaxed);
  while (us > prev_max &&
         !shard.max_us.compare_exchange_weak(prev_max, us,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
  // Count last: a snapshot that observes this increment (acquire) also
  // observes every write above (see class comment).
  shard.count.fetch_add(1, std::memory_order_release);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const Shard& shard : shards_) {
    // Retry while a Record is in flight on this shard: `begun` read after
    // the fields equal to `count` read before them means every sample
    // whose writes were seen had finished, and all of them were seen.
    while (true) {
      HistogramSnapshot part;
      part.count = shard.count.load(std::memory_order_acquire);
      part.sum_us = shard.sum_us.load(std::memory_order_acquire);
      part.max_us = shard.max_us.load(std::memory_order_acquire);
      for (size_t b = 0; b < kNumBuckets; ++b) {
        part.buckets[b] = shard.buckets[b].load(std::memory_order_acquire);
      }
      if (shard.begun.load(std::memory_order_relaxed) == part.count) {
        snap.Merge(part);
        break;
      }
      std::this_thread::yield();
    }
  }
  return snap;
}

void LatencyHistogram::Reset() {
  for (Shard& shard : shards_) {
    // Lower `begun` by what `count` held rather than zeroing it: a Record
    // racing the reset then still closes its own gap, and Snapshot cannot
    // wait on a shard forever.
    shard.begun.fetch_sub(shard.count.exchange(0, std::memory_order_relaxed),
                          std::memory_order_relaxed);
    shard.sum_us.store(0, std::memory_order_relaxed);
    shard.max_us.store(0, std::memory_order_relaxed);
    for (auto& b : shard.buckets) b.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      Kind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.hist = std::make_unique<LatencyHistogram>();
        break;
    }
    it = entries_.emplace(name, std::move(entry)).first;
  }
  if (it->second.kind != kind) {
    type_collisions_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  util::MutexLock lock(mu_);
  Entry* entry = FindOrCreate(name, Kind::kCounter);
  return entry == nullptr ? &dummy_counter_ : entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  util::MutexLock lock(mu_);
  Entry* entry = FindOrCreate(name, Kind::kGauge);
  return entry == nullptr ? &dummy_gauge_ : entry->gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  util::MutexLock lock(mu_);
  Entry* entry = FindOrCreate(name, Kind::kHistogram);
  return entry == nullptr ? &dummy_hist_ : entry->hist.get();
}

std::vector<MetricsRegistry::MetricValue> MetricsRegistry::Snapshot(
    const std::string& prefix) const {
  std::vector<MetricValue> out;
  util::MutexLock lock(mu_);
  for (const auto& [name, entry] : entries_) {
    if (!prefix.empty() && name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    MetricValue v;
    v.name = name;
    v.kind = entry.kind;
    switch (entry.kind) {
      case Kind::kCounter:
        v.counter = entry.counter->value();
        break;
      case Kind::kGauge:
        v.gauge = entry.gauge->value();
        break;
      case Kind::kHistogram:
        v.hist = entry.hist->Snapshot();
        break;
    }
    out.push_back(std::move(v));
  }
  return out;
}

namespace {

// "wal.fsync_us" -> "autoindex_wal_fsync_us".
// Registry names may carry a Prometheus label block in braces (e.g.
// "build.info{version=\"1.0\"}"): dots convert to underscores only up to
// the brace, and the label block is appended verbatim to sample lines
// (never to # TYPE lines, which take the bare metric name).
std::string PromName(const std::string& name) {
  std::string out = "autoindex_";
  for (char c : name) {
    if (c == '{') break;
    out += (c == '.') ? '_' : c;
  }
  return out;
}

std::string PromLabels(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? std::string() : name.substr(brace);
}

}  // namespace

std::string MetricsRegistry::RenderText(const std::string& prefix) const {
  std::string out;
  for (const MetricValue& v : Snapshot(prefix)) {
    const std::string prom = PromName(v.name);
    switch (v.kind) {
      case Kind::kCounter:
        out += StrCat("# TYPE ", prom, " counter\n", prom,
                      PromLabels(v.name), " ", v.counter, "\n");
        break;
      case Kind::kGauge:
        out += StrCat("# TYPE ", prom, " gauge\n", prom, PromLabels(v.name),
                      " ", v.gauge, "\n");
        break;
      case Kind::kHistogram: {
        out += StrCat("# TYPE ", prom, " histogram\n");
        uint64_t cumulative = 0;
        for (size_t b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
          if (v.hist.buckets[b] == 0) continue;  // sparse exposition
          cumulative += v.hist.buckets[b];
          const uint64_t bound = HistogramSnapshot::BucketUpperBound(b);
          out += StrCat(prom, "_bucket{le=\"",
                        bound == UINT64_MAX ? std::string("+Inf")
                                            : StrCat(bound),
                        "\"} ", cumulative, "\n");
        }
        out += StrCat(prom, "_sum ", v.hist.sum_us, "\n");
        out += StrCat(prom, "_count ", v.hist.count, "\n");
        out += StrCat(prom, "_max ", v.hist.max_us, "\n");
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  util::MutexLock lock(mu_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->Reset();
        break;
      case Kind::kGauge:
        entry.gauge->Reset();
        break;
      case Kind::kHistogram:
        entry.hist->Reset();
        break;
    }
  }
  type_collisions_.store(0, std::memory_order_relaxed);
}

}  // namespace util
}  // namespace autoindex
