// Online build bench: measures per-statement write latency while an index
// is being created by the phased online build (DESIGN.md §10). The
// headline number is the p99 write stall during the build window — the
// online build should keep it within a small multiple of steady-state
// latency, where a build holding the exclusive table latch for the whole
// scan would make every concurrent writer wait it out.
//
// Usage: bench_online_build [--short]
// `--short` shrinks the table and writer count for CI smoke runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "check/validator.h"
#include "engine/database.h"
#include "engine/session.h"

namespace autoindex {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchParams {
  size_t rows = 200000;
  int writers = 4;
  // Open-loop arrival: each writer *intends* to issue one INSERT every
  // `pace_us`. Latency is measured from the intended start, not the
  // actual send, so statements queued behind a latch stall report the
  // full wait (no coordinated omission).
  std::chrono::microseconds pace_us{200};
};

// One measured statement: its scheduled start, completion, and the
// stall-corrected latency between them.
struct Sample {
  Clock::time_point start;
  Clock::time_point end;
  double ms = 0.0;
};

struct WindowStats {
  size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

// Latency distribution of the statements that overlap [begin, end): these
// are the writes the build could have stalled.
WindowStats StatsInWindow(const std::vector<std::vector<Sample>>& per_writer,
                          Clock::time_point begin, Clock::time_point end) {
  std::vector<double> ms;
  for (const std::vector<Sample>& samples : per_writer) {
    for (const Sample& s : samples) {
      if (s.end >= begin && s.start < end) ms.push_back(s.ms);
    }
  }
  std::sort(ms.begin(), ms.end());
  WindowStats out;
  out.samples = ms.size();
  out.p50 = Percentile(&ms, 0.50);
  out.p99 = Percentile(&ms, 0.99);
  out.max = ms.empty() ? 0.0 : ms.back();
  return out;
}

void PopulateTable(Database* db, size_t rows) {
  CheckOk(db->CreateTable("t", Schema({{"a", ValueType::kInt},
                                       {"b", ValueType::kInt},
                                       {"c", ValueType::kInt}})));
  std::vector<Row> bulk;
  bulk.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    bulk.push_back({Value(int64_t(i)), Value(int64_t(i % 997)),
                    Value(int64_t(i % 7))});
  }
  CheckOk(db->BulkInsert("t", std::move(bulk)));
  db->Analyze();
}

struct BuildRun {
  WindowStats stalls;   // write latency during the build window
  double build_ms = 0.0;
  size_t writes = 0;    // total statements the writers got through
};

// Runs `writers` insert sessions flat-out, then builds an index on "t"
// while they hammer, and reports the write-latency distribution inside
// the build window.
BuildRun MeasureBuild(const BenchParams& params) {
  Database db;
  PopulateTable(&db, params.rows);

  std::atomic<bool> done{false};
  std::atomic<size_t> completed{0};
  std::vector<std::vector<Sample>> samples(params.writers);
  std::vector<std::thread> threads;
  threads.reserve(params.writers);
  for (int w = 0; w < params.writers; ++w) {
    threads.emplace_back([&db, &done, &completed, &samples, &params, w] {
      std::unique_ptr<Session> session = db.CreateSession();
      int64_t next = int64_t(params.rows) + 1000000 + w;
      std::vector<Sample>& mine = samples[w];
      mine.reserve(1 << 16);
      Clock::time_point scheduled = Clock::now();
      while (!done.load(std::memory_order_acquire)) {
        // Open loop: wait for the slot if ahead of schedule; if a stall
        // put us behind, issue back-to-back — the fixed schedule charges
        // every delayed statement its full queueing time.
        while (Clock::now() < scheduled) {
          std::this_thread::yield();
        }
        const std::string sql = "INSERT INTO t VALUES (" +
                                std::to_string(next) + ", " +
                                std::to_string(next % 997) + ", " +
                                std::to_string(next % 7) + ")";
        next += params.writers;
        Sample s;
        s.start = scheduled;
        CheckOk(session->Execute(sql).status());
        s.end = Clock::now();
        s.ms = std::chrono::duration<double, std::milli>(s.end - s.start)
                   .count();
        mine.push_back(s);
        completed.fetch_add(1, std::memory_order_release);
        scheduled += params.pace_us;
      }
    });
  }

  // Warm up so steady-state samples exist on both sides of the window.
  while (completed.load(std::memory_order_acquire) <
         static_cast<size_t>(params.writers) * 50) {
    std::this_thread::yield();
  }

  const Clock::time_point build_begin = Clock::now();
  CheckOk(db.CreateIndex(IndexDef("t", {"b"})));
  const Clock::time_point build_end = Clock::now();

  // Let the tail drain so stalled statements finish inside the capture.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  const CheckReport check = CheckAll(db);
  if (!check.ok()) {
    std::printf("INVARIANT FAILURE:\n%s\n", check.ToString().c_str());
    std::exit(1);
  }

  BuildRun run;
  run.stalls = StatsInWindow(samples, build_begin, build_end);
  run.build_ms = std::chrono::duration<double, std::milli>(build_end -
                                                           build_begin)
                     .count();
  run.writes = completed.load(std::memory_order_acquire);
  return run;
}

void PrintRun(const char* label, const BuildRun& run) {
  std::printf("%-8s | build %8.1f ms | writes %7zu | in-window %6zu | "
              "stall p50 %8.3f ms | p99 %8.3f ms | max %8.3f ms\n",
              label, run.build_ms, run.writes, run.stalls.samples,
              run.stalls.p50, run.stalls.p99, run.stalls.max);
}

int Run(const BenchParams& params) {
  bench::PrintHeader("Online index build: write stalls during the build");
  std::printf("table rows %zu | writer threads %d | index on t(b)\n\n",
              params.rows, params.writers);
  PrintRun("online", MeasureBuild(params));
  std::printf("\nOK\n");
  return 0;
}

}  // namespace
}  // namespace autoindex

int main(int argc, char** argv) {
  autoindex::BenchParams params;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      params.rows = 40000;
      params.writers = 2;
    }
  }
  return autoindex::Run(params);
}
