#include "engine/database.h"

#include <algorithm>
#include <utility>

#include "engine/durability.h"
#include "engine/session.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/metrics.h"

namespace autoindex {
namespace {

// Engine-level observability (DESIGN.md §11): statement throughput and
// end-to-end latency (latch wait + execution + WAL append), plus the
// online index build's per-phase durations.
struct EngineMetrics {
  util::Counter* statements;
  util::Counter* statement_failures;
  util::LatencyHistogram* statement_us;
  util::Counter* index_builds;
  util::LatencyHistogram* build_scan_us;
  util::LatencyHistogram* build_catchup_us;
  util::LatencyHistogram* build_publish_us;
  util::LatencyHistogram* build_total_us;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return EngineMetrics{
          registry.GetCounter("engine.statements"),
          registry.GetCounter("engine.statement_failures"),
          registry.GetHistogram("engine.statement_us"),
          registry.GetCounter("index.builds"),
          registry.GetHistogram("index.build.scan_us"),
          registry.GetHistogram("index.build.catchup_us"),
          registry.GetHistogram("index.build.publish_us"),
          registry.GetHistogram("index.build.total_us")};
    }();
    return metrics;
  }
};

// The latch set of one statement: shared on every FROM table for SELECT,
// exclusive on the target table for writes. Derived up front so the whole
// set is acquired in the LatchManager's global order.
std::vector<LatchManager::LatchRequest> StatementLatches(
    const Statement& stmt) {
  std::vector<LatchManager::LatchRequest> requests;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      for (const TableRef& ref : stmt.select->from) {
        requests.push_back({ref.table, LatchManager::LatchMode::kShared});
      }
      break;
    case StatementKind::kInsert:
      requests.push_back(
          {stmt.insert->table, LatchManager::LatchMode::kExclusive});
      break;
    case StatementKind::kUpdate:
      requests.push_back(
          {stmt.update->table, LatchManager::LatchMode::kExclusive});
      break;
    case StatementKind::kDelete:
      requests.push_back(
          {stmt.del->table, LatchManager::LatchMode::kExclusive});
      break;
  }
  return requests;
}

// Online build pacing (Database::CreateIndex). Chunk size bounds how long
// one shared-latch hold keeps writers queued; the catch-up loop shrinks
// the delta until the exclusive publish window only drains a short tail.
constexpr size_t kBuildScanChunkSlots = 4096;
constexpr size_t kBuildCatchupBatch = 1024;
constexpr size_t kBuildPublishThreshold = 256;
constexpr size_t kBuildFreeCatchupRounds = 64;

}  // namespace

Database::Database(CostParams params) : params_(params) {
  // Registers build.info and arms the uptime epoch on the first database
  // of the process.
  util::RefreshRuntimeMetrics();
  catalog_ = std::make_unique<Catalog>();
  index_manager_ = std::make_unique<IndexManager>(catalog_.get());
  stats_manager_ = std::make_unique<StatsManager>(catalog_.get());
  stats_manager_->set_latch_manager(&latches_);
  what_if_ = std::make_unique<WhatIfCostModel>(catalog_.get(),
                                               stats_manager_.get(), params_);
  session_ = std::make_unique<Session>(this);
}

Database::~Database() = default;

std::unique_ptr<Session> Database::CreateSession() {
  return std::make_unique<Session>(this);
}

Executor& Database::executor() { return session_->executor(); }

const Executor& Database::executor() const { return session_->executor(); }

void Database::set_execution_feedback_hook(FeedbackHook hook) {
  util::MutexLock lock(feedback_mu_);
  feedback_hook_ = std::move(hook);
}

void Database::DeliverFeedback(const std::vector<AccessPathFeedback>& batch) {
  util::MutexLock lock(feedback_mu_);
  if (feedback_hook_) feedback_hook_(batch);
}

Status Database::CommitDurable(
    const std::function<Status(DurabilityLog*, uint64_t)>& append) {
  util::MutexLock lock(wal_mu_);
  const uint64_t version = BumpDataVersion();
  if (durability_log_ == nullptr) return Status::Ok();
  return append(durability_log_, version);
}

StatusOr<HeapTable*> Database::CreateTable(const std::string& name,
                                           Schema schema) {
  // The WAL record needs the schema after the catalog takes ownership.
  StatusOr<HeapTable*> table = catalog_->CreateTable(name, std::move(schema));
  if (!table.ok()) return table;
  Status logged = CommitDurable([&](DurabilityLog* log, uint64_t version) {
    return log->AppendCreateTable(name, (*table)->schema(), version);
  });
  if (!logged.ok()) return logged;
  return table;
}

Status Database::CreateIndex(const IndexDef& def) {
  const std::string key = def.Key();
  BuiltIndex* build = nullptr;
  HeapTable* table = nullptr;
  size_t snapshot_slots = 0;
  const EngineMetrics& metrics = EngineMetrics::Get();
  // Build trace: one root with a span per phase (register → scan →
  // catch-up → publish), so a writer stall can be attributed to the
  // publish window rather than the whole build.
  obs::ScopedTrace trace("index.build");
  util::ScopedTimer total_timer(metrics.build_total_us);
  util::Stopwatch phase_watch{util::Stopwatch::DeferStart{}};
  {
    // Phase 0 — registration, brief exclusive window: the slot horizon
    // and the delta routing switch on atomically. Every writer that runs
    // after this latch drops feeds the build's side delta.
    obs::ScopedSpan phase_span("build.register");
    LatchManager::Guard guard = latches_.AcquireExclusive(def.table);
    StatusOr<BuiltIndex*> begun = index_manager_->BeginBuild(def);
    if (!begun.ok()) {
      total_timer.Cancel();
      trace.Cancel();
      return begun.status();
    }
    build = *begun;
    table = catalog_->GetTable(def.table);
    snapshot_slots = table->num_slots();
  }
  FireIndexBuildHook(IndexBuildPhase::kRegistered);
  phase_watch.Restart();
  // Phase 1 — snapshot scan in chunks under *shared* latches, so writers
  // interleave between chunks. Only slots below the registration horizon
  // are scanned: RowIds are never reused, so every later insert has a
  // higher slot and reached the delta instead. Slots mutated mid-scan are
  // reconciled by the idempotent (delete-then-insert) delta apply.
  {
    obs::ScopedSpan phase_span("build.scan");
    phase_span.SetAttr("snapshot_slots",
                       static_cast<int64_t>(snapshot_slots));
    for (size_t lo = 0; lo < snapshot_slots; lo += kBuildScanChunkSlots) {
      const size_t hi = std::min(snapshot_slots, lo + kBuildScanChunkSlots);
      LatchManager::Guard guard = latches_.AcquireShared({def.table});
      for (RowId rid = lo; rid < hi; ++rid) {
        if (table->IsLive(rid)) build->BuildInsert(table->Get(rid), rid);
      }
    }
  }
  metrics.build_scan_us->Record(phase_watch.ElapsedUs());
  FireIndexBuildHook(IndexBuildPhase::kScanned);
  phase_watch.Restart();
  // Phase 2 — delta catch-up. Free-running rounds first (no latch: the
  // buffered ops carry their row images, writers keep appending under the
  // build's own delta mutex, and the trees are builder-private until
  // publish). If the delta stops shrinking — writers are producing at
  // least as fast as the drain — fall through to paced rounds below
  // rather than letting the backlog grow unboundedly.
  {
    obs::ScopedSpan phase_span("build.catchup");
    int64_t drain_rounds = 0;
    for (size_t round = 0; round < kBuildFreeCatchupRounds; ++round) {
      const size_t before = build->delta_pending();
      if (before <= kBuildPublishThreshold) break;
      build->ApplyDeltaBatch(kBuildCatchupBatch);
      ++drain_rounds;
      // Net shrink under half a batch: a write storm is winning. Pace it.
      if (build->delta_pending() + kBuildCatchupBatch / 2 > before) break;
    }
    // Paced catch-up: each round drains one batch while holding a *shared*
    // table latch. Writers take the exclusive latch per statement, so they
    // queue for at most one batch's worth of apply time and only a handful
    // of statements slip in between rounds — every round nets nearly a full
    // batch of progress, which bounds both this loop and the final
    // exclusive drain at publish.
    while (build->delta_pending() > kBuildPublishThreshold) {
      LatchManager::Guard guard = latches_.AcquireShared({def.table});
      build->ApplyDeltaBatch(kBuildCatchupBatch);
      ++drain_rounds;
    }
    phase_span.SetAttr("drain_rounds", drain_rounds);
  }
  metrics.build_catchup_us->Record(phase_watch.ElapsedUs());
  FireIndexBuildHook(IndexBuildPhase::kCaughtUp);
  phase_watch.Restart();
  // Phase 3 — publish, brief exclusive window: drain the final delta,
  // append the WAL create record (only now — a crash mid-build must
  // recover to "index absent"), and flip the index to kReady. Any failure
  // aborts the build so no half-built state leaks.
  Status s;
  {
    obs::ScopedSpan phase_span("build.publish");
    LatchManager::Guard guard = latches_.AcquireExclusive(def.table);
    s = index_manager_->FinishBuildDrain(key);
    if (s.ok()) {
      s = CommitDurable([&](DurabilityLog* log, uint64_t version) {
        return log->AppendCreateIndex(def, version);
      });
    }
    if (s.ok()) {
      s = index_manager_->PublishBuild(key);
    } else {
      (void)index_manager_->AbortBuild(key);
    }
  }
  if (!s.ok()) {
    total_timer.Cancel();  // aborted builds stay out of the phase series
    return s;
  }
  metrics.build_publish_us->Record(phase_watch.ElapsedUs());
  metrics.index_builds->Add();
  FireIndexBuildHook(IndexBuildPhase::kPublished);
  return RunInvariantHook();
}

Status Database::DropIndex(const std::string& key_or_name) {
  const std::string table = index_manager_->TableOf(key_or_name);
  LatchManager::Guard guard;
  if (!table.empty()) guard = latches_.AcquireExclusive(table);
  Status s = index_manager_->DropIndex(key_or_name);
  if (s.ok()) {
    s = CommitDurable([&](DurabilityLog* log, uint64_t version) {
      return log->AppendDropIndex(key_or_name, version);
    });
  }
  guard.Release();
  if (!s.ok()) return s;
  return RunInvariantHook();
}

StatusOr<ExecResult> Database::Execute(const std::string& sql) {
  return session_->Execute(sql);
}

StatusOr<ExecResult> Database::Execute(const Statement& stmt) {
  return session_->Execute(stmt);
}

StatusOr<ExecResult> Database::ExecuteOn(Executor* executor,
                                         const Statement& stmt) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.statements->Add();
  // Statement trace root for pre-parsed statements; a no-op nested under
  // Session::Execute(sql)'s or a network request's trace.
  obs::ScopedTrace trace("statement");
  // End-to-end statement latency: latch wait + execution + WAL append.
  util::ScopedTimer statement_timer(metrics.statement_us);
  LatchManager::Guard guard = [&] {
    obs::ScopedSpan latch_span("latch.acquire");
    return latches_.Acquire(StatementLatches(stmt));
  }();
  StatusOr<ExecResult> result = [&] {
    obs::ScopedSpan exec_span("engine.execute");
    return executor->Execute(stmt);
  }();
  // Delivered under the statement latches, so the estimator sees the
  // access paths exactly as the statement ran them.
  if (result.ok() && !result->feedback.empty()) {
    DeliverFeedback(result->feedback);
  }
  if (result.ok() && stmt.IsWrite()) {
    // Logged while the exclusive table latch is still held, so WAL order
    // equals execution order for every table.
    obs::ScopedSpan commit_span("wal.commit");
    Status logged = CommitDurable([&](DurabilityLog* log, uint64_t version) {
      return log->AppendStatement(stmt, version);
    });
    if (!logged.ok()) {
      guard.Release();
      return logged;
    }
  }
  // Release before the invariant hook: CheckAll re-latches every table in
  // one sorted acquisition, and acquiring more tables while still holding
  // this statement's set could break the global lock order.
  guard.Release();
  if (!result.ok()) metrics.statement_failures->Add();
  if (result.ok() && stmt.IsWrite() && debug_checks_enabled()) {
    Status s = RunInvariantHook();
    if (!s.ok()) return s;
  }
  return result;
}

Status Database::BulkInsert(const std::string& table, std::vector<Row> rows) {
  HeapTable* t = catalog_->GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  // Insert moves the rows away, so the WAL copy is taken up front (only
  // when a log is attached — the population fast path stays copy-free).
  std::vector<Row> logged_rows;
  if (HasDurabilityLog()) logged_rows = rows;
  LatchManager::Guard guard = latches_.AcquireExclusive(table);
  // Write-visible, as in the executor's INSERT: an in-flight build must
  // see every row (buffered into its side delta).
  const std::vector<BuiltIndex*> indexes =
      index_manager_->WriteVisibleOnTable(table);
  for (Row& row : rows) {
    StatusOr<RowId> rid = t->Insert(std::move(row));
    if (!rid.ok()) return rid.status();
    for (BuiltIndex* index : indexes) index->InsertEntry(t->Get(*rid), *rid);
  }
  Status logged = CommitDurable([&](DurabilityLog* log, uint64_t version) {
    return log->AppendBulkInsert(table, logged_rows, version);
  });
  guard.Release();
  if (!logged.ok()) return logged;
  // One check for the whole batch — per-row validation would make bulk
  // loads quadratic under debug checks.
  return RunInvariantHook();
}

void Database::Analyze() {
  stats_manager_->AnalyzeAll();
  // Fresh statistics change every what-if estimate; logged so replay
  // rebuilds the same statistics (and thus the same cost estimates).
  (void)CommitDurable([&](DurabilityLog* log, uint64_t version) {
    return log->AppendAnalyze(std::string(), version);
  });
}

void Database::Analyze(const std::string& table) {
  stats_manager_->Analyze(table);
  (void)CommitDurable([&](DurabilityLog* log, uint64_t version) {
    return log->AppendAnalyze(table, version);
  });
}

std::vector<util::MetricsRegistry::MetricValue> Database::MetricsSnapshot(
    const std::string& prefix) const {
  return util::MetricsRegistry::Default().Snapshot(prefix);
}

std::string Database::RenderMetricsText(const std::string& prefix) const {
  // Render-time refresh so build.info/uptime survive ResetForTest and the
  // uptime gauge is current at every scrape.
  util::RefreshRuntimeMetrics();
  return util::MetricsRegistry::Default().RenderText(prefix);
}

std::string Database::DumpTraces() const {
  return obs::TracesToChromeJson(obs::Tracer::Default().TakeSnapshot());
}

std::string Database::RenderTraceTrees(size_t n) const {
  return obs::RenderRecentTraces(obs::Tracer::Default().TakeSnapshot(), n);
}

IndexConfig Database::CurrentConfig() const {
  IndexConfig config;
  for (const BuiltIndex* index : index_manager_->AllIndexes()) {
    config.Add(index->def());
  }
  return config;
}

}  // namespace autoindex
