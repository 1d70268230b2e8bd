#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/what_if.h"
#include "index/index_manager.h"
#include "sql/parser.h"
#include "stats/stats_manager.h"
#include "storage/catalog.h"
#include "storage/latch_manager.h"
#include "util/metrics.h"
#include "util/mutex.h"

namespace autoindex {

class DurabilityLog;
class Session;

// The top-level database façade: catalog + indexes + statistics + executor
// + what-if cost model. This is the substrate AutoIndex manages — the role
// openGauss plays in the paper.
//
// Concurrency model (DESIGN.md §6): statements run under table-level
// reader–writer latches managed by the LatchManager; multiple client
// threads each drive their own Session (CreateSession) while the tuning
// thread builds/drops indexes online. Database::Execute is itself a
// session: the database owns one built-in Session and forwards to it.
// The monotone data version counts every data-changing operation (writes,
// bulk loads, index DDL, ANALYZE) so caches keyed on table
// contents/statistics — notably the benefit estimator's cost memo — can
// detect staleness without callbacks.
class Database {
 public:
  explicit Database(CostParams params = CostParams());
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Sessions ---
  // A new client connection with its own executor and stats accounting.
  // Sessions may outlive neither the database nor (safely) be shared
  // between threads; create one per client thread.
  std::unique_ptr<Session> CreateSession();

  // --- DDL ---
  StatusOr<HeapTable*> CreateTable(const std::string& name, Schema schema);
  // Online three-phase index build (DESIGN.md §10), the only way an index
  // is built (tuning, manual DDL, and recovery alike): registers a
  // kBuilding index under a brief exclusive latch (from which point writer
  // maintenance lands in the build's side-delta buffer), scans the heap
  // in chunks under *shared* latches so writers interleave, catches the
  // delta up, then drains the final delta, appends the WAL create record,
  // and publishes — all inside one short exclusive window. Concurrent
  // writer stalls are O(final delta drain), not O(heap scan).
  Status CreateIndex(const IndexDef& def);
  Status DropIndex(const std::string& key_or_name);
  bool HasIndex(const IndexDef& def) const {
    return index_manager_->HasIndex(def);
  }

  // Test-only observation points between the online build's phases, fired
  // with no latch held so the observer may run statements/snapshots.
  enum class IndexBuildPhase { kRegistered, kScanned, kCaughtUp, kPublished };
  using IndexBuildHook = std::function<void(IndexBuildPhase)>;
  void set_index_build_hook(IndexBuildHook hook) {
    index_build_hook_ = std::move(hook);
  }

  // --- DML ---
  // Both overloads forward to the built-in session (Session::Execute), so
  // a statement entering here is traced, latched, logged, and reported to
  // the feedback hook exactly as one entering through any other session.
  // Like any session, the built-in one serves one thread at a time.
  //
  // Parses and executes one SQL string.
  StatusOr<ExecResult> Execute(const std::string& sql);
  // Executes a pre-parsed statement (avoids re-parsing in tight loops).
  StatusOr<ExecResult> Execute(const Statement& stmt);

  // Bulk load rows without per-statement accounting (population fast path).
  Status BulkInsert(const std::string& table, std::vector<Row> rows);

  // Refreshes optimizer statistics (call after bulk loads).
  void Analyze();
  void Analyze(const std::string& table);

  // --- What-if ---
  // Estimated cost of a statement under an arbitrary index configuration.
  CostBreakdown WhatIfCost(const Statement& stmt,
                           const IndexConfig& config) const {
    return what_if_->EstimateStatement(stmt, config);
  }

  // The configuration matching the currently built indexes.
  IndexConfig CurrentConfig() const;

  // --- Concurrency substrate ---
  // Const: latching freezes tables without changing logical database
  // state, and CheckAll must be able to do so through a const reference.
  LatchManager& latches() const { return latches_; }
  // Monotone counter bumped by every data-changing operation (successful
  // write statements, BulkInsert, index DDL, ANALYZE). Epoch-guarded
  // caches compare against it to detect staleness.
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_acquire);
  }
  // Returns the new (post-bump) version, which the durability layer stamps
  // on the corresponding WAL record.
  uint64_t BumpDataVersion() {
    return data_version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  // Recovery only: forces the counter to the version recorded by the
  // checkpoint/WAL, so epochs survive a restart.
  void RestoreDataVersion(uint64_t version) {
    data_version_.store(version, std::memory_order_release);
  }

  // --- Durability (src/persist/) ---
  // Attaches a write-ahead log. Every committed mutation is appended to it
  // under wal_mu_, paired atomically with its data-version bump, so record
  // order in the log always matches version order. Null detaches. The
  // pointer itself is guarded by wal_mu_, but attach/detach should still
  // happen while quiesced (startup, recovery, checkpoint): statements
  // already past their append see the previous log.
  void set_durability_log(DurabilityLog* log) EXCLUDES(wal_mu_) {
    util::MutexLock lock(wal_mu_);
    durability_log_ = log;
  }
  DurabilityLog* durability_log() const EXCLUDES(wal_mu_) {
    util::MutexLock lock(wal_mu_);
    return durability_log_;
  }

  // --- Correctness tooling (src/check/) ---
  // Debug-mode invariant hook: when installed, it runs after every
  // successful mutating statement, after BulkInsert, and after index DDL;
  // a failure is surfaced as that operation's status. Installed by
  // InstallDebugChecks() in src/check/ (the hook is a callback so the
  // engine never depends on the check module); null disables.
  using InvariantHook = std::function<Status(const Database&)>;
  void set_invariant_hook(InvariantHook hook) {
    invariant_hook_ = std::move(hook);
  }
  bool debug_checks_enabled() const { return invariant_hook_ != nullptr; }
  // Runs the hook now; Ok when none is installed.
  Status RunInvariantHook() const {
    return invariant_hook_ ? invariant_hook_(*this) : Status::Ok();
  }

  // --- Execution feedback ---
  // Receives the per-access-path (estimated, observed) pairs of every
  // successful statement that ran a read pipeline, on any session, while
  // that statement still holds its latches. Installed by AutoIndexManager
  // when cost-model learning is enabled (and removed by its destructor);
  // may be (re)installed while sessions are executing. Null uninstalls.
  using FeedbackHook =
      std::function<void(const std::vector<AccessPathFeedback>&)>;
  void set_execution_feedback_hook(FeedbackHook hook) EXCLUDES(feedback_mu_);

  // --- Observability (DESIGN.md §11) ---
  // Point-in-time view of the process-wide metrics registry, filtered to
  // names starting with `prefix` (all when empty). Counters/histograms
  // are process-global: two Database instances in one process share them.
  std::vector<util::MetricsRegistry::MetricValue> MetricsSnapshot(
      const std::string& prefix = {}) const;
  // Prometheus-style text exposition of the same view.
  std::string RenderMetricsText(const std::string& prefix = {}) const;

  // --- Tracing (DESIGN.md §13) ---
  // The flight recorder's current contents as Chrome trace-event JSON
  // (load via chrome://tracing or Perfetto). The shell's `\trace dump`
  // writes exactly this string.
  std::string DumpTraces() const;
  // The `n` most recent traces as indented span trees (`\trace show`).
  std::string RenderTraceTrees(size_t n) const;

  // --- Introspection ---
  // The built-in session's executor: the one Database::Execute runs on
  // (EXPLAIN ANALYZE, the plan validator).
  Executor& executor();
  const Executor& executor() const;
  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  IndexManager& index_manager() { return *index_manager_; }
  const IndexManager& index_manager() const { return *index_manager_; }
  StatsManager& stats_manager() { return *stats_manager_; }
  const StatsManager& stats_manager() const { return *stats_manager_; }
  const WhatIfCostModel& what_if() const { return *what_if_; }
  const CostParams& params() const { return params_; }

 private:
  friend class Session;

  // Executes on a session's executor under statement latches (shared for
  // SELECT on every referenced table, exclusive for writes), appends
  // writes to the WAL, and delivers the statement's feedback. The one
  // statement path: Session::Execute is its only caller.
  StatusOr<ExecResult> ExecuteOn(Executor* executor, const Statement& stmt);

  void DeliverFeedback(const std::vector<AccessPathFeedback>& batch)
      EXCLUDES(feedback_mu_);

  // The next session id (Session construction). Monotone per database; id
  // 0 is never handed out, so the net handshake can treat 0 as "no
  // session".
  uint64_t NextSessionId() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Bumps the data version and, when a durability log is attached, appends
  // the record via `append(log, new_version)` — both under wal_mu_ so
  // concurrent writers cannot interleave their (bump, append) pairs. The
  // callback receives the attached log (never null when invoked) so it can
  // append without touching the guarded pointer itself.
  Status CommitDurable(
      const std::function<Status(DurabilityLog*, uint64_t)>& append)
      EXCLUDES(wal_mu_);

  // Whether a durability log is currently attached (BulkInsert's copy
  // decision; the append itself re-reads the pointer under wal_mu_).
  bool HasDurabilityLog() const EXCLUDES(wal_mu_) {
    util::MutexLock lock(wal_mu_);
    return durability_log_ != nullptr;
  }

  void FireIndexBuildHook(IndexBuildPhase phase) const {
    if (index_build_hook_) index_build_hook_(phase);
  }

  CostParams params_;
  InvariantHook invariant_hook_;
  IndexBuildHook index_build_hook_;
  mutable LatchManager latches_;
  std::atomic<uint64_t> data_version_{1};
  std::atomic<uint64_t> next_session_id_{1};
  // Serializes (data-version bump, WAL append) pairs across writers and
  // guards the attached log pointer.
  mutable util::Mutex wal_mu_;
  DurabilityLog* durability_log_ GUARDED_BY(wal_mu_) = nullptr;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<IndexManager> index_manager_;
  std::unique_ptr<StatsManager> stats_manager_;
  std::unique_ptr<WhatIfCostModel> what_if_;
  // Guards the central feedback hook (installed by the manager, invoked
  // from every client thread's statement path).
  mutable util::Mutex feedback_mu_;
  FeedbackHook feedback_hook_ GUARDED_BY(feedback_mu_);
  // Declared last: its executor borrows the catalog, indexes and stats
  // above, so it must be destroyed first.
  std::unique_ptr<Session> session_;
};

}  // namespace autoindex
