#pragma once

#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/benefit_estimator.h"
#include "core/candidate_gen.h"
#include "core/diagnosis.h"
#include "core/greedy.h"
#include "core/mcts.h"
#include "core/query_template.h"
#include "engine/database.h"
#include "util/mutex.h"

namespace autoindex {

namespace persist {
class Reader;
class Writer;
}  // namespace persist

struct AutoIndexConfig {
  size_t template_capacity = 5000;
  size_t storage_budget_bytes = 0;  // 0 = unlimited
  CandidateGenConfig candidate_gen;
  MctsConfig mcts;
  DiagnosisConfig diagnosis;
  // Sec. IV-C drift handling: when the template match rate since the last
  // round falls below `drift_match_threshold`, frequencies are multiplied
  // by `decay_factor` and stale templates dropped.
  double drift_match_threshold = 0.5;
  double decay_factor = 0.5;
  // Retirement pass (Sec. III / Fig. 1): after index selection, drop built
  // indexes that the planner has not used since the last round AND whose
  // removal does not increase the estimated workload cost (redundant or
  // dead indexes — e.g. prefix-shadowed ones or indexes on tables the
  // workload never touches).
  bool drop_unused_indexes = true;
  size_t unused_drop_threshold = 1;  // planner uses below this = unused
  // Learn the estimator model from execution history (Sec. V-B). When
  // false the estimator keeps classical static weights.
  bool learn_cost_model = true;
  size_t min_training_observations = 64;
  // Sample rate for collecting training observations (the paper samples
  // 0.01% of a 2.2M-query workload; we default denser for small runs).
  double observation_sample_rate = 0.05;
  // Request-scoped tracing (DESIGN.md §13): statements slower than
  // trace_slow_us always land in the flight recorder's ring buffer; a
  // trace_sample_rate fraction of the remaining traces is head-sampled.
  // Pushed into obs::Tracer::Default() at manager construction.
  uint64_t trace_slow_us = 10'000;
  double trace_sample_rate = 0.01;
  // Apply recommended DDL on a background worker thread: the round stages
  // its adds/drops onto the apply queue and returns immediately, so the
  // tuning loop never blocks behind index builds. Join with WaitForApply()
  // (which also returns any failures). Off by default: the synchronous
  // path keeps single-threaded tests and examples deterministic.
  bool async_apply = false;
};

// One failed create/drop from an apply pass (the Status the database
// returned, kept per definition so callers can report precisely).
struct ApplyError {
  IndexDef def;
  bool drop = false;  // true: DropIndex failed; false: CreateIndex failed
  std::string message;
};

// The outcome of one management round (Sec. III workflow).
struct TuningResult {
  std::vector<IndexDef> added;
  std::vector<IndexDef> removed;
  double est_base_cost = 0.0;
  double est_new_cost = 0.0;
  double est_benefit = 0.0;
  size_t candidates_generated = 0;
  size_t templates_considered = 0;
  double elapsed_ms = 0.0;        // total index-management overhead
  double candidate_gen_ms = 0.0;  // template matching + candidate extraction
  double search_ms = 0.0;         // MCTS selection
  // Synchronous apply ran: added/removed report what actually happened.
  bool applied = false;
  // Async apply: the DDL was staged onto the background queue and
  // added/removed report the *recommendation*; publication (and any
  // failures) surface from WaitForApply().
  bool staged = false;
  // Per-definition failures from the synchronous apply path.
  std::vector<ApplyError> apply_errors;
};

// AUTOINDEX: the end-to-end incremental index management system (Fig. 3).
// Feed it the query stream via ExecuteAndObserve(); call
// RunManagementRound() periodically (or when Diagnose() says so) to update
// the index set in place.
class AutoIndexManager {
 public:
  AutoIndexManager(Database* db, AutoIndexConfig config = {});
  // Drains and joins the background apply worker (staged DDL still lands)
  // and uninstalls the execution feedback hook it installed.
  ~AutoIndexManager();

  AutoIndexManager(const AutoIndexManager&) = delete;
  AutoIndexManager& operator=(const AutoIndexManager&) = delete;

  // Executes one query and records it in the template store; samples
  // (features, measured cost) pairs as estimator training data.
  StatusOr<ExecResult> ExecuteAndObserve(const std::string& sql);

  // Records a query without executing it (offline analysis mode).
  void ObserveOnly(const std::string& sql);

  // Index diagnosis against the current workload model (Sec. III).
  DiagnosisReport Diagnose();

  // One full management round: template snapshot -> candidate generation
  // -> MCTS search -> apply adds/drops to the database.
  // `apply` = false computes the recommendation without touching indexes.
  // With config().async_apply the DDL is staged onto the background apply
  // queue instead of running inline (result.staged, see TuningResult).
  TuningResult RunManagementRound(bool apply = true);

  // Outcome of one immediate apply pass.
  struct DdlOutcome {
    std::vector<IndexDef> dropped;  // drops that succeeded
    std::vector<IndexDef> built;    // creates that succeeded
    std::vector<ApplyError> errors;
  };

  // Applies drops then creates on the calling thread (each through the
  // database's latched DDL path), resets per-round usage counters, and
  // invalidates the estimator cache. Shared by the synchronous round path
  // and the background worker; exposed so tests can drive it directly.
  DdlOutcome ApplyDdlNow(const std::vector<IndexDef>& drops,
                         const std::vector<IndexDef>& adds);

  // Blocks until the background apply queue is empty and nothing is in
  // flight, then returns (and clears) the failures accumulated since the
  // last call. Immediate no-op when no DDL was ever staged.
  std::vector<ApplyError> WaitForApply() EXCLUDES(apply_mu_);

  // The current workload model (templates weighted by frequency).
  WorkloadModel CurrentWorkload() const;

  TemplateStore& templates() { return *templates_; }
  IndexBenefitEstimator& estimator() { return *estimator_; }
  MctsIndexSelector& selector() { return *selector_; }
  Database& db() { return *db_; }
  const AutoIndexConfig& config() const { return config_; }
  void set_storage_budget(size_t bytes);

  // Snapshot serialization (src/persist/): the complete tuning state —
  // template store, estimator (model, history, feedback), MCTS policy
  // tree, sampling rng, and round counter — so a restarted manager resumes
  // tuning exactly where the saved one stopped.
  void SaveTuningState(persist::Writer* w) const;
  Status LoadTuningState(persist::Reader* r);

 private:
  // One staged apply: drops run before adds, mirroring the sync path.
  struct ApplyTask {
    std::vector<IndexDef> drops;
    std::vector<IndexDef> adds;
  };

  void EnqueueApply(ApplyTask task) EXCLUDES(apply_mu_);
  // Background worker: pops tasks until shutdown, then drains the queue
  // before exiting so staged DDL is never silently dropped.
  void ApplyWorkerLoop() EXCLUDES(apply_mu_);
  void ShutdownApplyWorker() EXCLUDES(apply_mu_);

  Database* db_;
  AutoIndexConfig config_;
  std::unique_ptr<TemplateStore> templates_;
  std::unique_ptr<IndexBenefitEstimator> estimator_;
  std::unique_ptr<CandidateGenerator> generator_;
  std::unique_ptr<MctsIndexSelector> selector_;
  std::unique_ptr<IndexDiagnoser> diagnoser_;
  Random sample_rng_;
  size_t rounds_run_ = 0;

  // Async apply state. The worker thread is started lazily on the first
  // staged task and joined (never detached) by ShutdownApplyWorker.
  mutable util::Mutex apply_mu_;
  util::CondVar apply_cv_;
  std::deque<ApplyTask> apply_queue_ GUARDED_BY(apply_mu_);
  std::vector<ApplyError> apply_errors_ GUARDED_BY(apply_mu_);
  bool apply_inflight_ GUARDED_BY(apply_mu_) = false;
  bool apply_shutdown_ GUARDED_BY(apply_mu_) = false;
  bool apply_worker_started_ GUARDED_BY(apply_mu_) = false;
  // Owned by the constructor/destructor thread; started under apply_mu_
  // (apply_worker_started_ is the guarded truth about its liveness).
  std::thread apply_worker_;
};

}  // namespace autoindex
