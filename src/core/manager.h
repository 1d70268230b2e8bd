#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/benefit_estimator.h"
#include "core/candidate_gen.h"
#include "core/diagnosis.h"
#include "core/greedy.h"
#include "core/mcts.h"
#include "core/query_template.h"
#include "engine/database.h"

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
  // The DDL ran: added/removed report what actually happened.
  bool applied = false;
  // Per-definition failures from the apply pass.
  std::vector<ApplyError> apply_errors;
};

// AUTOINDEX: the end-to-end incremental index management system (Fig. 3).
// Feed it the query stream via ExecuteAndObserve(); call
// RunManagementRound() periodically (or when Diagnose() says so) to update
// the index set in place.
class AutoIndexManager {
 public:
  AutoIndexManager(Database* db, AutoIndexConfig config = {});
  // Uninstalls the execution feedback hook the constructor installed.
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
  // `apply` = false computes the recommendation without touching indexes;
  // otherwise the DDL runs on the calling thread through the online build,
  // so writers keep running while it builds. A caller that wants tuning
  // off its statement thread runs the round on a thread of its own.
  TuningResult RunManagementRound(bool apply = true);

  // Outcome of one immediate apply pass.
  struct DdlOutcome {
    std::vector<IndexDef> dropped;  // drops that succeeded
    std::vector<IndexDef> built;    // creates that succeeded
    std::vector<ApplyError> errors;
  };

  // Applies drops then creates on the calling thread (each through the
  // database's latched DDL path), resets per-round usage counters, and
  // invalidates the estimator cache. The round's apply step; exposed so
  // tests can drive it directly.
  DdlOutcome ApplyDdlNow(const std::vector<IndexDef>& drops,
                         const std::vector<IndexDef>& adds);

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
  Database* db_;
  AutoIndexConfig config_;
  std::unique_ptr<TemplateStore> templates_;
  std::unique_ptr<IndexBenefitEstimator> estimator_;
  std::unique_ptr<CandidateGenerator> generator_;
  std::unique_ptr<MctsIndexSelector> selector_;
  std::unique_ptr<IndexDiagnoser> diagnoser_;
  Random sample_rng_;
  size_t rounds_run_ = 0;
};

}  // namespace autoindex
