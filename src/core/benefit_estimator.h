#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/query_template.h"
#include "engine/database.h"
#include "engine/what_if.h"
#include "ml/regression.h"
#include "util/mutex.h"

namespace autoindex {

namespace persist {
class Reader;
class Writer;
}  // namespace persist

// The workload model index benefits are computed against: the templates
// with their (decayed) frequencies. Cost of the workload under a config =
// sum over templates of frequency * estimated statement cost.
struct WorkloadModel {
  struct Entry {
    const QueryTemplate* tmpl;
    double weight;
  };
  std::vector<Entry> entries;

  static WorkloadModel FromTemplates(
      const std::vector<const QueryTemplate*>& templates);
};

// The paper's index benefit estimator (Sec. V): computes the cost features
// C_data / C_io / C_cpu per statement via the what-if model and combines
// them either with classical static weights (untrained) or with the
// learned one-layer sigmoid regression (trained on historical
// (features, measured cost) pairs).
class IndexBenefitEstimator {
 public:
  explicit IndexBenefitEstimator(Database* db) : db_(db) {}

  IndexBenefitEstimator(const IndexBenefitEstimator&) = delete;
  IndexBenefitEstimator& operator=(const IndexBenefitEstimator&) = delete;

  // Estimated cost of one statement under a config (model-combined).
  double EstimateStatementCost(const Statement& stmt,
                               const IndexConfig& config) const
      EXCLUDES(obs_mu_);

  // Estimated total workload cost. Memoized per (template, config) — MCTS
  // evaluates thousands of configs over the same templates. The memo is
  // epoch-guarded: it self-flushes whenever the database's data version
  // (bumped by writes, bulk loads, DDL, and ANALYZE) has moved since the
  // entries were computed, so costs can never be served against stale
  // table contents or statistics.
  double EstimateWorkloadCost(const WorkloadModel& workload,
                              const IndexConfig& config) const
      EXCLUDES(obs_mu_, cache_mu_);

  // Benefit of moving from `from` to `to`: positive = `to` is cheaper.
  double EstimateBenefit(const WorkloadModel& workload,
                         const IndexConfig& from, const IndexConfig& to) const;

  // --- learned model (Sec. V-B) ---
  // Records one historical observation: the cost features of a statement
  // (estimated under the then-current config) and its measured cost.
  void AddObservation(const std::vector<double>& features,
                      double measured_cost) EXCLUDES(obs_mu_);
  // Trains when enough observations exist; returns final training MSE or
  // a negative value when skipped. Training runs on a copy of the history
  // and the freshly trained model is swapped in under obs_mu_, so
  // concurrent estimates always see either the old or the new model —
  // never a half-trained one.
  double TrainModel(size_t min_observations = 64)
      EXCLUDES(obs_mu_, cache_mu_);
  bool model_trained() const EXCLUDES(obs_mu_) {
    util::MutexLock lock(obs_mu_);
    return model_.trained();
  }
  size_t num_observations() const EXCLUDES(obs_mu_);
  // 9-fold cross-validated RMSE over the collected history.
  double CrossValidateRmse() const EXCLUDES(obs_mu_);

  // Explicitly flushes the (template, config) memo. Usually unnecessary —
  // the epoch guard (see EstimateWorkloadCost) invalidates automatically
  // on data/stats change — but kept for model swaps and tests.
  void InvalidateCache() const EXCLUDES(cache_mu_);
  // Memo entries currently held (tests).
  size_t cache_size() const EXCLUDES(cache_mu_);

  // Snapshot serialization (src/persist/): the learned model and the
  // observation history round-trip; the epoch-guarded cost memo is
  // deliberately not saved (it rebuilds lazily and its epoch would be
  // stale anyway).
  void Save(persist::Writer* w) const EXCLUDES(obs_mu_);
  void Load(persist::Reader* r) EXCLUDES(obs_mu_, cache_mu_);

 private:
  double CombineFeatures(const CostBreakdown& breakdown) const
      EXCLUDES(obs_mu_);

  Database* db_;

  // Guards the learned model and the observation history it trains on
  // (statement threads append observations while the tuning thread
  // trains; estimation reads the model from whichever thread tunes).
  mutable util::Mutex obs_mu_;
  SigmoidRegression model_ GUARDED_BY(obs_mu_);
  std::vector<std::vector<double>> features_ GUARDED_BY(obs_mu_);
  std::vector<double> targets_ GUARDED_BY(obs_mu_);

  // Guards the cost memo and its data-version epoch.
  mutable util::Mutex cache_mu_;
  // Memo: hash-combined (template id, config hash) -> cost.
  mutable std::unordered_map<uint64_t, double> cache_ GUARDED_BY(cache_mu_);
  // Database data version the memo entries were computed at.
  mutable uint64_t cache_epoch_ GUARDED_BY(cache_mu_) = 0;
};

// Stable hash of a configuration (order-independent).
uint64_t HashConfig(const IndexConfig& config);

}  // namespace autoindex
