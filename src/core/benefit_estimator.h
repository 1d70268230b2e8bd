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

  // Estimated total workload cost. Memoized per (template, usable config):
  // each template's cost is keyed by its id and an order-independent hash
  // of the config's defs that the template's what-if cost can read (its
  // IndexRelevance, duplicates kept), so MCTS configs that differ only in
  // indexes a template cannot use share that template's entry. Costs are
  // computed on that restricted config, which gives the full config's cost
  // bit for bit. The memo is epoch-guarded: it self-flushes whenever the
  // database's data version (bumped by writes, bulk loads, DDL and
  // ANALYZE) has moved since the entries were computed, so costs are
  // never served against stale table contents, statistics or indexes.
  double EstimateWorkloadCost(const WorkloadModel& workload,
                              const IndexConfig& config) const
      EXCLUDES(obs_mu_, cache_mu_);

  // Benefit of moving from `from` to `to`: positive = `to` is cheaper.
  double EstimateBenefit(const WorkloadModel& workload,
                         const IndexConfig& from, const IndexConfig& to) const;

  // --- learned model (Sec. V-B) ---
  // Training pairs kept: the newest ones, in a ring.
  static constexpr size_t kMaxTrainingPairs = 4096;

  // Records one historical observation: the cost features of a statement
  // (estimated under the then-current config) and its measured cost. Once
  // kMaxTrainingPairs are held, it replaces the oldest one.
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

  // Flushes the cost memo. Changes to data, statistics and indexes need no
  // call (the epoch guard of EstimateWorkloadCost sees them); a new learned
  // model does, and TrainModel and Load make it themselves.
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
  // The held training pairs, oldest first.
  void ChronologicalPairs(std::vector<std::vector<double>>* features,
                          std::vector<double>* targets) const
      REQUIRES(obs_mu_);

  Database* db_;

  // Guards the learned model and the observation history it trains on
  // (statement threads append observations while the tuning thread
  // trains; estimation reads the model from whichever thread tunes).
  mutable util::Mutex obs_mu_;
  SigmoidRegression model_ GUARDED_BY(obs_mu_);
  std::vector<std::vector<double>> features_ GUARDED_BY(obs_mu_);
  std::vector<double> targets_ GUARDED_BY(obs_mu_);
  // Slot of the oldest pair once the ring is full (0 until then).
  size_t oldest_ GUARDED_BY(obs_mu_) = 0;

  // Guards the cost memo and its data-version epoch.
  mutable util::Mutex cache_mu_;
  // Memo: hash-combined (template id, usable-config hash) -> cost.
  mutable std::unordered_map<uint64_t, double> cache_ GUARDED_BY(cache_mu_);
  // Database data version the memo entries were computed at.
  mutable uint64_t cache_epoch_ GUARDED_BY(cache_mu_) = 0;
};

// Stable hash of a configuration (order-independent).
uint64_t HashConfig(const IndexConfig& config);

}  // namespace autoindex
