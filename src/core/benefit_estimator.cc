#include "core/benefit_estimator.h"

#include <algorithm>

#include "persist/serde.h"
#include "util/metrics.h"

namespace autoindex {
namespace {

struct EstimatorMetrics {
  util::Counter* cache_hits;
  util::Counter* cache_misses;
  util::Counter* cache_invalidations;

  static const EstimatorMetrics& Get() {
    static const EstimatorMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return EstimatorMetrics{
          registry.GetCounter("estimator.cache.hits"),
          registry.GetCounter("estimator.cache.misses"),
          registry.GetCounter("estimator.cache.invalidations")};
    }();
    return metrics;
  }
};

}  // namespace

WorkloadModel WorkloadModel::FromTemplates(
    const std::vector<const QueryTemplate*>& templates) {
  WorkloadModel model;
  model.entries.reserve(templates.size());
  for (const QueryTemplate* t : templates) {
    if (t->frequency <= 0.0) continue;
    model.entries.push_back({t, t->frequency});
  }
  return model;
}

namespace {

// Finalizer-strength 64-bit mixer (splitmix64): every input bit affects
// every output bit, so combining mixed values resists cancellation.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a of the def's key, mixed.
uint64_t HashIndexDef(const IndexDef& def) {
  const std::string key = def.Key();
  uint64_t d = 14695981039346656037ULL;
  for (unsigned char c : key) {
    d ^= c;
    d *= 1099511628211ULL;
  }
  return Mix64(d);
}

// A config hashes order-independently as the *sum* of its mixed def
// hashes. An XOR combine would cancel duplicate defs (a ^ a == 0), making
// {d1, d1, d2} collide with {d2}; addition keeps multiplicity visible.
constexpr uint64_t kConfigHashSeed = 0x12345678;

}  // namespace

uint64_t HashConfig(const IndexConfig& config) {
  uint64_t h = kConfigHashSeed;
  for (const IndexDef& def : config.defs()) h += HashIndexDef(def);
  return Mix64(h);
}

double IndexBenefitEstimator::CombineFeatures(
    const CostBreakdown& breakdown) const {
  util::MutexLock lock(obs_mu_);
  if (model_.trained()) {
    return model_.Predict(breakdown.Features());
  }
  return breakdown.Total();
}

double IndexBenefitEstimator::EstimateStatementCost(
    const Statement& stmt, const IndexConfig& config) const {
  return CombineFeatures(db_->WhatIfCost(stmt, config));
}

double IndexBenefitEstimator::EstimateWorkloadCost(
    const WorkloadModel& workload, const IndexConfig& config) const {
  const std::vector<IndexDef>& defs = config.defs();
  std::vector<uint64_t> def_hashes;
  def_hashes.reserve(defs.size());
  for (const IndexDef& def : defs) def_hashes.push_back(HashIndexDef(def));
  const uint64_t epoch = db_->data_version();
  std::vector<size_t> usable;
  double total = 0.0;
  for (const WorkloadModel::Entry& entry : workload.entries) {
    // The template's cost depends only on the defs it can read, so configs
    // that differ elsewhere share its entry. Duplicates stay in: writes
    // charge maintenance per copy.
    usable.clear();
    uint64_t usable_hash = kConfigHashSeed;
    for (size_t i = 0; i < defs.size(); ++i) {
      if (!entry.tmpl->relevance.CanRead(defs[i])) continue;
      usable.push_back(i);
      usable_hash += def_hashes[i];
    }
    // Full-avalanche combine of (template id, usable-config hash): a linear
    // `id * K ^ hash` key would let (id, config) pairs collide whenever id
    // differences matched hash differences.
    const uint64_t key = Mix64(Mix64(entry.tmpl->id) ^ Mix64(usable_hash));
    double cost;
    bool hit = false;
    {
      util::MutexLock lock(cache_mu_);
      if (cache_epoch_ != epoch) {
        // Data or statistics moved since these entries were computed.
        if (!cache_.empty()) {
          EstimatorMetrics::Get().cache_invalidations->Add();
        }
        cache_.clear();
        cache_epoch_ = epoch;
      }
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        cost = it->second;
        hit = true;
      }
    }
    if (hit) {
      EstimatorMetrics::Get().cache_hits->Add();
    } else {
      EstimatorMetrics::Get().cache_misses->Add();
      // Compute outside the lock: the what-if model is the expensive part.
      // The defs keep the config's order, so planner ties break the same
      // way as on the full config.
      std::vector<IndexDef> usable_defs;
      usable_defs.reserve(usable.size());
      for (size_t i : usable) usable_defs.push_back(defs[i]);
      cost = EstimateStatementCost(entry.tmpl->representative,
                                   IndexConfig(std::move(usable_defs)));
      util::MutexLock lock(cache_mu_);
      if (cache_epoch_ == epoch) cache_.emplace(key, cost);
    }
    total += entry.weight * cost;
  }
  return total;
}

double IndexBenefitEstimator::EstimateBenefit(const WorkloadModel& workload,
                                              const IndexConfig& from,
                                              const IndexConfig& to) const {
  return EstimateWorkloadCost(workload, from) -
         EstimateWorkloadCost(workload, to);
}

void IndexBenefitEstimator::AddObservation(const std::vector<double>& features,
                                           double measured_cost) {
  util::MutexLock lock(obs_mu_);
  if (features_.size() < kMaxTrainingPairs) {
    features_.push_back(features);
    targets_.push_back(measured_cost);
    return;
  }
  features_[oldest_] = features;
  targets_[oldest_] = measured_cost;
  oldest_ = (oldest_ + 1) % kMaxTrainingPairs;
}

void IndexBenefitEstimator::ChronologicalPairs(
    std::vector<std::vector<double>>* features,
    std::vector<double>* targets) const {
  *features = features_;
  *targets = targets_;
  const auto pivot = static_cast<std::ptrdiff_t>(oldest_);
  std::rotate(features->begin(), features->begin() + pivot, features->end());
  std::rotate(targets->begin(), targets->begin() + pivot, targets->end());
}

size_t IndexBenefitEstimator::num_observations() const {
  util::MutexLock lock(obs_mu_);
  return features_.size();
}

void IndexBenefitEstimator::InvalidateCache() const {
  util::MutexLock lock(cache_mu_);
  if (!cache_.empty()) {
    EstimatorMetrics::Get().cache_invalidations->Add();
  }
  cache_.clear();
}

size_t IndexBenefitEstimator::cache_size() const {
  util::MutexLock lock(cache_mu_);
  return cache_.size();
}

double IndexBenefitEstimator::TrainModel(size_t min_observations) {
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  {
    util::MutexLock lock(obs_mu_);
    if (features_.size() < min_observations) return -1.0;
    ChronologicalPairs(&features, &targets);
  }
  // Train on the copy without holding obs_mu_ (training is by far the
  // most expensive step and Train() reinitializes all state itself), then
  // publish the result atomically. Estimates running meanwhile combine
  // with the previous model — never a half-trained one.
  SigmoidRegression trained;
  TrainConfig config;
  config.epochs = 200;
  const double mse = trained.Train(features, targets, config);
  if (trained.trained()) {
    util::MutexLock lock(obs_mu_);
    model_ = std::move(trained);
  }
  InvalidateCache();  // model change invalidates memoized costs
  return mse;
}

double IndexBenefitEstimator::CrossValidateRmse() const {
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  {
    util::MutexLock lock(obs_mu_);
    ChronologicalPairs(&features, &targets);
  }
  return SigmoidRegression::CrossValidate(features, targets, 9);
}

void IndexBenefitEstimator::Save(persist::Writer* w) const {
  util::MutexLock lock(obs_mu_);
  model_.Save(w);
  const size_t n = features_.size();
  w->PutU32(static_cast<uint32_t>(n));
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (oldest_ + k) % n;
    w->PutU32(static_cast<uint32_t>(features_[i].size()));
    for (double v : features_[i]) w->PutDouble(v);
    w->PutDouble(targets_[i]);
  }
}

void IndexBenefitEstimator::Load(persist::Reader* r) {
  {
    util::MutexLock lock(obs_mu_);
    model_ = SigmoidRegression::Load(r);
    features_.clear();
    targets_.clear();
    oldest_ = 0;
    const uint32_t nobs = r->GetU32();
    for (uint32_t i = 0; i < nobs && r->ok(); ++i) {
      std::vector<double> row;
      const uint32_t width = r->GetU32();
      row.reserve(std::min<size_t>(width, r->remaining()));
      for (uint32_t j = 0; j < width && r->ok(); ++j) {
        row.push_back(r->GetDouble());
      }
      features_.push_back(std::move(row));
      targets_.push_back(r->GetDouble());
    }
    // A snapshot written before the ring existed may hold more pairs; keep
    // the newest.
    if (features_.size() > kMaxTrainingPairs) {
      const auto excess =
          static_cast<std::ptrdiff_t>(features_.size() - kMaxTrainingPairs);
      features_.erase(features_.begin(), features_.begin() + excess);
      targets_.erase(targets_.begin(), targets_.begin() + excess);
    }
  }
  // The memo was computed by a different process at a different epoch.
  InvalidateCache();
}

}  // namespace autoindex
