#include "core/manager.h"

#include "engine/session.h"
#include "obs/trace.h"
#include "persist/serde.h"
#include "util/metrics.h"

namespace autoindex {
namespace {

// Tuning-loop observability (DESIGN.md §11): round cadence and the
// split between ANALYZE, candidate generation and MCTS search.
struct TuningMetrics {
  util::Counter* rounds;
  util::Counter* observations;
  util::Counter* decays;
  util::LatencyHistogram* round_us;
  util::LatencyHistogram* analyze_us;
  util::LatencyHistogram* candidate_gen_us;
  util::LatencyHistogram* search_us;

  static const TuningMetrics& Get() {
    static const TuningMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return TuningMetrics{registry.GetCounter("tuning.rounds"),
                           registry.GetCounter("tuning.observations"),
                           registry.GetCounter("tuning.decays"),
                           registry.GetHistogram("tuning.round_us"),
                           registry.GetHistogram("tuning.analyze_us"),
                           registry.GetHistogram("tuning.candidate_gen_us"),
                           registry.GetHistogram("tuning.search_us")};
    }();
    return metrics;
  }
};

// Bound on distinct templates the store keeps (Sec. IV-C).
constexpr size_t kTemplateCapacity = 5000;
// Sec. IV-C drift handling: when the template match rate since the last
// round falls below kDriftMatchThreshold, frequencies are multiplied by
// kDecayFactor and stale templates dropped.
constexpr double kDriftMatchThreshold = 0.5;
constexpr double kDecayFactor = 0.5;
// Retirement pass (Sec. III / Fig. 1): after index selection, a built
// index with fewer planner uses than this since the last round whose
// removal does not increase the estimated workload cost is dropped
// (redundant or dead indexes, e.g. prefix-shadowed ones or indexes on
// tables the workload never touches).
constexpr size_t kUnusedDropThreshold = 1;
// Training pairs needed before a round fits the learned cost model.
constexpr size_t kMinTrainingObservations = 64;
// Sample rate for training pairs (the paper samples 0.01% of a 2.2M-query
// workload; denser here for small runs).
constexpr double kObservationSampleRate = 0.05;

}  // namespace

AutoIndexManager::AutoIndexManager(Database* db, AutoIndexConfig config)
    : db_(db), config_(config), sample_rng_(0xA11CE) {
  templates_ = std::make_unique<TemplateStore>(kTemplateCapacity);
  estimator_ = std::make_unique<IndexBenefitEstimator>(db_);
  generator_ = std::make_unique<CandidateGenerator>(db_);
  selector_ = std::make_unique<MctsIndexSelector>(db_, estimator_.get(),
                                                  config_.mcts);
  diagnoser_ = std::make_unique<IndexDiagnoser>(db_, estimator_.get());
}

AutoIndexManager::DdlOutcome AutoIndexManager::ApplyDdlNow(
    const std::vector<IndexDef>& drops, const std::vector<IndexDef>& adds) {
  DdlOutcome outcome;
  // Keep the reported deltas honest: if the estate drifted under us (say,
  // a manual DROP between search and apply), the failed DDL must not show
  // up in dropped/built as if it happened — it lands in errors instead.
  for (const IndexDef& def : drops) {
    const Status s = db_->DropIndex(def.Key());
    if (s.ok()) {
      outcome.dropped.push_back(def);
    } else {
      outcome.errors.push_back(ApplyError{def, true, s.message()});
    }
  }
  for (const IndexDef& def : adds) {
    const Status s = db_->CreateIndex(def);
    if (s.ok()) {
      outcome.built.push_back(def);
    } else {
      outcome.errors.push_back(ApplyError{def, false, s.message()});
    }
  }
  // Usage counters are per-round signals; reset after inspection.
  for (BuiltIndex* index : db_->index_manager().AllIndexes()) {
    index->ResetUses();
  }
  return outcome;
}

void AutoIndexManager::set_storage_budget(size_t bytes) {
  config_.mcts.storage_budget_bytes = bytes;
  selector_->set_storage_budget(bytes);
}

StatusOr<ExecResult> AutoIndexManager::ExecuteAndObserve(
    const std::string& sql) {
  TuningMetrics::Get().observations->Add();
  Statement stmt;
  StatusOr<ExecResult> result = [&]() -> StatusOr<ExecResult> {
    // Parsed once for the template store, the engine and the training
    // pair, under the trace and parse span Session::Execute(sql) records.
    obs::ScopedTrace trace("statement");
    StatusOr<Statement> parsed = Session::Parse(sql);
    if (!parsed.ok()) return parsed.status();
    stmt = std::move(*parsed);
    templates_->Observe(stmt, sql);
    return db_->Execute(stmt);
  }();
  if (result.ok() && config_.learn_cost_model &&
      sample_rng_.Bernoulli(kObservationSampleRate)) {
    // Historical training pair: estimated cost features under the current
    // built configuration vs. the measured execution cost.
    const CostBreakdown est = db_->WhatIfCost(stmt, db_->CurrentConfig());
    const CostBreakdown measured = result->stats.ToCost();
    estimator_->AddObservation(est.Features(), measured.Total());
  }
  return result;
}

void AutoIndexManager::ObserveOnly(const std::string& sql) {
  templates_->Observe(sql);
  TuningMetrics::Get().observations->Add();
}

WorkloadModel AutoIndexManager::CurrentWorkload() const {
  return WorkloadModel::FromTemplates(templates_->TemplatesByFrequency());
}

DiagnosisReport AutoIndexManager::Diagnose() {
  const WorkloadModel workload = CurrentWorkload();
  const std::vector<IndexDef> candidates = generator_->Generate(
      templates_->TemplatesByFrequency(), db_->CurrentConfig());
  return diagnoser_->Diagnose(workload, candidates);
}

TuningResult AutoIndexManager::RunManagementRound(bool apply) {
  const TuningMetrics& metrics = TuningMetrics::Get();
  // Tuning rounds get their own traces: ANALYZE, candidate generation,
  // MCTS search, and apply each appear as a span.
  obs::ScopedTrace trace("tuning.round");
  const util::Stopwatch round_watch;
  TuningResult result;

  // Drift handling (Sec. IV-C): decay template frequencies when the match
  // rate collapsed since the last round.
  if (templates_->MatchRate() < kDriftMatchThreshold && rounds_run_ > 0) {
    templates_->Decay(kDecayFactor);
    metrics.decays->Add();
  }
  templates_->ResetMatchStats();
  templates_->AdvanceRound();

  // Refresh statistics & train the learned estimator when enough history
  // has accumulated.
  util::Stopwatch phase_watch;
  {
    obs::ScopedSpan analyze_span("tuning.analyze");
    db_->Analyze();
  }
  metrics.analyze_us->Record(phase_watch.ElapsedUs());
  if (config_.learn_cost_model && !estimator_->model_trained()) {
    estimator_->TrainModel(kMinTrainingObservations);
  }

  const std::vector<const QueryTemplate*> templates =
      templates_->TemplatesByFrequency();
  result.templates_considered = templates.size();
  const WorkloadModel workload = WorkloadModel::FromTemplates(templates);
  const IndexConfig existing = db_->CurrentConfig();

  phase_watch.Restart();
  const std::vector<IndexDef> candidates = [&] {
    obs::ScopedSpan gen_span("tuning.candidate_gen");
    return generator_->Generate(templates, existing);
  }();
  result.candidate_gen_ms = phase_watch.ElapsedMs();
  metrics.candidate_gen_us->Record(phase_watch.ElapsedUs());
  result.candidates_generated = candidates.size();

  phase_watch.Restart();
  const MctsResult mcts = [&] {
    obs::ScopedSpan search_span("tuning.search");
    return selector_->Run(existing, candidates, workload);
  }();
  result.search_ms = phase_watch.ElapsedMs();
  metrics.search_us->Record(phase_watch.ElapsedUs());
  result.est_base_cost = mcts.base_cost;
  result.est_new_cost = mcts.best_cost;
  result.est_benefit = mcts.best_benefit;
  result.added = mcts.to_add;
  result.removed = mcts.to_remove;

  // Retirement pass: redundant/dead indexes are cost-neutral to the MCTS
  // objective, so they are cleaned up by diagnosis instead (Fig. 1): an
  // index the planner never used whose removal does not raise the
  // estimated workload cost is dropped.
  IndexConfig probe = mcts.best_config;
  double current_cost = estimator_->EstimateWorkloadCost(workload, probe);
  for (const BuiltIndex* index : db_->index_manager().AllIndexes()) {
    if (index->uses() >= kUnusedDropThreshold) continue;
    if (!probe.Contains(index->def())) continue;  // already removed
    bool planned_add = false;
    for (const IndexDef& def : mcts.to_add) {
      if (def == index->def()) planned_add = true;
    }
    if (planned_add) continue;
    IndexConfig without = probe;
    without.Remove(index->def());
    const double cost_without =
        estimator_->EstimateWorkloadCost(workload, without);
    if (cost_without <= current_cost * (1.0 + 1e-9)) {
      probe = std::move(without);
      current_cost = cost_without;
      result.removed.push_back(index->def());
    }
  }

  if (apply) {
    obs::ScopedSpan apply_span("tuning.apply");
    DdlOutcome outcome = ApplyDdlNow(result.removed, result.added);
    result.removed = std::move(outcome.dropped);
    result.added = std::move(outcome.built);
    result.apply_errors = std::move(outcome.errors);
  }

  ++rounds_run_;
  metrics.rounds->Add();
  metrics.round_us->Record(round_watch.ElapsedUs());
  result.elapsed_ms = round_watch.ElapsedMs();
  return result;
}

void AutoIndexManager::SaveTuningState(persist::Writer* w) const {
  w->PutU64(rounds_run_);
  w->PutU64(sample_rng_.state0());
  w->PutU64(sample_rng_.state1());
  templates_->Save(w);
  estimator_->Save(w);
  selector_->SaveTree(w);
}

Status AutoIndexManager::LoadTuningState(persist::Reader* r) {
  rounds_run_ = r->GetU64();
  const uint64_t s0 = r->GetU64();
  const uint64_t s1 = r->GetU64();
  sample_rng_.SetState(s0, s1);
  templates_->Load(r);
  estimator_->Load(r);
  Status s = selector_->LoadTree(r);
  if (!s.ok()) return s;
  return r->status();
}

}  // namespace autoindex
