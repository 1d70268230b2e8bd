#include "core/query_template.h"

#include <algorithm>

#include "persist/serde.h"
#include "persist/sql_serde.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace autoindex {

TemplateStore::TemplateStore(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

QueryTemplate* TemplateStore::Observe(const std::string& sql) {
  return FindOrInsert(sql, nullptr);
}

QueryTemplate* TemplateStore::Observe(const Statement& stmt,
                                      const std::string& sql) {
  return FindOrInsert(sql, &stmt);
}

QueryTemplate* TemplateStore::FindOrInsert(const std::string& sql,
                                           const Statement* parsed) {
  std::string fp = FingerprintSql(sql);
  auto it = templates_.find(fp);
  if (it != templates_.end()) {
    ++total_observed_;
    ++observed_since_reset_;
    ++matched_since_reset_;
    QueryTemplate* t = it->second.get();
    t->frequency += 1.0;
    ++t->total_matches;
    t->last_seen_round = round_;
    return t;
  }
  Statement stmt;
  if (parsed != nullptr) {
    stmt = parsed->Clone();
  } else {
    StatusOr<Statement> fresh = ParseSql(sql);
    // Unparseable SQL is no observation: counting it would lower the
    // match rate and fake workload drift.
    if (!fresh.ok()) return nullptr;
    stmt = std::move(*fresh);
  }
  ++total_observed_;
  ++observed_since_reset_;
  if (templates_.size() >= capacity_) EvictLowestFrequency();
  auto tmpl = std::make_unique<QueryTemplate>();
  tmpl->id = next_id_++;
  tmpl->fingerprint = fp;
  tmpl->representative = std::move(stmt);
  tmpl->frequency = 1.0;
  tmpl->total_matches = 1;
  tmpl->last_seen_round = round_;
  tmpl->is_write = tmpl->representative.IsWrite();
  QueryTemplate* raw = tmpl.get();
  templates_.emplace(std::move(fp), std::move(tmpl));
  return raw;
}

void TemplateStore::EvictLowestFrequency() {
  if (templates_.empty()) return;
  auto victim = templates_.begin();
  for (auto it = templates_.begin(); it != templates_.end(); ++it) {
    if (it->second->frequency < victim->second->frequency ||
        (it->second->frequency == victim->second->frequency &&
         it->second->last_seen_round < victim->second->last_seen_round)) {
      victim = it;
    }
  }
  templates_.erase(victim);
}

void TemplateStore::Decay(double factor, double min_frequency) {
  for (auto it = templates_.begin(); it != templates_.end();) {
    it->second->frequency *= factor;
    // A template observed in the current round is live no matter how low
    // decay pushed its accumulated frequency — erasing it would drop a
    // query shape the workload is actively sending (it was typically
    // created this round with frequency 1.0, which one aggressive decay
    // immediately puts under the floor).
    if (it->second->frequency < min_frequency &&
        it->second->last_seen_round != round_) {
      it = templates_.erase(it);
    } else {
      ++it;
    }
  }
}

double TemplateStore::MatchRate() const {
  if (observed_since_reset_ == 0) return 1.0;
  return static_cast<double>(matched_since_reset_) / observed_since_reset_;
}

void TemplateStore::ResetMatchStats() {
  matched_since_reset_ = 0;
  observed_since_reset_ = 0;
}

std::vector<const QueryTemplate*> TemplateStore::TemplatesByFrequency()
    const {
  std::vector<const QueryTemplate*> out;
  out.reserve(templates_.size());
  for (const auto& [_, t] : templates_) out.push_back(t.get());
  std::sort(out.begin(), out.end(),
            [](const QueryTemplate* a, const QueryTemplate* b) {
              if (a->frequency != b->frequency) {
                return a->frequency > b->frequency;
              }
              return a->id < b->id;
            });
  return out;
}

void TemplateStore::Save(persist::Writer* w) const {
  w->PutU64(next_id_);
  w->PutU64(round_);
  w->PutU64(total_observed_);
  w->PutU64(matched_since_reset_);
  w->PutU64(observed_since_reset_);
  // Id order (not hash-map order) keeps snapshot bytes deterministic.
  std::vector<const QueryTemplate*> sorted;
  sorted.reserve(templates_.size());
  for (const auto& [_, t] : templates_) sorted.push_back(t.get());
  std::sort(sorted.begin(), sorted.end(),
            [](const QueryTemplate* a, const QueryTemplate* b) {
              return a->id < b->id;
            });
  w->PutU32(static_cast<uint32_t>(sorted.size()));
  for (const QueryTemplate* t : sorted) {
    w->PutU64(t->id);
    w->PutString(t->fingerprint);
    persist::PutStatement(w, t->representative);
    w->PutDouble(t->frequency);
    w->PutU64(t->total_matches);
    w->PutU64(t->last_seen_round);
    w->PutBool(t->is_write);
  }
}

void TemplateStore::Load(persist::Reader* r) {
  templates_.clear();
  next_id_ = r->GetU64();
  round_ = r->GetU64();
  total_observed_ = r->GetU64();
  matched_since_reset_ = r->GetU64();
  observed_since_reset_ = r->GetU64();
  const uint32_t n = r->GetU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    auto t = std::make_unique<QueryTemplate>();
    t->id = r->GetU64();
    t->fingerprint = r->GetString();
    t->representative = persist::GetStatement(r);
    t->frequency = r->GetDouble();
    t->total_matches = r->GetU64();
    t->last_seen_round = r->GetU64();
    t->is_write = r->GetBool();
    if (!r->ok()) break;
    templates_[t->fingerprint] = std::move(t);
  }
}

}  // namespace autoindex
