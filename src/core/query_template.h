#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/what_if.h"
#include "sql/statement.h"

namespace autoindex {

namespace persist {
class Reader;
class Writer;
}  // namespace persist

// One query template: the shared access pattern of all queries with the
// same fingerprint (Sec. IV-A step 1). The representative statement is the
// first instance observed; candidate generation reads its structure (which
// columns, which clauses), not its constants.
struct QueryTemplate {
  uint64_t id = 0;
  std::string fingerprint;
  Statement representative;
  // The indexes the representative's what-if cost can read; the benefit
  // estimator's memo keys this template's costs by them.
  IndexRelevance relevance;
  // Decayed match count — the template's weight in the workload model.
  double frequency = 0.0;
  // Undecayed lifetime count.
  size_t total_matches = 0;
  uint64_t last_seen_round = 0;
  bool is_write = false;
};

// Bounded store of the most frequently matched templates. Retention is
// frequency-based ("similar to LRU": Sec. IV-C keeps templates most likely
// to recur); drift handling multiplies all frequencies by a decay factor
// and drops the low-frequency tail.
class TemplateStore {
 public:
  explicit TemplateStore(size_t capacity = 5000);

  TemplateStore(const TemplateStore&) = delete;
  TemplateStore& operator=(const TemplateStore&) = delete;

  // Records one query occurrence. Parses only when the fingerprint is new
  // (the hot path for repeated queries is a hash lookup). Returns the
  // matched/created template, or nullptr for unparseable SQL, which is
  // not counted as an observation.
  QueryTemplate* Observe(const std::string& sql);

  // Same, given a pre-parsed statement (skips parsing entirely).
  QueryTemplate* Observe(const Statement& stmt, const std::string& sql);

  // Multiplies every frequency by `factor` (in [0,1]) and evicts templates
  // whose frequency drops below `min_frequency` (Sec. IV-C drift rule).
  void Decay(double factor, double min_frequency = 0.5);

  // Advances the logical round counter (one round = one management cycle).
  void AdvanceRound() { ++round_; }
  uint64_t round() const { return round_; }

  // Fraction of observations since the last ResetMatchStats() that matched
  // an already-known template. A low rate signals workload drift.
  double MatchRate() const;
  void ResetMatchStats();

  // Templates sorted by frequency, highest first.
  std::vector<const QueryTemplate*> TemplatesByFrequency() const;

  size_t size() const { return templates_.size(); }
  size_t capacity() const { return capacity_; }
  size_t total_observed() const { return total_observed_; }

  // Snapshot serialization (src/persist/): templates in id order plus the
  // counters, so a reloaded store matches, decays, and assigns new ids
  // exactly where the saved one stopped. Load replaces the store contents
  // (capacity keeps its constructed value).
  void Save(persist::Writer* w) const;
  void Load(persist::Reader* r);

 private:
  // The one body of both Observe overloads: counts a match on `sql`'s
  // template, or inserts a new one from `parsed` (parsing `sql` when null).
  QueryTemplate* FindOrInsert(const std::string& sql, const Statement* parsed);
  void EvictLowestFrequency();

  size_t capacity_;
  uint64_t next_id_ = 1;
  uint64_t round_ = 0;
  size_t total_observed_ = 0;
  size_t matched_since_reset_ = 0;
  size_t observed_since_reset_ = 0;
  std::unordered_map<std::string, std::unique_ptr<QueryTemplate>> templates_;
};

}  // namespace autoindex
