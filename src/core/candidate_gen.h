#pragma once

#include <vector>

#include "core/query_template.h"
#include "engine/database.h"
#include "engine/what_if.h"
#include "index/index_def.h"

namespace autoindex {

// Template-based candidate index generation (Sec. IV-A):
//  1. expression extraction per clause (filter / join / GROUP / ORDER),
//  2. DNF rewrite of boolean predicates, per-conjunct factorization,
//     selectivity-thresholded index emission (equality columns before
//     range columns),
//  3. dedup + leftmost-prefix merge + removal of already-built indexes.
class CandidateGenerator {
 public:
  explicit CandidateGenerator(Database* db) : db_(db) {}

  // Generates candidates for a set of templates (typically the store's
  // TemplatesByFrequency()). `existing` filters out indexes that are
  // already present.
  std::vector<IndexDef> Generate(
      const std::vector<const QueryTemplate*>& templates,
      const IndexConfig& existing) const;

  // Candidates from a single statement (no existing-index filtering) —
  // exposed for tests and for query-level baselines (Fig. 8 ablation).
  std::vector<IndexDef> FromStatement(const Statement& stmt) const;

 private:
  void FromSelect(const SelectStatement& stmt,
                  std::vector<IndexDef>* out) const;
  void FromWhere(const Expr* where, const std::vector<TableRef>& from,
                 std::vector<IndexDef>* out) const;
  // Emits an index for one DNF conjunction restricted to one table.
  void EmitFromConjunction(const std::string& table,
                           const std::vector<const Expr*>& atoms,
                           std::vector<IndexDef>* out) const;

  Database* db_;
};

// Dedup + leftmost-prefix merge (Sec. IV-A step 3): drops exact duplicates
// and any index that is a strict prefix of another candidate. Exposed for
// tests.
std::vector<IndexDef> MergeCandidates(std::vector<IndexDef> candidates);

}  // namespace autoindex
