#pragma once

#include <string>
#include <vector>

#include "engine/operators/operator.h"
#include "index/index_manager.h"

namespace autoindex {

// Sequential scan over one table, filtered by the level's local (literal)
// conditions. The filtered RowIds are materialized once on first pull;
// Rewind() replays them without rescanning, which is how NestedLoopJoin
// re-reads its inner side per outer tuple (liveness is rechecked per
// emission, materialization counters are paid once).
class SeqScanOp : public PhysicalOperator {
 public:
  SeqScanOp(ExecContext* ctx, const std::vector<TablePlan>& tables,
            size_t level);

  void DoOpen() override {}
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {}

  const char* name() const override { return "SeqScan"; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

  void Rewind() { cursor_ = 0; }

  // Appends every row the remaining Next calls would emit, and its RowId,
  // with the same counters; a hash join's build reads its input this way.
  void Drain(std::vector<const Row*>* rows, std::vector<RowId>* rids);

  void AppendFeedback(const CostParams& params,
                      std::vector<AccessPathFeedback>* out) const override;

 private:
  void EnsureMaterialized();

  ExecContext* ctx_;
  const std::vector<TablePlan>& tables_;
  size_t level_;
  const HeapTable* table_;
  std::vector<BoundPredicate> local_;  // over slot `level` alone
  ExecTuple candidate_;                // the row under test at slot `level`
  std::vector<RowId> materialized_;
  bool materialized_done_ = false;
  size_t cursor_ = 0;
};

// Index scan over one table. Standalone (leftmost table / write lookup) it
// probes once in Open(); as the inner side of IndexNestedLoopJoin it is
// re-probed per outer tuple via Rebind(). Emitted rows already passed the
// level's local and join conditions, evaluated against the bound outer
// tuple. Heap pages are deduplicated query-wide through the ExecContext.
class IndexScanOp : public PhysicalOperator {
 public:
  IndexScanOp(ExecContext* ctx, const std::vector<TablePlan>& tables,
              size_t level, const BuiltIndex* index);

  void DoOpen() override;
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {}

  const char* name() const override { return "IndexScan"; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

  // Whether every equality column of the key prefix has a source: a
  // literal, or a column of an earlier table (bound at construction).
  // Lowering falls back to another access path when it has not; an
  // unbindable probe simply yields no rows.
  bool key_bound() const { return key_bound_; }

  // Probes the index with the key prefix read from the first `level` slots
  // of `outer` (null for the leftmost table: literal bindings only).
  // Returns false, with no rows, when the key is not bound.
  bool Rebind(const ExecTuple* outer);

  void AppendFeedback(const CostParams& params,
                      std::vector<AccessPathFeedback>* out) const override;

 private:
  ExecContext* ctx_;
  const std::vector<TablePlan>& tables_;
  size_t level_;
  const HeapTable* table_;
  const BuiltIndex* index_;
  // Query-wide heap-page keys are salted with the table name's hash.
  size_t page_salt_;
  std::vector<BoundValue> key_;  // eq prefix, read from the outer tuple
  bool key_bound_ = true;
  const ColumnCondition* range_lo_ = nullptr;
  const ColumnCondition* range_hi_ = nullptr;
  // Partition pruning: the partition column's value; unbound = all shards.
  BoundValue partition_;
  std::vector<BoundPredicate> conditions_;  // local then join atoms
  ExecTuple candidate_;  // outer slots plus the row under test
  Row lo_, hi_;
  std::vector<RowId> rids_;
  size_t cursor_ = 0;
  int64_t probes_ = 0;
};

}  // namespace autoindex
