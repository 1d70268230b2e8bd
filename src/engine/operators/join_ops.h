#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/operators/scan_ops.h"

namespace autoindex {

// Shared shape of the three left-deep join operators: child 0 is the outer
// pipeline (tuples of `level` slots), child 1 the inner access operator
// for tables_[level]. Emitted tuples extend the outer tuple by one slot.
class JoinOpBase : public PhysicalOperator {
 public:
  JoinOpBase(ExecContext* ctx, const std::vector<TablePlan>& tables,
             size_t level, std::unique_ptr<PhysicalOperator> outer)
      : ctx_(ctx),
        tables_(tables),
        level_(level),
        outer_(std::move(outer)),
        join_conds_(ColumnBinder(*ctx->catalog, tables, level)
                        .BindConditions(tables[level], /*join=*/true)) {}

  size_t out_width() const override { return level_ + 1; }
  size_t num_children() const override { return 2; }
  std::string detail() const override {
    return "to " + tables_[level_].ref.alias;
  }

 protected:
  // Pulls the next outer tuple into tuple_, widened by an empty slot for
  // tables_[level].
  bool NextOuter() {
    if (!outer_->Next(&tuple_)) return false;
    ++stats_.rows_in;
    tuple_.slots.push_back(nullptr);
    tuple_.rids.push_back(kInvalidRowId);
    return true;
  }
  // Places an inner row in the new slot; true when the level's join
  // conditions hold over the widened tuple.
  bool Place(const Row* row, RowId rid) {
    tuple_.slots.back() = row;
    tuple_.rids.back() = rid;
    return AllHold(join_conds_, tuple_, &stats_.comparisons);
  }
  void Emit(ExecTuple* out) {
    *out = tuple_;
    ++stats_.rows_out;
  }

  ExecContext* ctx_;
  const std::vector<TablePlan>& tables_;
  size_t level_;
  std::unique_ptr<PhysicalOperator> outer_;
  std::vector<BoundPredicate> join_conds_;
  ExecTuple tuple_;  // current outer tuple plus the inner row's slot
  ExecTuple inner_tuple_;
  bool inner_active_ = false;
};

// Index nested-loop join: re-probes the inner IndexScan per outer tuple
// (runtime-bound key prefix). The inner scan already applies the level's
// local and join conditions against the bound outer tuple.
class IndexNestedLoopJoinOp : public JoinOpBase {
 public:
  IndexNestedLoopJoinOp(ExecContext* ctx,
                        const std::vector<TablePlan>& tables, size_t level,
                        std::unique_ptr<PhysicalOperator> outer,
                        std::unique_ptr<IndexScanOp> inner)
      : JoinOpBase(ctx, tables, level, std::move(outer)),
        inner_(std::move(inner)) {}

  void DoOpen() override { outer_->Open(); }
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {
    outer_->Close();
    inner_->Close();
  }

  const char* name() const override { return "IndexNestedLoopJoin"; }
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(inner_.get());
  }

 private:
  std::unique_ptr<IndexScanOp> inner_;
};

// Hash join: lazily builds a hash table over the filtered inner table (the
// build side is a SeqScan so scan accounting lives there), then probes it
// with join-key values resolved from each outer tuple. Matches are
// re-checked exactly (hash collisions) via the join conditions.
class HashJoinOp : public JoinOpBase {
 public:
  HashJoinOp(ExecContext* ctx, const std::vector<TablePlan>& tables,
             size_t level, std::unique_ptr<PhysicalOperator> outer,
             std::unique_ptr<SeqScanOp> build,
             std::vector<std::string> join_cols,
             std::vector<ColumnRef> join_sources);

  void DoOpen() override { outer_->Open(); }
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {
    outer_->Close();
    build_->Close();
  }

  const char* name() const override { return "HashJoin"; }
  std::string detail() const override;
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(build_.get());
  }

 private:
  void BuildHashTable();

  std::unique_ptr<SeqScanOp> build_;
  std::vector<std::string> join_cols_;
  std::vector<ColumnRef> join_sources_;
  std::vector<int> key_ords_;
  std::vector<BoundValue> probe_;  // read from the outer slots
  bool probe_bound_ = true;
  Row key_;
  const HeapTable* table_;
  std::unordered_map<size_t, std::vector<RowId>> hash_;
  bool built_ = false;
  const std::vector<RowId>* matches_ = nullptr;
  size_t match_cursor_ = 0;
};

// Cartesian nested-loop join (no equality key): replays the materialized
// filtered inner SeqScan per outer tuple.
class NestedLoopJoinOp : public JoinOpBase {
 public:
  NestedLoopJoinOp(ExecContext* ctx, const std::vector<TablePlan>& tables,
                   size_t level, std::unique_ptr<PhysicalOperator> outer,
                   std::unique_ptr<SeqScanOp> inner)
      : JoinOpBase(ctx, tables, level, std::move(outer)),
        inner_(std::move(inner)) {}

  void DoOpen() override { outer_->Open(); }
  bool DoNext(ExecTuple* out) override;
  void DoClose() override {
    outer_->Close();
    inner_->Close();
  }

  const char* name() const override { return "NestedLoopJoin"; }
  std::string detail() const override {
    return JoinOpBase::detail() + " (cartesian)";
  }
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(inner_.get());
  }

 private:
  std::unique_ptr<SeqScanOp> inner_;
};

}  // namespace autoindex
