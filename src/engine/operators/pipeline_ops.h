#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/operators/operator.h"

namespace autoindex {

// Single-child operator boilerplate.
class UnaryOpBase : public PhysicalOperator {
 public:
  UnaryOpBase(std::unique_ptr<PhysicalOperator> child)
      : child_(std::move(child)) {}

  void DoOpen() override { child_->Open(); }
  void DoClose() override { child_->Close(); }
  size_t num_children() const override { return 1; }
  const PhysicalOperator* child(size_t) const override {
    return child_.get();
  }

 protected:
  std::unique_ptr<PhysicalOperator> child_;
};

// Evaluates the complete WHERE over fully-joined tuples — covers ORs and
// cross-table predicates the per-level pruning could not evaluate.
class FilterOp : public UnaryOpBase {
 public:
  FilterOp(BoundPredicate predicate, std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)), predicate_(std::move(predicate)) {}

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "Filter"; }
  std::string detail() const override;
  size_t out_width() const override { return child_->out_width(); }

 private:
  BoundPredicate predicate_;
};

// Projects joined tuples to output rows (star expansion in join order).
// Emits single-slot derived rows it owns; `cols` holds each item's bound
// column (unused for `*`).
class ProjectOp : public UnaryOpBase {
 public:
  ProjectOp(const std::vector<SelectItem>* items, std::vector<BoundValue> cols,
            std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)), items_(items), cols_(std::move(cols)) {}

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "Project"; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

 private:
  const std::vector<SelectItem>* items_;
  std::vector<BoundValue> cols_;
  ExecTuple in_;
  Row row_;  // the emitted row, valid until the next pull
};

// Blocking sort on bound keys, in one of two modes:
//  - kTupleKeys: ORDER BY columns of joined tuples (pre-projection);
//    counts its input into sort_rows.
//  - kSlotKeys: ORDER BY matched to select-item slots of aggregate output
//    rows; contributes nothing to sort_rows because HashAggregate already
//    counted its groups — the sort-like work the cost model prices.
class SortOp : public UnaryOpBase {
 public:
  enum class Mode { kTupleKeys, kSlotKeys };
  struct Key {
    BoundValue value;
    bool desc = false;
  };

  SortOp(const std::vector<OrderByItem>* order_by, std::vector<Key> keys,
         Mode mode, std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)),
        order_by_(order_by),
        keys_(std::move(keys)),
        mode_(mode) {}

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "Sort"; }
  std::string detail() const override;
  size_t out_width() const override { return child_->out_width(); }

 private:
  void EnsureSorted();

  const std::vector<OrderByItem>* order_by_;  // names kTupleKeys keys
  std::vector<Key> keys_;
  Mode mode_;
  std::vector<ExecTuple> buffer_;
  bool sorted_ = false;
  size_t cursor_ = 0;
};

// LIMIT n with genuine early termination: once the cap is reached the
// child is never pulled again, so upstream scans/joins stop doing work.
// Statement ExecStats is derived by summing the operator counters of what
// actually ran (AccumulateOperatorCounters), so the accounting and the
// PhysicalPlanValidator stay exact under the short-circuit; the what-if
// estimates stay LIMIT-blind and the est-vs-actual gap surfaces in
// EXPLAIN ANALYZE and the feedback loop.
class LimitOp : public UnaryOpBase {
 public:
  LimitOp(size_t limit, std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)), limit_(limit) {}

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "Limit"; }
  std::string detail() const override {
    return std::to_string(limit_) + " rows";
  }
  size_t out_width() const override { return child_->out_width(); }

 private:
  size_t limit_;
  size_t emitted_ = 0;
};

// Blocking hash aggregation on the GROUP BY key (empty key = one group;
// empty input with no GROUP BY still yields a single zero row). Emits
// single-slot output rows; counts its group build into sort_rows.
class HashAggregateOp : public UnaryOpBase {
 public:
  // `cols` holds each item's bound input column, `group` each GROUP BY
  // column's.
  HashAggregateOp(const std::vector<SelectItem>* items,
                  const std::vector<ColumnRef>* group_by,
                  std::vector<BoundValue> cols, std::vector<BoundValue> group,
                  std::unique_ptr<PhysicalOperator> child)
      : UnaryOpBase(std::move(child)),
        items_(items),
        group_by_(group_by),
        cols_(std::move(cols)),
        group_(std::move(group)) {}

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "HashAggregate"; }
  std::string detail() const override;
  size_t out_width() const override { return 1; }

 private:
  void EnsureAggregated();

  const std::vector<SelectItem>* items_;
  const std::vector<ColumnRef>* group_by_;
  std::vector<BoundValue> cols_;
  std::vector<BoundValue> group_;
  std::vector<Row> out_rows_;
  bool aggregated_ = false;
  size_t cursor_ = 0;
};

}  // namespace autoindex
