#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/operators/scan_ops.h"

namespace autoindex {

// Shared shape of the three left-deep join operators: child 0 is the outer
// pipeline (tuples of `level` slots), child 1 the inner access operator
// for tables_[level]. Emitted tuples extend the outer tuple by one slot.
// Open and Close reach both children, so every operator of the tree gets
// its trace span.
template <typename Inner>
class JoinOpBase : public PhysicalOperator {
 public:
  JoinOpBase(ExecContext* ctx, const std::vector<TablePlan>& tables,
             size_t level, std::unique_ptr<PhysicalOperator> outer,
             std::unique_ptr<Inner> inner)
      : tables_(tables),
        level_(level),
        outer_(std::move(outer)),
        inner_(std::move(inner)),
        join_conds_(ColumnBinder(*ctx->catalog, tables, level)
                        .BindConditions(tables[level], /*join=*/true)) {}

  void DoOpen() override {
    outer_->Open();
    inner_->Open();
  }
  void DoClose() override {
    outer_->Close();
    inner_->Close();
  }
  size_t out_width() const override { return level_ + 1; }
  size_t num_children() const override { return 2; }
  const PhysicalOperator* child(size_t i) const override {
    return i == 0 ? outer_.get() : static_cast<PhysicalOperator*>(inner_.get());
  }
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

  const std::vector<TablePlan>& tables_;
  size_t level_;
  std::unique_ptr<PhysicalOperator> outer_;
  std::unique_ptr<Inner> inner_;
  std::vector<BoundPredicate> join_conds_;
  ExecTuple tuple_;  // current outer tuple plus the inner row's slot
  bool inner_active_ = false;
};

// Index nested-loop join: re-probes the inner IndexScan per outer tuple
// (runtime-bound key prefix). The inner scan already applies the level's
// local and join conditions against the bound outer tuple.
class IndexNestedLoopJoinOp : public JoinOpBase<IndexScanOp> {
 public:
  using JoinOpBase::JoinOpBase;

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "IndexNestedLoopJoin"; }

 private:
  ExecTuple inner_tuple_;
};

// Hash join over whichever input is smaller, decided at run time from
// exact counts. On the first Next it drains the inner SeqScan (which pays
// the scan counters once) and buffers outer tuples until they outnumber
// the inner rows. If the outer runs out first, the outer tuples are
// hashed and the inner rows stream past them in heap order; otherwise the
// inner rows are hashed and the buffered outer tuples are replayed before
// the rest are pulled, so output keeps the outer order with each tuple's
// matches in heap order. Every hash-equal pair is rechecked exactly with
// the join conditions (collisions, `1 = 1.0` keys, NULLs), so the counters
// and results do not depend on which side was hashed.
class HashJoinOp : public JoinOpBase<SeqScanOp> {
 public:
  HashJoinOp(ExecContext* ctx, const std::vector<TablePlan>& tables,
             size_t level, std::unique_ptr<PhysicalOperator> outer,
             std::unique_ptr<SeqScanOp> inner,
             std::vector<std::string> join_cols,
             std::vector<ColumnRef> join_sources);

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "HashJoin"; }
  std::string detail() const override;

 private:
  enum class Hashed { kNotYet, kInner, kOuter };
  // One chained-table entry per hashed row or tuple, at that item's input
  // index. `next` links the chain; kEnd terminates it.
  struct Entry {
    size_t hash = 0;
    uint32_t next = 0;
  };
  static constexpr uint32_t kEnd = UINT32_MAX;
  // Buckets per hashed item: with a small hashed side (a filtered
  // dimension) most probes that miss find an empty bucket, so the probe
  // loop's chain test is predictable.
  static constexpr size_t kBucketsPerItem = 8;

  // First Next: drains the inner side, buffers the outer side and hashes
  // the smaller one. False when the outer side is empty (the inner scan is
  // then never run).
  bool Start();
  // Hashes `n` items; item i's key hash is hash_of(i).
  template <typename HashOf>
  void BuildTable(size_t n, HashOf hash_of);
  // The bucket of a key hash: its top bits after a multiplicative mix,
  // so keys that differ only in high bits still spread.
  size_t Bucket(size_t hash) const {
    return static_cast<size_t>((static_cast<uint64_t>(hash) *
                                0x9E3779B97F4A7C15ULL) >>
                               bucket_shift_);
  }
  bool NextHashedInner(ExecTuple* out);
  bool NextHashedOuter(ExecTuple* out);
  size_t InnerKeyHash(const Row& row) const;
  size_t OuterKeyHash(const ExecTuple& t) const;
  size_t num_buffered() const { return outer_hashes_.size(); }

  std::vector<std::string> join_cols_;
  std::vector<ColumnRef> join_sources_;
  std::vector<int> key_ords_;      // inner key columns; -1 reads NULL
  std::vector<BoundValue> probe_;  // outer key sources, same order
  bool probe_bound_ = true;

  Hashed hashed_ = Hashed::kNotYet;
  std::vector<const Row*> inner_rows_;
  std::vector<RowId> inner_rids_;
  // Buffered outer tuples: `level_` slots and RowIds each, and key hash.
  std::vector<const Row*> outer_slots_;
  std::vector<RowId> outer_rids_;
  std::vector<size_t> outer_hashes_;
  bool outer_done_ = false;

  std::vector<uint32_t> heads_;  // power-of-two bucket array
  int bucket_shift_ = 64;        // 64 - log2(heads_.size())
  std::vector<Entry> entries_;
  size_t probe_hash_ = 0;
  uint32_t chain_ = kEnd;  // next entry to test against probe_hash_
  size_t cursor_ = 0;      // next buffered outer tuple / inner row
};

// Cartesian nested-loop join (no equality key). The first outer tuple
// drains the inner SeqScan into a buffer (an empty outer never runs it),
// which every outer tuple then replays.
class NestedLoopJoinOp : public JoinOpBase<SeqScanOp> {
 public:
  using JoinOpBase::JoinOpBase;

  bool DoNext(ExecTuple* out) override;

  const char* name() const override { return "NestedLoopJoin"; }
  std::string detail() const override {
    return JoinOpBase::detail() + " (cartesian)";
  }

 private:
  bool inner_drained_ = false;
  std::vector<const Row*> inner_rows_;
  std::vector<RowId> inner_rids_;
  size_t cursor_ = 0;  // next inner row to place against tuple_
};

}  // namespace autoindex
