#include "engine/operators/operator.h"

namespace autoindex {

const Value& BoundValue::ReadOrNull(const ExecTuple& t) const {
  static const Value kNull;
  return bound() ? *Read(t) : kNull;
}

bool BoundPredicate::Eval(const ExecTuple& t) const {
  switch (expr->kind) {
    case ExprKind::kAnd:
      for (const BoundPredicate& c : children) {
        if (!c.Eval(t)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const BoundPredicate& c : children) {
        if (c.Eval(t)) return true;
      }
      return false;
    case ExprKind::kNot:
      return !children[0].Eval(t);
    default: {
      const Value* values[kMaxAtomOperands] = {};
      for (size_t i = 0; i < operands.size(); ++i) {
        values[i] = operands[i].Read(t);
      }
      return EvaluateAtom(*expr, values);
    }
  }
}

ColumnBinder::ColumnBinder(const Catalog& catalog,
                           const std::vector<TablePlan>& tables, size_t level,
                           size_t view_begin, size_t view_end)
    : tables_(tables),
      level_(level),
      view_begin_(view_begin),
      view_end_(view_end) {
  for (size_t i = 0; i <= level; ++i) {
    const HeapTable* t = catalog.GetTable(tables[i].ref.table);
    schemas_.push_back(t == nullptr ? nullptr : &t->schema());
  }
}

BoundValue ColumnBinder::Bind(const ColumnRef& col) const {
  for (size_t i = level_ + 1; i > 0; --i) {
    const TableRef& ref = tables_[i - 1].ref;
    if (!col.table.empty() && col.table != ref.alias &&
        col.table != ref.table) {
      continue;
    }
    if (schemas_[i - 1] == nullptr) continue;
    const int ord = schemas_[i - 1]->FindColumn(col.column);
    if (ord < 0) continue;
    if (i - 1 < view_begin_ || i - 1 >= view_end_) return {};
    return {nullptr, static_cast<int>(i - 1), ord};
  }
  return {};
}

BoundPredicate ColumnBinder::Bind(const Expr& expr) const {
  BoundPredicate p;
  p.expr = &expr;
  auto source = [&](const Expr& scalar) {
    if (scalar.kind == ExprKind::kColumn) return Bind(scalar.column);
    return scalar.kind == ExprKind::kLiteral ? BoundValue{&scalar.literal}
                                             : BoundValue{};
  };
  if (expr.kind == ExprKind::kAnd || expr.kind == ExprKind::kOr ||
      expr.kind == ExprKind::kNot) {
    for (const ExprPtr& c : expr.children) p.children.push_back(Bind(*c));
  } else if (expr.kind == ExprKind::kColumn ||
             expr.kind == ExprKind::kLiteral) {
    p.operands.push_back(source(expr));
  } else {
    for (size_t i = 0; i < expr.children.size() && i < kMaxAtomOperands;
         ++i) {
      p.operands.push_back(source(*expr.children[i]));
    }
  }
  return p;
}

std::vector<BoundPredicate> ColumnBinder::BindConditions(const TablePlan& tp,
                                                         bool join) const {
  std::vector<BoundPredicate> out;
  for (const ColumnCondition& c : tp.conditions) {
    if (c.atom != nullptr && c.join_source.has_value() == join) {
      out.push_back(Bind(*c.atom));
    }
  }
  return out;
}

bool AllHold(const std::vector<BoundPredicate>& preds, const ExecTuple& t,
             int64_t* comparisons) {
  for (const BoundPredicate& p : preds) {
    ++*comparisons;
    if (!p.Eval(t)) return false;
  }
  return true;
}

void AccumulateOperatorCounters(const PlanNodeSnapshot& node,
                                ExecStats* stats) {
  stats->heap_pages_read += static_cast<size_t>(node.actual.heap_pages_read);
  stats->index_pages_read +=
      static_cast<size_t>(node.actual.index_pages_read);
  stats->tuples_examined += static_cast<size_t>(node.actual.tuples_examined);
  stats->index_tuples_read +=
      static_cast<size_t>(node.actual.index_tuples_read);
  stats->sort_rows += static_cast<size_t>(node.actual.sort_rows);
  for (const PlanNodeSnapshot& c : node.children) {
    AccumulateOperatorCounters(c, stats);
  }
}

PlanNodeSnapshot PhysicalOperator::Snapshot(bool with_detail) const {
  PlanNodeSnapshot snap;
  snap.op = name();
  if (with_detail) snap.detail = detail();
  snap.est_rows = est_rows_;
  snap.est_cost = est_cost_;
  snap.out_width = out_width();
  snap.actual = stats_;
  for (size_t i = 0; i < num_children(); ++i) {
    snap.children.push_back(child(i)->Snapshot(with_detail));
  }
  return snap;
}

void CollectAccessPathFeedback(const PhysicalOperator& root,
                               const CostParams& params,
                               std::vector<AccessPathFeedback>* out) {
  root.AppendFeedback(params, out);
  for (size_t i = 0; i < root.num_children(); ++i) {
    CollectAccessPathFeedback(*root.child(i), params, out);
  }
}

}  // namespace autoindex
