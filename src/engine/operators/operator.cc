#include "engine/operators/operator.h"

namespace autoindex {

const Value& BoundValue::ReadOrNull(const ExecTuple& t) const {
  static const Value kNull;
  return bound() ? *Read(t) : kNull;
}

namespace {

// EvaluateAtom's comparison of two numbers, which Value::Compare orders
// as doubles (NaN compares equal to everything).
bool NumbersHold(CompareOp op, double a, double b) {
  const int c = a < b ? -1 : (a > b ? 1 : 0);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kLike:
      return false;  // never tagged with a numeric kernel
  }
  return false;
}

// A kernel's column: bound to a slot at lowering, never a literal.
const Value& Cell(const BoundValue& col, const ExecTuple& t) {
  return (*t.slots[static_cast<size_t>(col.slot)])[static_cast<size_t>(
      col.ord)];
}

bool IsNumber(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kDouble;
}

// Picks p's kernel from its atom's shape; the operands are already bound.
// An unbound column keeps the generic path (EvaluateAtom: false).
void ChooseKernel(BoundPredicate* p) {
  const Expr& e = *p->expr;
  using Kernel = BoundPredicate::Kernel;
  auto column = [&](size_t i) {
    return e.children[i]->kind == ExprKind::kColumn && p->operands[i].bound();
  };
  auto literal = [&](size_t i) -> const Value* {
    return e.children[i]->kind == ExprKind::kLiteral ? &e.children[i]->literal
                                                     : nullptr;
  };
  if (e.kind == ExprKind::kBetween && p->operands.size() == 3 && column(0) &&
      literal(1) != nullptr && IsNumber(*literal(1)) &&
      literal(2) != nullptr && IsNumber(*literal(2))) {
    p->kernel = Kernel::kColumnBetween;
    p->lhs = p->operands[0];
    p->lo = literal(1)->AsDouble();
    p->hi = literal(2)->AsDouble();
    return;
  }
  if (e.kind != ExprKind::kCompare || p->operands.size() != 2 ||
      e.op == CompareOp::kLike) {
    return;
  }
  if (column(0) && column(1)) {
    p->kernel = Kernel::kColumnColumn;
    p->op = e.op;
    p->lhs = p->operands[0];
    p->rhs = p->operands[1];
    return;
  }
  // column <op> literal, or literal <op> column read with the op swapped.
  for (size_t c = 0; c < 2; ++c) {
    const Value* lit = literal(1 - c);
    if (!column(c) || lit == nullptr) continue;
    const CompareOp op = c == 0 ? e.op : SwapCompareOp(e.op);
    p->lhs = p->operands[c];
    if (IsNumber(*lit)) {
      p->kernel = Kernel::kColumnNumber;
      p->op = op;
      p->lo = lit->AsDouble();
    } else if (lit->type() == ValueType::kString && op == CompareOp::kEq) {
      p->kernel = Kernel::kColumnStringEq;
      p->text = lit->AsString();
    }
    return;
  }
}

}  // namespace

bool BoundPredicate::Eval(const ExecTuple& t) const {
  switch (kernel) {
    case Kernel::kColumnNumber: {
      const Value& v = Cell(lhs, t);
      double x;
      if (v.AsNumber(&x)) return NumbersHold(op, x, lo);
      if (v.is_null()) return false;
      break;
    }
    case Kernel::kColumnBetween: {
      const Value& v = Cell(lhs, t);
      double x;
      if (v.AsNumber(&x)) return !(x < lo) && !(x > hi);
      if (v.is_null()) return false;
      break;
    }
    case Kernel::kColumnColumn: {
      const Value& a = Cell(lhs, t);
      const Value& b = Cell(rhs, t);
      double x, y;
      if (a.AsNumber(&x) && b.AsNumber(&y)) return NumbersHold(op, x, y);
      if (a.is_null() || b.is_null()) return false;
      break;
    }
    case Kernel::kColumnStringEq: {
      const Value& v = Cell(lhs, t);
      std::string_view s;
      if (v.IfString(&s)) return s == text;
      if (v.is_null()) return false;
      break;
    }
    case Kernel::kGeneric:
      break;
  }
  return EvalGeneric(t);
}

bool BoundPredicate::EvalGeneric(const ExecTuple& t) const {
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
    ChooseKernel(&p);
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
                               std::vector<AccessPathFeedback>* out) {
  root.AppendFeedback(out);
  for (size_t i = 0; i < root.num_children(); ++i) {
    CollectAccessPathFeedback(*root.child(i), out);
  }
}

}  // namespace autoindex
