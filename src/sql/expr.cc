#include "sql/expr.h"

#include <cstring>
#include <string_view>

#include "util/string_util.h"

namespace autoindex {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kLike:
      return "LIKE";
  }
  return "?";
}

CompareOp SwapCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

CompareOp NegateCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
    case CompareOp::kLike:
      return CompareOp::kLike;  // NOT LIKE is handled via kNot wrapping
  }
  return op;
}

ExprPtr Expr::MakeColumn(ColumnRef col) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumn;
  e->column = std::move(col);
  return e;
}

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCompare;
  e->op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::MakeAnd(std::vector<ExprPtr> children) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAnd;
  e->children = std::move(children);
  return e;
}

ExprPtr Expr::MakeOr(std::vector<ExprPtr> children) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kOr;
  e->children = std::move(children);
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNot;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr Expr::MakeBetween(ExprPtr operand, Value lo, Value hi) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBetween;
  e->children.push_back(std::move(operand));
  e->children.push_back(MakeLiteral(std::move(lo)));
  e->children.push_back(MakeLiteral(std::move(hi)));
  return e;
}

ExprPtr Expr::MakeInList(ExprPtr operand, std::vector<Value> list,
                         bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kInList;
  e->children.push_back(std::move(operand));
  e->in_list = std::move(list);
  e->negated = negated;
  return e;
}

ExprPtr Expr::MakeIsNull(ExprPtr operand, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->children.push_back(std::move(operand));
  e->negated = negated;
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->op = op;
  e->column = column;
  e->literal = literal;
  e->in_list = in_list;
  e->negated = negated;
  e->children.reserve(children.size());
  for (const ExprPtr& c : children) e->children.push_back(c->Clone());
  return e;
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind || op != other.op || negated != other.negated) {
    return false;
  }
  if (!(column == other.column)) return false;
  if (literal != other.literal &&
      !(literal.is_null() && other.literal.is_null())) {
    return false;
  }
  if (in_list.size() != other.in_list.size()) return false;
  for (size_t i = 0; i < in_list.size(); ++i) {
    if (in_list[i] != other.in_list[i]) return false;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

void Expr::CollectColumns(std::vector<ColumnRef>* out) const {
  if (kind == ExprKind::kColumn) out->push_back(column);
  for (const ExprPtr& c : children) c->CollectColumns(out);
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumn:
      return column.ToString();
    case ExprKind::kLiteral:
      return literal.ToSqlLiteral();
    case ExprKind::kCompare:
      return children[0]->ToString() + " " + CompareOpName(op) + " " +
             children[1]->ToString();
    case ExprKind::kAnd: {
      std::vector<std::string> parts;
      parts.reserve(children.size());
      for (const ExprPtr& c : children) {
        const bool paren = c->kind == ExprKind::kOr;
        parts.push_back(paren ? "(" + c->ToString() + ")" : c->ToString());
      }
      return Join(parts, " AND ");
    }
    case ExprKind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children.size());
      for (const ExprPtr& c : children) parts.push_back(c->ToString());
      return "(" + Join(parts, " OR ") + ")";
    }
    case ExprKind::kNot:
      return "NOT (" + children[0]->ToString() + ")";
    case ExprKind::kBetween:
      return children[0]->ToString() + " BETWEEN " +
             children[1]->ToString() + " AND " + children[2]->ToString();
    case ExprKind::kInList: {
      std::vector<std::string> parts;
      parts.reserve(in_list.size());
      for (const Value& v : in_list) parts.push_back(v.ToSqlLiteral());
      return children[0]->ToString() + (negated ? " NOT IN (" : " IN (") +
             Join(parts, ", ") + ")";
    }
    case ExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
  }
  return "?";
}

namespace {

// SQL LIKE: % matches any run of bytes, _ exactly one. On a mismatch
// only the most recent % is retried, one byte further on; earlier ones
// never need to be (whatever they could absorb the latest can), so a
// match takes O(|text| * |pattern|) steps, not exponential backtracking.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  constexpr size_t kNone = std::string_view::npos;
  size_t ti = 0;
  size_t pi = 0;
  size_t retry_pi = kNone;  // pattern position just after the latest %
  size_t retry_ti = 0;      // where that % stopped absorbing text
  while (ti < text.size()) {
    if (pi < pattern.size() && pattern[pi] == '%') {
      retry_pi = ++pi;
      retry_ti = ti;
    } else if (pi < pattern.size() &&
               (pattern[pi] == '_' || pattern[pi] == text[ti])) {
      ++ti;
      ++pi;
    } else if (retry_pi != kNone) {
      pi = retry_pi;
      ti = ++retry_ti;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

// Evaluates a scalar (kColumn or kLiteral) node. Returns false when the
// column is unbound.
bool EvalScalar(const Expr& expr, const ColumnResolver& resolver, Value* out) {
  if (expr.kind == ExprKind::kLiteral) {
    *out = expr.literal;
    return true;
  }
  if (expr.kind == ExprKind::kColumn) {
    return resolver.Resolve(expr.column, out);
  }
  return false;
}

}  // namespace

bool EvaluateAtom(const Expr& atom, const Value* const* operands) {
  switch (atom.kind) {
    case ExprKind::kCompare: {
      const Value* lhs = operands[0];
      const Value* rhs = operands[1];
      if (lhs == nullptr || rhs == nullptr) return false;
      if (lhs->is_null() || rhs->is_null()) return false;
      if (atom.op == CompareOp::kLike) {
        if (lhs->type() != ValueType::kString ||
            rhs->type() != ValueType::kString) {
          return false;
        }
        return LikeMatch(lhs->AsString(), rhs->AsString());
      }
      const int c = lhs->Compare(*rhs);
      switch (atom.op) {
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
          return false;  // handled above
      }
      return false;
    }
    case ExprKind::kBetween: {
      const Value* v = operands[0];
      const Value* lo = operands[1];
      const Value* hi = operands[2];
      if (v == nullptr || lo == nullptr || hi == nullptr) return false;
      if (v->is_null() || lo->is_null() || hi->is_null()) return false;
      return v->Compare(*lo) >= 0 && v->Compare(*hi) <= 0;
    }
    case ExprKind::kInList: {
      const Value* v = operands[0];
      if (v == nullptr || v->is_null()) return false;
      bool found = false;
      for (const Value& item : atom.in_list) {
        if (v->Compare(item) == 0) {
          found = true;
          break;
        }
      }
      return atom.negated ? !found : found;
    }
    case ExprKind::kIsNull: {
      const Value* v = operands[0];
      if (v == nullptr) return false;
      return atom.negated ? !v->is_null() : v->is_null();
    }
    case ExprKind::kColumn:
    case ExprKind::kLiteral: {
      // A bare scalar in boolean context: truthy when non-null/non-zero.
      const Value* v = operands[0];
      if (v == nullptr || v->is_null()) return false;
      if (v->type() == ValueType::kInt) return v->AsInt() != 0;
      return true;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      return false;  // connectives are not atoms
  }
  return false;
}

bool EvaluatePredicate(const Expr& expr, const ColumnResolver& resolver) {
  switch (expr.kind) {
    case ExprKind::kAnd:
      for (const ExprPtr& c : expr.children) {
        if (!EvaluatePredicate(*c, resolver)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const ExprPtr& c : expr.children) {
        if (EvaluatePredicate(*c, resolver)) return true;
      }
      return false;
    case ExprKind::kNot:
      return !EvaluatePredicate(*expr.children[0], resolver);
    case ExprKind::kColumn:
    case ExprKind::kLiteral: {
      Value v;
      const Value* operand = EvalScalar(expr, resolver, &v) ? &v : nullptr;
      return EvaluateAtom(expr, &operand);
    }
    default: {
      Value values[kMaxAtomOperands];
      const Value* operands[kMaxAtomOperands] = {};
      for (size_t i = 0; i < expr.children.size() && i < kMaxAtomOperands;
           ++i) {
        if (EvalScalar(*expr.children[i], resolver, &values[i])) {
          operands[i] = &values[i];
        }
      }
      return EvaluateAtom(expr, operands);
    }
  }
}

}  // namespace autoindex
