#include "sql/dnf.h"

namespace autoindex {
namespace {

// Pushes NOT down to the leaves. `negate` tracks parity of enclosing NOTs.
// Atoms under an odd number of NOTs are rewritten:
//   NOT (a < b)      ->  a >= b
//   NOT (a IN ...)   ->  a NOT IN ...
//   NOT (a IS NULL)  ->  a IS NOT NULL
//   NOT (a BETWEEN lo AND hi) -> a < lo OR a > hi
ExprPtr PushNegations(const Expr& expr, bool negate) {
  switch (expr.kind) {
    case ExprKind::kNot:
      return PushNegations(*expr.children[0], !negate);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<ExprPtr> children;
      children.reserve(expr.children.size());
      for (const ExprPtr& c : expr.children) {
        children.push_back(PushNegations(*c, negate));
      }
      const bool make_and = (expr.kind == ExprKind::kAnd) != negate;
      return make_and ? Expr::MakeAnd(std::move(children))
                      : Expr::MakeOr(std::move(children));
    }
    case ExprKind::kCompare: {
      ExprPtr clone = expr.Clone();
      if (negate) {
        if (clone->op == CompareOp::kLike) {
          // NOT LIKE has no dual comparison; keep the NOT wrapper as an
          // opaque atom (it still names the same column).
          return Expr::MakeNot(std::move(clone));
        }
        clone->op = NegateCompareOp(clone->op);
      }
      return clone;
    }
    case ExprKind::kBetween: {
      if (!negate) return expr.Clone();
      // NOT BETWEEN -> operand < lo OR operand > hi
      std::vector<ExprPtr> ors;
      ors.push_back(Expr::MakeCompare(CompareOp::kLt, expr.children[0]->Clone(),
                                      expr.children[1]->Clone()));
      ors.push_back(Expr::MakeCompare(CompareOp::kGt, expr.children[0]->Clone(),
                                      expr.children[2]->Clone()));
      return Expr::MakeOr(std::move(ors));
    }
    case ExprKind::kInList: {
      ExprPtr clone = expr.Clone();
      if (negate) clone->negated = !clone->negated;
      return clone;
    }
    case ExprKind::kIsNull: {
      ExprPtr clone = expr.Clone();
      if (negate) clone->negated = !clone->negated;
      return clone;
    }
    case ExprKind::kColumn:
    case ExprKind::kLiteral: {
      ExprPtr clone = expr.Clone();
      if (negate) return Expr::MakeNot(std::move(clone));
      return clone;
    }
  }
  return expr.Clone();
}

// Distributes ANDs over ORs on a negation-free tree, producing conjunction
// lists. Truncates at `cap` conjunctions.
void Distribute(const Expr& expr, size_t cap,
                std::vector<DnfConjunction>* out) {
  switch (expr.kind) {
    case ExprKind::kOr: {
      for (const ExprPtr& c : expr.children) {
        if (out->size() >= cap) return;
        Distribute(*c, cap, out);
      }
      return;
    }
    case ExprKind::kAnd: {
      // Cartesian product of children's DNF forms.
      std::vector<DnfConjunction> acc;
      acc.emplace_back();  // empty conjunction = TRUE
      for (const ExprPtr& c : expr.children) {
        std::vector<DnfConjunction> child_dnf;
        Distribute(*c, cap, &child_dnf);
        std::vector<DnfConjunction> next;
        for (const DnfConjunction& a : acc) {
          for (const DnfConjunction& b : child_dnf) {
            if (next.size() >= cap) break;
            DnfConjunction merged;
            merged.reserve(a.size() + b.size());
            for (const ExprPtr& e : a) merged.push_back(e->Clone());
            for (const ExprPtr& e : b) merged.push_back(e->Clone());
            next.push_back(std::move(merged));
          }
          if (next.size() >= cap) break;
        }
        acc = std::move(next);
        if (acc.empty()) return;  // contradiction-free truncation
      }
      for (DnfConjunction& conj : acc) {
        if (out->size() >= cap) return;
        out->push_back(std::move(conj));
      }
      return;
    }
    default: {
      // A leaf atom (including NOT-wrapped LIKE) forms a singleton
      // conjunction.
      DnfConjunction conj;
      conj.push_back(expr.Clone());
      out->push_back(std::move(conj));
      return;
    }
  }
}

}  // namespace

std::vector<DnfConjunction> ToDnf(const Expr& expr, size_t max_conjunctions) {
  ExprPtr nnf = PushNegations(expr, /*negate=*/false);
  std::vector<DnfConjunction> out;
  Distribute(*nnf, max_conjunctions, &out);
  return out;
}

void ExtractConjunctionAtoms(const Expr& expr,
                             std::vector<const Expr*>* out) {
  if (expr.kind != ExprKind::kAnd) {
    out->push_back(&expr);
    return;
  }
  for (const ExprPtr& c : expr.children) ExtractConjunctionAtoms(*c, out);
}

}  // namespace autoindex
