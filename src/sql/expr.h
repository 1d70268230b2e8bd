#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"

namespace autoindex {

// A possibly table-qualified column reference. `table` is empty when the
// query leaves the column unqualified; the planner resolves it against the
// FROM list.
struct ColumnRef {
  std::string table;
  std::string column;

  ColumnRef() = default;
  ColumnRef(std::string t, std::string c)
      : table(std::move(t)), column(std::move(c)) {}
  explicit ColumnRef(std::string c) : column(std::move(c)) {}

  bool operator==(const ColumnRef& o) const {
    return table == o.table && column == o.column;
  }

  std::string ToString() const {
    return table.empty() ? column : table + "." + column;
  }
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kLike };

const char* CompareOpName(CompareOp op);
// The op satisfied by swapped operands (e.g. kLt -> kGt).
CompareOp SwapCompareOp(CompareOp op);
// Logical negation (e.g. kLt -> kGe).
CompareOp NegateCompareOp(CompareOp op);

enum class ExprKind {
  kColumn,   // column reference
  kLiteral,  // constant
  kCompare,  // children[0] op children[1]
  kAnd,      // n-ary conjunction
  kOr,       // n-ary disjunction
  kNot,      // children[0]
  kBetween,  // children[0] BETWEEN children[1] AND children[2]
  kInList,   // children[0] IN (list); `negated` flips to NOT IN
  kIsNull,   // children[0] IS [NOT] NULL; `negated` flips
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

// Boolean/scalar expression node. A tagged struct (rather than a class
// hierarchy) keeps rewrites like the DNF conversion straightforward.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;
  CompareOp op = CompareOp::kEq;  // kCompare only
  ColumnRef column;               // kColumn only
  Value literal;                  // kLiteral only
  std::vector<Value> in_list;     // kInList only
  bool negated = false;           // kInList / kIsNull
  std::vector<ExprPtr> children;

  static ExprPtr MakeColumn(ColumnRef col);
  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  // Convenience: column <op> literal.
  static ExprPtr MakeColCompare(ColumnRef col, CompareOp op, Value v);
  static ExprPtr MakeAnd(std::vector<ExprPtr> children);
  static ExprPtr MakeOr(std::vector<ExprPtr> children);
  static ExprPtr MakeNot(ExprPtr child);
  static ExprPtr MakeBetween(ExprPtr operand, Value lo, Value hi);
  static ExprPtr MakeInList(ExprPtr operand, std::vector<Value> list,
                            bool negated = false);
  static ExprPtr MakeIsNull(ExprPtr operand, bool negated = false);

  ExprPtr Clone() const;

  // Structural equality (used by tests and template matching).
  bool Equals(const Expr& other) const;

  // True for kCompare/kBetween/kInList/kIsNull — the leaves of the boolean
  // structure.
  bool IsAtomicPredicate() const;

  // Appends every referenced column (depth-first, with duplicates).
  void CollectColumns(std::vector<ColumnRef>* out) const;

  std::string ToString() const;
};

// Evaluates a boolean expression over a row. `resolve` maps a ColumnRef to
// the value in the current row. Atoms involving NULL evaluate to false
// (two-valued logic is sufficient for this engine).
class ColumnResolver {
 public:
  virtual ~ColumnResolver() = default;
  // Returns true and sets *out when the column is bound.
  virtual bool Resolve(const ColumnRef& col, Value* out) const = 0;
};

bool EvaluatePredicate(const Expr& expr, const ColumnResolver& resolver);

// Operands of an atom: one per child (kCompare 2, kBetween 3, kInList and
// kIsNull 1); a bare kColumn/kLiteral predicate is its own single operand.
inline constexpr size_t kMaxAtomOperands = 3;

// Evaluates one atom (a non-connective node) over already-resolved operand
// values, where a null pointer is an unbound operand: the single place the
// comparison, LIKE, BETWEEN, IN and IS NULL semantics live. Both
// EvaluatePredicate and the executor's lowering-bound predicates call it;
// the typed kernels BoundPredicate::Eval runs for common atom shapes fall
// back to it and are tested against it (predicate_kernel_test).
bool EvaluateAtom(const Expr& atom, const Value* const* operands);

}  // namespace autoindex
