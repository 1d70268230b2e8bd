// Differential test for the lowering-chosen predicate kernels: for every
// kernel shape and every CompareOp, BoundPredicate::Eval must agree with
// EvaluateAtom — the one definition of atom semantics — on the same
// operands, over a grid of NULLs, ints at and beyond double precision,
// signed zeros, infinities, NaN and strings that differ only in a suffix.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "engine/operators/operator.h"
#include "storage/catalog.h"

namespace autoindex {
namespace {

using Kernel = BoundPredicate::Kernel;

std::vector<Value> Grid() {
  constexpr int64_t k53 = int64_t{1} << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {Value::Null(),
          Value(int64_t{0}),
          Value(int64_t{1}),
          Value(int64_t{-1}),
          Value(k53),
          Value(-k53),
          Value(k53 + 1),
          Value(std::numeric_limits<int64_t>::min()),
          Value(std::numeric_limits<int64_t>::max()),
          Value(0.0),
          Value(-0.0),
          Value(0.5),
          Value(kInf),
          Value(-kInf),
          Value(std::nan("")),
          Value(""),
          Value("ca"),
          Value("ca ")};
}

const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                          CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                          CompareOp::kLike};

bool IsNumber(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kDouble;
}

std::string Show(const Value& v) {
  return std::string(ValueTypeName(v.type())) + " " + v.ToString();
}

// One table t(c0, c1); a tuple's only slot is `row`.
class PredicateKernelTest : public ::testing::Test {
 protected:
  PredicateKernelTest() {
    EXPECT_TRUE(catalog_
                    .CreateTable("t", Schema({{"c0", ValueType::kInt},
                                              {"c1", ValueType::kInt}}))
                    .ok());
    tables_.push_back(TablePlan{TableRef("t"), {}, {}});
  }

  BoundPredicate Bind(const Expr& e) const {
    return ColumnBinder(catalog_, tables_, 0).Bind(e);
  }

  // Eval on (c0, c1) = (a, b) against EvaluateAtom on `operands`.
  void ExpectAgrees(const BoundPredicate& p, const Value& a, const Value& b,
                    std::vector<const Value*> operands) {
    const Row row = {a, b};
    ExecTuple t;
    t.slots = {&row};
    t.rids = {0};
    EXPECT_EQ(p.Eval(t), EvaluateAtom(*p.expr, operands.data()))
        << p.expr->ToString() << " with c0 = " << Show(a)
        << ", c1 = " << Show(b);
  }

  Catalog catalog_;
  std::vector<TablePlan> tables_;
};

TEST_F(PredicateKernelTest, ColumnAgainstLiteral) {
  for (const CompareOp op : kOps) {
    for (const Value& lit : Grid()) {
      const ExprPtr left = Expr::MakeCompare(
          op, Expr::MakeColumn(ColumnRef("c0")), Expr::MakeLiteral(lit));
      const ExprPtr right = Expr::MakeCompare(
          op, Expr::MakeLiteral(lit), Expr::MakeColumn(ColumnRef("c0")));
      const BoundPredicate pl = Bind(*left);
      const BoundPredicate pr = Bind(*right);
      const CompareOp read_op = SwapCompareOp(op);
      Kernel want_left = Kernel::kGeneric;
      Kernel want_right = Kernel::kGeneric;
      if (op != CompareOp::kLike && IsNumber(lit)) {
        want_left = want_right = Kernel::kColumnNumber;
      } else if (lit.type() == ValueType::kString) {
        if (op == CompareOp::kEq) want_left = Kernel::kColumnStringEq;
        if (read_op == CompareOp::kEq) want_right = Kernel::kColumnStringEq;
      }
      EXPECT_EQ(pl.kernel, want_left) << left->ToString();
      EXPECT_EQ(pr.kernel, want_right) << right->ToString();
      for (const Value& cell : Grid()) {
        ExpectAgrees(pl, cell, Value::Null(), {&cell, &lit});
        ExpectAgrees(pr, cell, Value::Null(), {&lit, &cell});
      }
    }
  }
}

TEST_F(PredicateKernelTest, ColumnBetweenLiterals) {
  for (const Value& lo : Grid()) {
    for (const Value& hi : Grid()) {
      const ExprPtr e =
          Expr::MakeBetween(Expr::MakeColumn(ColumnRef("c0")), lo, hi);
      const BoundPredicate p = Bind(*e);
      EXPECT_EQ(p.kernel, IsNumber(lo) && IsNumber(hi)
                              ? Kernel::kColumnBetween
                              : Kernel::kGeneric)
          << e->ToString();
      for (const Value& cell : Grid()) {
        ExpectAgrees(p, cell, Value::Null(), {&cell, &lo, &hi});
      }
    }
  }
}

TEST_F(PredicateKernelTest, ColumnAgainstColumn) {
  for (const CompareOp op : kOps) {
    const ExprPtr e = Expr::MakeCompare(op, Expr::MakeColumn(ColumnRef("c0")),
                                        Expr::MakeColumn(ColumnRef("c1")));
    const BoundPredicate p = Bind(*e);
    EXPECT_EQ(p.kernel, op == CompareOp::kLike ? Kernel::kGeneric
                                               : Kernel::kColumnColumn);
    for (const Value& a : Grid()) {
      for (const Value& b : Grid()) ExpectAgrees(p, a, b, {&a, &b});
    }
  }
}

TEST_F(PredicateKernelTest, UnboundOperandStaysFalse) {
  const ExprPtr missing = Expr::MakeColumn(ColumnRef("no_such_column"));
  for (const Value& lit : Grid()) {
    std::vector<ExprPtr> exprs;
    for (const CompareOp op : kOps) {
      exprs.push_back(Expr::MakeCompare(op, missing->Clone(),
                                        Expr::MakeLiteral(lit)));
      exprs.push_back(Expr::MakeCompare(op, Expr::MakeColumn(ColumnRef("c0")),
                                        missing->Clone()));
    }
    exprs.push_back(Expr::MakeBetween(missing->Clone(), lit, lit));
    for (const ExprPtr& e : exprs) {
      const BoundPredicate p = Bind(*e);
      EXPECT_EQ(p.kernel, Kernel::kGeneric) << e->ToString();
      for (const Value& cell : Grid()) {
        const Row row = {cell, cell};
        ExecTuple t;
        t.slots = {&row};
        t.rids = {0};
        EXPECT_FALSE(p.Eval(t)) << e->ToString() << " with " << Show(cell);
      }
    }
  }
}

}  // namespace
}  // namespace autoindex
