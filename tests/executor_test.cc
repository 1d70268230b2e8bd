// Executor semantics: projections, filters, joins, aggregation, ordering,
// writes with index maintenance, and cost accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "query_gen.h"
#include "sql/parser.h"
#include "util/random.h"

namespace autoindex {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("emp", Schema({{"id", ValueType::kInt},
                                           {"dept", ValueType::kInt},
                                           {"salary", ValueType::kDouble},
                                           {"name", ValueType::kString}})));
    CheckOk(db_.CreateTable("dept", Schema({{"did", ValueType::kInt},
                                            {"dname", ValueType::kString},
                                            {"budget", ValueType::kDouble}})));
    std::vector<Row> emps;
    for (int i = 0; i < 1000; ++i) {
      emps.push_back({Value(int64_t(i)), Value(int64_t(i % 20)),
                      Value(1000.0 + i), Value("emp" + std::to_string(i))});
    }
    ASSERT_TRUE(db_.BulkInsert("emp", std::move(emps)).ok());
    std::vector<Row> depts;
    for (int d = 0; d < 20; ++d) {
      depts.push_back({Value(int64_t(d)), Value("dept" + std::to_string(d)),
                       Value(10000.0 * d)});
    }
    ASSERT_TRUE(db_.BulkInsert("dept", std::move(depts)).ok());
    db_.Analyze();
  }

  Database db_;
};

TEST_F(ExecutorTest, ProjectionOrder) {
  auto r = db_.Execute("SELECT name, id FROM emp WHERE id = 7");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "emp7");
  EXPECT_EQ(r->rows[0][1].AsInt(), 7);
}

TEST_F(ExecutorTest, StarExpandsAllColumns) {
  auto r = db_.Execute("SELECT * FROM emp WHERE id = 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].size(), 4u);
}

TEST_F(ExecutorTest, FilterWithOr) {
  auto r = db_.Execute("SELECT id FROM emp WHERE id = 3 OR id = 997");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(ExecutorTest, OrderByAscDescAndLimit) {
  auto desc = db_.Execute(
      "SELECT id FROM emp WHERE dept = 5 ORDER BY id DESC LIMIT 3");
  ASSERT_TRUE(desc.ok());
  ASSERT_EQ(desc->rows.size(), 3u);
  EXPECT_EQ(desc->rows[0][0].AsInt(), 985);
  EXPECT_EQ(desc->rows[1][0].AsInt(), 965);

  auto asc =
      db_.Execute("SELECT id FROM emp WHERE dept = 5 ORDER BY id LIMIT 2");
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(asc->rows[0][0].AsInt(), 5);
}

TEST_F(ExecutorTest, GroupByWithAggregates) {
  auto r = db_.Execute(
      "SELECT dept, COUNT(*), AVG(salary), MIN(id), MAX(id) FROM emp WHERE "
      "dept < 3 GROUP BY dept ORDER BY dept");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  EXPECT_EQ(r->rows[0][1].AsInt(), 50);
  EXPECT_EQ(r->rows[0][3].AsInt(), 0);
  EXPECT_EQ(r->rows[0][4].AsInt(), 980);
  EXPECT_EQ(r->rows[2][0].AsInt(), 2);
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  auto r = db_.Execute("SELECT COUNT(*) FROM emp WHERE id = 123456");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
}

TEST_F(ExecutorTest, SumAvgOnDoubles) {
  auto r = db_.Execute("SELECT SUM(salary) FROM emp WHERE id < 2");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(), 2001.0);
}

TEST_F(ExecutorTest, JoinHash) {
  // No index on the join column: hash join path.
  auto r = db_.Execute(
      "SELECT emp.id, dept.dname FROM emp, dept WHERE emp.dept = dept.did "
      "AND emp.id < 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 5u);
  // Each emp row matched exactly one dept.
  for (const Row& row : r->rows) {
    EXPECT_EQ(row[1].AsString(),
              "dept" + std::to_string(row[0].AsInt() % 20));
  }
}

TEST_F(ExecutorTest, JoinIndexNestedLoop) {
  // A dimension table large enough that per-probe index lookups beat a
  // hash-join build (tiny inner tables correctly favor hash join).
  CheckOk(db_.CreateTable(
      "big_dim",
      Schema({{"k", ValueType::kInt}, {"payload", ValueType::kDouble}})));
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(i * 2.0)});
  }
  ASSERT_TRUE(db_.BulkInsert("big_dim", std::move(rows)).ok());
  db_.Analyze();
  ASSERT_TRUE(db_.CreateIndex(IndexDef("big_dim", {"k"})).ok());
  // One outer row: a single index probe beats building a 20k-row hash.
  auto r = db_.Execute(
      "SELECT emp.id, big_dim.payload FROM emp, big_dim WHERE emp.id = "
      "big_dim.k AND emp.id = 42");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->stats.used_index);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 84.0);

  // Many outer rows: the planner must flip to a hash join (one build scan
  // beats 50 random index probes) — and results stay correct.
  auto many = db_.Execute(
      "SELECT emp.id, big_dim.payload FROM emp, big_dim WHERE emp.id = "
      "big_dim.k AND emp.dept = 7");
  ASSERT_TRUE(many.ok());
  ASSERT_EQ(many->rows.size(), 50u);  // 1000 emps, dept = id % 20
  for (const Row& row : many->rows) {
    EXPECT_DOUBLE_EQ(row[1].AsDouble(), row[0].AsInt() * 2.0);
  }
}

TEST_F(ExecutorTest, JoinWithGroupBy) {
  auto r = db_.Execute(
      "SELECT dept.dname, COUNT(*) FROM emp, dept WHERE emp.dept = "
      "dept.did AND dept.did < 2 GROUP BY dept.dname ORDER BY dept.dname");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 50);
}

TEST_F(ExecutorTest, ThreeWayJoin) {
  CheckOk(db_.CreateTable("bonus", Schema({{"bdept", ValueType::kInt},
                                           {"amount", ValueType::kDouble}})));
  std::vector<Row> bonuses;
  for (int d = 0; d < 20; ++d) {
    bonuses.push_back({Value(int64_t(d)), Value(100.0 * d)});
  }
  ASSERT_TRUE(db_.BulkInsert("bonus", std::move(bonuses)).ok());
  db_.Analyze();
  auto r = db_.Execute(
      "SELECT emp.id, bonus.amount FROM emp, dept, bonus WHERE emp.dept = "
      "dept.did AND dept.did = bonus.bdept AND emp.id = 99");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 100.0 * (99 % 20));
}

TEST_F(ExecutorTest, IndexScanUsedWhenSelective) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"id"})).ok());
  auto r = db_.Execute("SELECT salary FROM emp WHERE id = 500");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.used_index);
  EXPECT_EQ(r->indexes_used.size(), 1u);
  EXPECT_LT(r->stats.tuples_examined, 5u);
}

TEST_F(ExecutorTest, SeqScanWhenPredicateWeak) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"dept"})).ok());
  // dept >= 0 matches everything; the planner must prefer the seq scan.
  auto r = db_.Execute("SELECT COUNT(*) FROM emp WHERE dept >= 0");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->stats.used_index);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1000);
}

TEST_F(ExecutorTest, MultiColumnIndexPrefixAndRange) {
  CheckOk(db_.CreateTable("big", Schema({{"dept", ValueType::kInt},
                                         {"id", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value(int64_t(i % 20)), Value(int64_t(i))});
  }
  ASSERT_TRUE(db_.BulkInsert("big", std::move(rows)).ok());
  db_.Analyze();
  ASSERT_TRUE(db_.CreateIndex(IndexDef("big", {"dept", "id"})).ok());
  auto r = db_.Execute(
      "SELECT id FROM big WHERE dept = 7 AND id > 19900 ORDER BY id");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.used_index);
  ASSERT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 19907);
  EXPECT_EQ(r->rows[4][0].AsInt(), 19987);
}

TEST_F(ExecutorTest, InsertMaintainsIndexAndCountsCost) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"id"})).ok());
  auto ins = db_.Execute("INSERT INTO emp VALUES (5000, 1, 9.0, 'new')");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->stats.index_entries_written, 1u);
  EXPECT_GT(ins->stats.maint_cpu_cost, 0.0);
  EXPECT_GT(ins->stats.pages_written, 0u);

  auto sel = db_.Execute("SELECT name FROM emp WHERE id = 5000");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->rows.size(), 1u);
  EXPECT_EQ(sel->rows[0][0].AsString(), "new");
}

TEST_F(ExecutorTest, InsertWithColumnListFillsNulls) {
  auto ins = db_.Execute("INSERT INTO emp (id, name) VALUES (6000, 'x')");
  ASSERT_TRUE(ins.ok());
  auto sel = db_.Execute("SELECT dept FROM emp WHERE id = 6000");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->rows.size(), 1u);
  EXPECT_TRUE(sel->rows[0][0].is_null());
}

TEST_F(ExecutorTest, UpdateOnlyPaysForAffectedIndexes) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"id"})).ok());
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"dept"})).ok());
  // Updating salary touches neither index key.
  auto upd = db_.Execute("UPDATE emp SET salary = 1.0 WHERE id = 10");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->stats.index_entries_written, 0u);
  // Updating dept touches exactly the dept index.
  auto upd2 = db_.Execute("UPDATE emp SET dept = 19 WHERE id = 10");
  ASSERT_TRUE(upd2.ok());
  EXPECT_EQ(upd2->stats.index_entries_written, 1u);
  EXPECT_GT(upd2->stats.maint_cpu_cost, 0.0);
  // The index reflects the new value.
  auto sel = db_.Execute("SELECT COUNT(*) FROM emp WHERE dept = 19 AND id = 10");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->rows[0][0].AsInt(), 1);
}

TEST_F(ExecutorTest, DeleteHasZeroIndexMaintenanceCost) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"id"})).ok());
  auto del = db_.Execute("DELETE FROM emp WHERE id = 11");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->stats.rows_returned, 1u);
  // Sec. V: deletes defer index maintenance; no CPU charged.
  EXPECT_DOUBLE_EQ(del->stats.maint_cpu_cost, 0.0);
  EXPECT_EQ(del->stats.index_entries_written, 0u);
  // The row really is gone, including from the index.
  auto sel = db_.Execute("SELECT COUNT(*) FROM emp WHERE id = 11");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->rows[0][0].AsInt(), 0);
}

TEST_F(ExecutorTest, WriteLookupUsesIndex) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"id"})).ok());
  auto upd = db_.Execute("UPDATE emp SET salary = 2.0 WHERE id = 700");
  ASSERT_TRUE(upd.ok());
  EXPECT_TRUE(upd->stats.used_index);
  EXPECT_LT(upd->stats.tuples_examined, 5u);
}

// A write whose WHERE bounds only a range of an indexed column runs the
// index path the planner priced for it. Twin tables hold the same 5000
// rows; only `t` has an index on x.
class RangeWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"t", "twin"}) {
      CheckOk(db_.CreateTable(
          name, Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}})));
      std::vector<Row> rows;
      for (int i = 0; i < 5000; ++i) {
        rows.push_back({Value(int64_t(i)), Value(int64_t(i % 7))});
      }
      ASSERT_TRUE(db_.BulkInsert(name, std::move(rows)).ok());
    }
    db_.Analyze();
    ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"x"})).ok());
  }

  // Runs `head` + table + `tail` on both twins. Checks that the statement
  // on `t` probes the index, reads index pages and examines only the
  // `matched` rows, and that both statements affect the same rows.
  void ExpectIndexedWrite(const std::string& head, const std::string& tail,
                          size_t matched) {
    auto indexed = db_.Execute(head + "t" + tail);
    auto scanned = db_.Execute(head + "twin" + tail);
    ASSERT_TRUE(indexed.ok());
    ASSERT_TRUE(scanned.ok());
    EXPECT_TRUE(indexed->stats.used_index);
    EXPECT_EQ(indexed->indexes_used,
              std::vector<std::string>{IndexDef("t", {"x"}).DisplayName()});
    EXPECT_GT(indexed->stats.index_pages_read, 0u);
    EXPECT_EQ(indexed->stats.tuples_examined, matched);
    EXPECT_FALSE(scanned->stats.used_index);
    EXPECT_EQ(scanned->stats.tuples_examined, 5000u);
    EXPECT_EQ(indexed->stats.rows_returned, matched);
    EXPECT_EQ(scanned->stats.rows_returned, matched);
    EXPECT_EQ(Contents("t"), Contents("twin"));
  }

  // Every row of `table`, in (x, y) order.
  std::vector<Row> Contents(const std::string& table) {
    auto sel = db_.Execute("SELECT x, y FROM " + table + " ORDER BY x, y");
    EXPECT_TRUE(sel.ok());
    return sel.ok() ? sel->rows : std::vector<Row>{};
  }

  Database db_;
};

TEST_F(RangeWriteTest, RangeDeleteUsesIndex) {
  ExpectIndexedWrite("DELETE FROM ", " WHERE x > 4990", 9);
  auto probe = db_.Execute("SELECT COUNT(*) FROM t WHERE x > 4980");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rows[0][0].AsInt(), 10);
}

TEST_F(RangeWriteTest, RangeUpdateUsesIndex) {
  ExpectIndexedWrite("UPDATE ", " SET y = 100 WHERE x >= 4980 AND x < 4990",
                     10);
  // Moving the key itself keeps the index in step with the heap.
  ExpectIndexedWrite("UPDATE ", " SET x = -1 WHERE x BETWEEN 4000 AND 4004",
                     5);
  auto probe = db_.Execute("SELECT COUNT(*) FROM t WHERE x < 0");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->rows[0][0].AsInt(), 5);
}

// Database::Execute runs on a built-in session, so it and every other
// session share one statement path: each delivers a statement's feedback
// to the installed hook exactly once.
TEST_F(ExecutorTest, FeedbackDeliveredOncePerStatementOnEveryEntryPoint) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"id"})).ok());
  size_t calls = 0;
  size_t pairs = 0;
  db_.set_execution_feedback_hook(
      [&](const std::vector<AccessPathFeedback>& batch) {
        ++calls;
        pairs += batch.size();
      });

  auto direct = db_.Execute("SELECT name FROM emp WHERE id = 7");
  ASSERT_TRUE(direct.ok());
  ASSERT_FALSE(direct->feedback.empty());
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(pairs, direct->feedback.size());

  std::unique_ptr<Session> session = db_.CreateSession();
  auto via_session = session->Execute("SELECT name FROM emp WHERE id = 8");
  ASSERT_TRUE(via_session.ok());
  ASSERT_FALSE(via_session->feedback.empty());
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(pairs, direct->feedback.size() + via_session->feedback.size());

  db_.set_execution_feedback_hook(nullptr);
  ASSERT_TRUE(db_.Execute("SELECT name FROM emp WHERE id = 9").ok());
  EXPECT_EQ(calls, 2u);
}

TEST_F(ExecutorTest, IndexesUsedDeduplicatedAcrossJoinLevels) {
  // A self-join where both sides probe the same index: the executed plan
  // uses it at two levels, but indexes_used reports each distinct index
  // once (deduplicated, deterministic plan order).
  ASSERT_TRUE(db_.CreateIndex(IndexDef("emp", {"id"})).ok());
  auto r = db_.Execute(
      "SELECT e1.salary, e2.salary FROM emp e1, emp e2 "
      "WHERE e1.id = 42 AND e2.id = 42");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->stats.used_index);
  // The snapshot proves the index really was placed at two plan levels...
  ASSERT_NE(r->plan, nullptr);
  std::function<size_t(const PlanNodeSnapshot&)> count_index_scans =
      [&](const PlanNodeSnapshot& node) {
        size_t n = node.op == "IndexScan" ? 1u : 0u;
        for (const PlanNodeSnapshot& child : node.children) {
          n += count_index_scans(child);
        }
        return n;
      };
  EXPECT_EQ(count_index_scans(*r->plan), 2u);
  // ...while the reported list carries each distinct index exactly once.
  ASSERT_EQ(r->indexes_used.size(), 1u);
  EXPECT_EQ(r->indexes_used[0], IndexDef("emp", {"id"}).DisplayName());
}

TEST_F(ExecutorTest, AliasAndTableNameQualifiersBothResolve) {
  auto r = db_.Execute(
      "SELECT e.name, emp.id FROM emp e WHERE e.id = 7 AND emp.dept = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "emp7");
  EXPECT_EQ(r->rows[0][1].AsInt(), 7);
}

TEST_F(ExecutorTest, UnknownColumnIsFalseInPredicatesAndNullInProjections) {
  auto where = db_.Execute("SELECT id FROM emp WHERE nosuch = 1");
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  EXPECT_TRUE(where->rows.empty());
  // Unbound is not NULL: IS NULL over an unknown column is false too.
  auto is_null = db_.Execute("SELECT id FROM emp WHERE nosuch IS NULL");
  ASSERT_TRUE(is_null.ok()) << is_null.status().ToString();
  EXPECT_TRUE(is_null->rows.empty());

  auto project = db_.Execute("SELECT nosuch, id FROM emp WHERE id = 7");
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  ASSERT_EQ(project->rows.size(), 1u);
  EXPECT_TRUE(project->rows[0][0].is_null());
  EXPECT_EQ(project->rows[0][1].AsInt(), 7);
}

// Two tables sharing column names, so unqualified references are
// ambiguous and resolve by the executor's rule: the newest table placed in
// the join order is searched first.
class ColumnResolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // l.v = 1000 + k and r.v = 2000 + k, except l(3).v = 5 and r(5).v = 5,
    // which lets a probe of r.k by l.v find a row when it binds.
    for (const char* name : {"l", "r"}) {
      CheckOk(db_.CreateTable(name, Schema({{"k", ValueType::kInt},
                                            {"v", ValueType::kInt}})));
    }
    std::vector<Row> l, r;
    for (int64_t k = 0; k < 50; ++k) {
      l.push_back({Value(k), Value(k == 3 ? int64_t{5} : 1000 + k)});
      r.push_back({Value(k), Value(k == 5 ? int64_t{5} : 2000 + k)});
    }
    ASSERT_TRUE(db_.BulkInsert("l", std::move(l)).ok());
    ASSERT_TRUE(db_.BulkInsert("r", std::move(r)).ok());
    db_.Analyze();
  }

  // The table placed last in the plan's join order: access-path feedback
  // is collected pre-order, outer side first.
  static std::string NewestTable(const ExecResult& result) {
    return result.feedback.empty() ? "" : result.feedback.back().table;
  }

  Database db_;
};

TEST_F(ColumnResolutionTest, UnqualifiedProjectionReadsNewestTable) {
  auto r = db_.Execute("SELECT v FROM l, r WHERE l.k = r.k AND l.k = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_EQ(r->feedback.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt(), NewestTable(*r) == "r" ? 2007 : 1007);
}

TEST_F(ColumnResolutionTest, UnqualifiedPredicateReadsNewestTable) {
  // The OR keeps the predicate out of per-table conditions: only the full
  // WHERE filter evaluates it, over the joined tuple.
  auto r = db_.Execute(
      "SELECT l.k FROM l, r WHERE l.k = r.k AND (v = 2007 OR v = 1008)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_EQ(r->feedback.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt(), NewestTable(*r) == "r" ? 7 : 8);
}

TEST_F(ColumnResolutionTest, IndexProbeKeyShadowedByPlacedTableYieldsNoRows) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("r", {"k"})).ok());
  // Qualified, the probe key binds to l.v = 5 and finds r(5).
  auto bound =
      db_.Execute("SELECT l.k, r.k FROM l, r WHERE l.k = 3 AND r.k = l.v");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->rows.size(), 1u);
  EXPECT_EQ(bound->rows[0][1].AsInt(), 5);
  ASSERT_EQ(NewestTable(*bound), "r");
  // Unqualified, the planner takes v from l (an earlier table), but at r's
  // level the name resolves to r.v itself: the key never binds.
  auto shadowed =
      db_.Execute("SELECT l.k, r.k FROM l, r WHERE l.k = 3 AND r.k = v");
  ASSERT_TRUE(shadowed.ok()) << shadowed.status().ToString();
  EXPECT_TRUE(shadowed->rows.empty());
  EXPECT_EQ(NewestTable(*shadowed), "r");
}

// The join order is chosen by price, so it may follow the index set, but
// the answer must not. Tables l (40 rows) and r (20,000 rows) share every
// column name; an index on r(d) makes r's date range the cheapest start.
TEST(JoinOrderAnswerTest, IndexesDoNotChangeOrderDependentAnswers) {
  auto run = [](bool index_r_d, const std::string& sql) {
    Database db;
    for (const char* name : {"l", "r"}) {
      CheckOk(db.CreateTable(name, Schema({{"k", ValueType::kInt},
                                           {"v", ValueType::kInt},
                                           {"c", ValueType::kInt},
                                           {"d", ValueType::kInt}})));
    }
    std::vector<Row> l, r;
    for (int64_t i = 0; i < 40; ++i) {
      l.push_back({Value(i), Value(1000 + i), Value(i % 6), Value(i)});
    }
    for (int64_t i = 0; i < 20000; ++i) {
      r.push_back({Value(i % 40), Value(100000 + i), Value(i % 6),
                   Value(i * 730 / 20000)});
    }
    CheckOk(db.BulkInsert("l", std::move(l)));
    CheckOk(db.BulkInsert("r", std::move(r)));
    if (index_r_d) CheckOk(db.CreateIndex(IndexDef("r", {"d"})));
    db.Analyze();
    // The sorted rows and the table placed last.
    std::pair<std::vector<Row>, std::string> out;
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok() || result->feedback.empty()) return out;
    out.first = result->rows;
    std::sort(out.first.begin(), out.first.end());
    out.second = result->feedback.back().table;
    return out;
  };
  const std::string where =
      " FROM l, r WHERE l.k = r.k AND l.c = 2 AND r.d BETWEEN 100 AND 115";
  // Qualified names: the index lets r lead, and the answer is the same.
  const auto qualified = run(false, "SELECT r.v" + where);
  const auto qualified_indexed = run(true, "SELECT r.v" + where);
  ASSERT_FALSE(qualified.first.empty());
  EXPECT_TRUE(qualified.first == qualified_indexed.first);
  EXPECT_EQ(qualified_indexed.second, "l");  // r placed first
  // An unqualified v binds to the table placed last, and `*` lists the
  // tables in join order: both keep the same order with or without the
  // index.
  for (const char* items : {"v", "*"}) {
    const auto plain = run(false, std::string("SELECT ") + items + where);
    const auto indexed = run(true, std::string("SELECT ") + items + where);
    ASSERT_FALSE(plain.first.empty()) << items;
    EXPECT_TRUE(plain.first == indexed.first) << items;
    EXPECT_EQ(plain.second, indexed.second) << items;
  }
}

// Hash-join edge cases. No join column is indexed, so every join below is
// a HashJoin; each result is checked against the brute-force reference
// evaluator as a row multiset.
class HashJoinTest : public ::testing::Test {
 protected:
  // Creates `name`(k, k2, v) from rows holding (k, k2); v numbers them.
  void Load(const std::string& name, std::vector<Row> rows) {
    CheckOk(db_.CreateTable(name, Schema({{"k", ValueType::kInt},
                                          {"k2", ValueType::kInt},
                                          {"v", ValueType::kInt}})));
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].emplace_back(static_cast<int64_t>(i));
    }
    ASSERT_TRUE(db_.BulkInsert(name, std::move(rows)).ok());
  }
  // n rows with k = k(i) and k2 = 0.
  static std::vector<Row> Keys(int n, const std::function<Value(int)>& k) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) rows.push_back({k(i), Value(int64_t{0})});
    return rows;
  }

  // Runs `sql` with operator details on, checks its rows against the
  // reference evaluator, and returns the HashJoin's snapshot.
  PlanNodeSnapshot RunChecked(const std::string& sql) {
    db_.executor().set_plan_detail(true);
    auto r = db_.Execute(sql);
    db_.executor().set_plan_detail(false);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return {};
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    EXPECT_EQ(querygen::Canonical(r->rows),
              querygen::Canonical(querygen::ReferenceSelect(db_,
                                                            *stmt->select)))
        << sql;
    rows_ = r->rows;
    const PlanNodeSnapshot* join = FindOp(*r->plan, "HashJoin");
    EXPECT_NE(join, nullptr) << sql;
    return join == nullptr ? PlanNodeSnapshot{} : *join;
  }
  static const PlanNodeSnapshot* FindOp(const PlanNodeSnapshot& node,
                                        const std::string& op) {
    if (node.op == op) return &node;
    for (const PlanNodeSnapshot& child : node.children) {
      if (const PlanNodeSnapshot* found = FindOp(child, op)) return found;
    }
    return nullptr;
  }

  Database db_;
  std::vector<Row> rows_;  // the last RunChecked result
};

TEST_F(HashJoinTest, OuterSideHashedWhenSmaller) {
  Load("l", Keys(10, [](int i) { return Value(int64_t{i}); }));
  Load("r", Keys(200, [](int i) { return Value(int64_t{i % 20}); }));
  db_.Analyze();
  const PlanNodeSnapshot join =
      RunChecked("SELECT l.v, r.v FROM l, r WHERE l.k = r.k");
  EXPECT_EQ(rows_.size(), 100u);
  EXPECT_NE(join.detail.find("(hashed outer, 10 rows)"), std::string::npos)
      << join.detail;
  EXPECT_EQ(join.actual.rows_in, 10);
  EXPECT_EQ(join.actual.rows_out, 100);
}

TEST_F(HashJoinTest, InnerSideHashedWhenOuterOutnumbersIt) {
  // Stale statistics: ANALYZE saw l.k2 spread over ten values, then 290
  // rows with k2 = 1 arrived. The planner expects l to be the smaller
  // side (30 rows), but 291 rows come out of it: more than r's 100.
  Load("l", Keys(10, [](int i) { return Value(int64_t{i}); }));
  Load("r", Keys(100, [](int i) { return Value(int64_t{i % 50}); }));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_.Execute("UPDATE l SET k2 = " + std::to_string(i) +
                            " WHERE k = " + std::to_string(i))
                    .ok());
  }
  db_.Analyze();
  std::vector<Row> late;
  for (int i = 0; i < 290; ++i) {
    late.push_back({Value(int64_t{i % 60}), Value(int64_t{1}),
                    Value(int64_t{1000 + i})});
  }
  ASSERT_TRUE(db_.BulkInsert("l", std::move(late)).ok());
  const PlanNodeSnapshot join = RunChecked(
      "SELECT l.v, r.v FROM l, r WHERE l.k = r.k AND l.k2 = 1");
  EXPECT_NE(join.detail.find("(hashed inner, 100 rows)"), std::string::npos)
      << join.detail;
  EXPECT_EQ(join.actual.rows_in, 291);
}

TEST_F(HashJoinTest, EqualSizesHashTheOuterSide) {
  Load("l", Keys(50, [](int i) { return Value(int64_t{i % 25}); }));
  Load("r", Keys(50, [](int i) { return Value(int64_t{i % 10}); }));
  db_.Analyze();
  const PlanNodeSnapshot join =
      RunChecked("SELECT l.v, r.v FROM l, r WHERE l.k = r.k");
  EXPECT_EQ(rows_.size(), 10u * 2 * 5);
  EXPECT_NE(join.detail.find("(hashed outer, 50 rows)"), std::string::npos)
      << join.detail;
}

TEST_F(HashJoinTest, DuplicateKeysOnBothSides) {
  Load("l", Keys(30, [](int i) { return Value(int64_t{i % 3}); }));
  Load("r", Keys(60, [](int i) { return Value(int64_t{i % 4}); }));
  db_.Analyze();
  const PlanNodeSnapshot join =
      RunChecked("SELECT l.v, r.v FROM l, r WHERE l.k = r.k");
  EXPECT_EQ(rows_.size(), 3u * 10 * 15);
  EXPECT_EQ(join.actual.comparisons, join.actual.rows_out);
}

TEST_F(HashJoinTest, NullKeysNeverMatch) {
  auto keys = [](int n, int null_every) {
    return Keys(n, [=](int i) {
      return i % null_every == 0 ? Value() : Value(int64_t{i % 7});
    });
  };
  Load("l", keys(20, 3));
  Load("r", keys(40, 2));
  db_.Analyze();
  RunChecked("SELECT l.k, r.k FROM l, r WHERE l.k = r.k");
  ASSERT_FALSE(rows_.empty());
  for (const Row& row : rows_) {
    EXPECT_FALSE(row[0].is_null());
    EXPECT_FALSE(row[1].is_null());
  }
}

TEST_F(HashJoinTest, IntKeysMeetEqualDoubles) {
  Load("l", Keys(40, [](int i) { return Value(int64_t{i}); }));
  CheckOk(db_.CreateTable("d", Schema({{"x", ValueType::kDouble}})));
  ASSERT_TRUE(
      db_.BulkInsert("d", {{Value(1.0)}, {Value(1.5)}, {Value(7.0)},
                           {Value(-0.0)}, {Value(39.0)}, {Value(40.0)}})
          .ok());
  db_.Analyze();
  const PlanNodeSnapshot join =
      RunChecked("SELECT l.k, d.x FROM d, l WHERE l.k = d.x");
  EXPECT_EQ(rows_.size(), 4u);  // 1, 7, 0 and 39
  EXPECT_EQ(join.actual.comparisons, 4);
}

TEST_F(HashJoinTest, TwoColumnKeys) {
  std::vector<Row> l_keys, r_keys;
  for (int i = 0; i < 24; ++i) {
    l_keys.push_back({Value(int64_t{i % 6}), Value(int64_t{i % 4})});
  }
  for (int i = 0; i < 48; ++i) {
    r_keys.push_back({Value(int64_t{i % 8}), Value(int64_t{i % 3})});
  }
  Load("l", std::move(l_keys));
  Load("r", std::move(r_keys));
  db_.Analyze();
  const PlanNodeSnapshot join = RunChecked(
      "SELECT l.v, r.v FROM l, r WHERE l.k = r.k AND l.k2 = r.k2");
  ASSERT_FALSE(rows_.empty());
  EXPECT_NE(join.detail.find("on k = l.k, k2 = l.k2"), std::string::npos)
      << join.detail;
}

TEST_F(HashJoinTest, BucketMatesAreNotRechecked) {
  // Ints hash by identity, so in the 8-bucket table over l's 8 keys, k
  // and k + 8 share a bucket (as do r's k + 16 and k + 24). Only equal
  // hashes are rechecked: one comparison per match.
  Load("l", Keys(8, [](int i) { return Value(int64_t{i < 4 ? i : i + 4}); }));
  Load("r", Keys(32, [](int i) { return Value(int64_t{i}); }));
  db_.Analyze();
  const PlanNodeSnapshot join =
      RunChecked("SELECT l.k, r.k FROM l, r WHERE l.k = r.k");
  EXPECT_NE(join.detail.find("(hashed outer, 8 rows)"), std::string::npos)
      << join.detail;
  EXPECT_EQ(rows_.size(), 8u);
  EXPECT_EQ(join.actual.comparisons, 8);
}

TEST_F(HashJoinTest, LimitOverJoin) {
  Load("l", Keys(10, [](int i) { return Value(int64_t{i}); }));
  Load("r", Keys(200, [](int i) { return Value(int64_t{i % 20}); }));
  db_.Analyze();
  RunChecked("SELECT l.v, r.v FROM l, r WHERE l.k = r.k");
  std::multiset<std::string> all;
  for (const Row& row : rows_) all.insert(querygen::Canonical({row}));
  auto limited = db_.Execute("SELECT l.v, r.v FROM l, r WHERE l.k = r.k "
                             "LIMIT 7");
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->rows.size(), 7u);
  for (const Row& row : limited->rows) {
    auto it = all.find(querygen::Canonical({row}));
    ASSERT_NE(it, all.end());
    all.erase(it);
  }
}

TEST_F(HashJoinTest, JoinAndGroupByAgreeWithFilterBeyondDoublePrecision) {
  // 2^53 + 1 is not a double: compared as doubles it equals 2^53, so the
  // filter, the hash join and GROUP BY must all treat the two as equal.
  const int64_t k53 = int64_t{1} << 53;
  Load("a", {{Value(k53 + 1), Value(int64_t{0})}});
  Load("b", {{Value(k53), Value(int64_t{0})},
             {Value(k53 + 1), Value(int64_t{0})}});
  db_.Analyze();
  auto filtered = db_.Execute("SELECT k FROM b WHERE k = 9007199254740993");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->rows.size(), 2u);
  RunChecked("SELECT a.k, b.k FROM a, b WHERE a.k = b.k");
  EXPECT_EQ(rows_.size(), 2u);
  auto grouped = db_.Execute("SELECT k, COUNT(*) FROM b GROUP BY k");
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->rows.size(), 1u);
  EXPECT_EQ(grouped->rows[0][1].AsInt(), 2);
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(db_.Execute("SELECT a FROM missing").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO emp VALUES (1)").ok());  // arity
  EXPECT_FALSE(db_.Execute("UPDATE emp SET nope = 1").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO emp (id, nope) VALUES (1, 2)").ok());
}

TEST_F(ExecutorTest, CostMonotoneInRowsScanned) {
  auto small = db_.Execute("SELECT COUNT(*) FROM dept");
  auto large = db_.Execute("SELECT COUNT(*) FROM emp");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->stats.ToCost().Total(),
            small->stats.ToCost().Total());
}

}  // namespace
}  // namespace autoindex

namespace autoindex {
namespace {

TEST(ClusteringTest, CorrelatedRangeScanTouchesFewPages) {
  // A physically date-ordered table: an index range scan over a narrow
  // window must touch contiguous heap pages (few), and the planner must
  // therefore prefer the index over the full scan.
  Database db;
  CheckOk(db.CreateTable("events", Schema({{"day", ValueType::kInt},
                                           {"payload", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 60000; ++i) {
    rows.push_back({Value(int64_t(i / 40)), Value(int64_t(i))});
  }
  ASSERT_TRUE(db.BulkInsert("events", std::move(rows)).ok());
  db.Analyze();
  ASSERT_TRUE(db.CreateIndex(IndexDef("events", {"day"})).ok());

  auto r = db.Execute(
      "SELECT COUNT(*) FROM events WHERE day BETWEEN 100 AND 130");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 31 * 40);
  EXPECT_TRUE(r->stats.used_index)
      << "correlation-aware costing should pick the index";
  // 1240 rows over a correlated layout: a handful of contiguous pages,
  // far fewer than one page per row.
  EXPECT_LT(r->stats.heap_pages_read, 40u);
}

TEST(ClusteringTest, UncorrelatedScanStillCountsRandomPages) {
  Database db;
  CheckOk(db.CreateTable("shuffled", Schema({{"v", ValueType::kInt},
                                             {"payload", ValueType::kInt}})));
  Random rng(5);
  std::vector<Row> rows;
  for (int i = 0; i < 60000; ++i) {
    rows.push_back({Value(rng.UniformInt(0, 1500)), Value(int64_t(i))});
  }
  ASSERT_TRUE(db.BulkInsert("shuffled", std::move(rows)).ok());
  db.Analyze();
  ASSERT_TRUE(db.CreateIndex(IndexDef("shuffled", {"v"})).ok());
  // ~40 matching rows scattered over the heap: roughly one page each if
  // the planner chooses the index (either choice is legitimate here; only
  // verify the accounting when it does).
  auto r = db.Execute("SELECT COUNT(*) FROM shuffled WHERE v = 77");
  ASSERT_TRUE(r.ok());
  if (r->stats.used_index) {
    EXPECT_GT(r->stats.heap_pages_read, 20u);
  }
}

}  // namespace
}  // namespace autoindex
