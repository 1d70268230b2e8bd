// Differential property test for the physical-operator pipeline: random
// SELECTs run through the Volcano pipeline must produce the exact row
// multiset of the naive reference evaluator (query_gen.h), AND the
// per-operator counters in the returned plan snapshot must sum exactly to
// the statement-level ExecStats — the invariant the PhysicalPlanValidator
// enforces. 6 seeds x 40 queries = 240 deterministic queries, each checked
// with a mixed index set built so IndexScan / IndexNestedLoopJoin paths are
// exercised alongside SeqScan / HashJoin.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/validator.h"
#include "engine/database.h"
#include "sql/parser.h"
#include "query_gen.h"
#include "util/random.h"

namespace autoindex {
namespace {

using querygen::BuildPropertyTestTables;
using querygen::Canonical;
using querygen::GenContext;
using querygen::ReferenceSelect;

// Re-derives the statement ExecStats from the snapshot's per-operator
// counters and asserts it matches what the executor reported. rows_returned
// must equal the root operator's rows_out.
void ExpectCountersSumToStats(const PlanNodeSnapshot& plan,
                              const ExecStats& stats,
                              const std::string& sql) {
  ExecStats summed;
  AccumulateOperatorCounters(plan, &summed);
  EXPECT_EQ(summed.heap_pages_read, stats.heap_pages_read) << sql;
  EXPECT_EQ(summed.index_pages_read, stats.index_pages_read) << sql;
  EXPECT_EQ(summed.tuples_examined, stats.tuples_examined) << sql;
  EXPECT_EQ(summed.index_tuples_read, stats.index_tuples_read) << sql;
  EXPECT_EQ(summed.sort_rows, stats.sort_rows) << sql;
  ASSERT_GE(plan.actual.rows_out, 0) << sql;
  EXPECT_EQ(static_cast<size_t>(plan.actual.rows_out), stats.rows_returned)
      << sql;
}

class PipelinePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelinePropertyTest, PipelineMatchesReferenceAndCountersAreConsistent) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  BuildPropertyTestTables(&db, seed);

  // Build a seed-dependent index subset so different seeds exercise
  // different access paths (always at least the join-probe index on t2.x).
  Random idx_rng(seed * 31 + 7);
  ASSERT_TRUE(db.CreateIndex(IndexDef("t2", {"x"})).ok());
  const std::vector<IndexDef> optional_indexes = {
      IndexDef("t1", {"a"}), IndexDef("t1", {"b"}),
      IndexDef("t1", {"a", "b"}), IndexDef("t1", {"b", "c"}),
      IndexDef("t1", {"s"})};
  for (const IndexDef& def : optional_indexes) {
    if (idx_rng.Bernoulli(0.5)) {
      ASSERT_TRUE(db.CreateIndex(def).ok());
    }
  }

  GenContext gen(seed + 1000);  // distinct stream from query_property_test
  for (int i = 0; i < 40; ++i) {
    const std::string sql = gen.RandQuery();
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    const std::string expected =
        Canonical(ReferenceSelect(db, *stmt->select));

    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql;
    EXPECT_EQ(Canonical(r->rows), expected) << sql;

    // Every SELECT runs a pipeline and must return its snapshot.
    ASSERT_NE(r->plan, nullptr) << sql;
    ExpectCountersSumToStats(*r->plan, r->stats, sql);

    // The registered PhysicalPlanValidator re-checks the retained snapshot
    // (plus every storage structure) after each statement.
    const CheckReport report = CheckAll(db);
    EXPECT_TRUE(report.ok()) << sql << "\n" << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace autoindex
