#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/validator.h"
#include "engine/database.h"
#include "index/index_def.h"
#include "index/index_manager.h"
#include "util/random.h"

namespace autoindex {
namespace {

// Indexes are built the one way the engine builds them — the online
// Database::CreateIndex — and maintained by the one write path, the
// executor's INSERT/UPDATE/DELETE (plus BulkInsert).
class IndexManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                          {"b", ValueType::kInt},
                                          {"c", ValueType::kString}}));
    ASSERT_TRUE(t.ok());
    table_ = *t;
    std::vector<Row> rows;
    for (int i = 0; i < 500; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 10)),
                      Value("s" + std::to_string(i % 7))});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
  }

  // Runs one statement and returns the index entries it wrote.
  size_t EntriesWritten(const std::string& sql) {
    StatusOr<ExecResult> result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? result->stats.index_entries_written : 0;
  }

  Database db_;
  IndexManager& mgr_ = db_.index_manager();
  HeapTable* table_ = nullptr;
};

TEST_F(IndexManagerTest, IndexDefBasics) {
  IndexDef def("T", {"A", "b"});
  EXPECT_EQ(def.table, "t");
  EXPECT_EQ(def.Key(), "t(a,b)");
  EXPECT_EQ(def.DisplayName(), "idx_t_a_b");
  IndexDef named("my_idx", "t", {"a"});
  EXPECT_EQ(named.DisplayName(), "my_idx");
}

TEST_F(IndexManagerTest, PrefixRelation) {
  IndexDef a("t", {"a"});
  IndexDef ab("t", {"a", "b"});
  IndexDef ba("t", {"b", "a"});
  EXPECT_TRUE(a.IsPrefixOf(ab));
  EXPECT_TRUE(a.IsPrefixOf(a));
  EXPECT_FALSE(ab.IsPrefixOf(a));
  EXPECT_FALSE(a.IsPrefixOf(ba));
  IndexDef other("u", {"a"});
  EXPECT_FALSE(a.IsPrefixOf(other));
}

TEST_F(IndexManagerTest, CreateBuildsFromExistingRows) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  auto indexes = mgr_.IndexesOnTable("t");
  ASSERT_EQ(indexes.size(), 1u);
  EXPECT_EQ(indexes[0]->tree().num_entries(), 500u);
  // 50 rows per b value.
  EXPECT_EQ(indexes[0]->tree().PrefixLookup({Value(int64_t(3))}).size(), 50u);
}

TEST_F(IndexManagerTest, RejectsBadDefinitions) {
  EXPECT_FALSE(db_.CreateIndex(IndexDef("nope", {"a"})).ok());
  EXPECT_FALSE(db_.CreateIndex(IndexDef("t", {"nope"})).ok());
  EXPECT_FALSE(db_.CreateIndex(IndexDef("t", {})).ok());
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  EXPECT_FALSE(db_.CreateIndex(IndexDef("t", {"a"})).ok());  // duplicate
  // A refused definition leaves nothing registered, ready or in flight.
  EXPECT_EQ(mgr_.AllIndexesAnyState().size(), 1u);
}

TEST_F(IndexManagerTest, DropByKeyOrName) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  EXPECT_TRUE(db_.DropIndex("t(a)").ok());
  EXPECT_TRUE(db_.DropIndex("idx_t_b").ok());
  EXPECT_EQ(mgr_.num_indexes(), 0u);
  EXPECT_FALSE(db_.DropIndex("t(a)").ok());
}

TEST_F(IndexManagerTest, WriteHooksMaintainIndexes) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  BuiltIndex* index = mgr_.IndexesOnTable("t")[0];
  auto count = [&](int64_t b) {
    return index->tree().PrefixLookup({Value(b)}).size();
  };

  // Insert.
  EXPECT_EQ(EntriesWritten("INSERT INTO t VALUES (1000, 42, 'zz')"), 1u);
  EXPECT_EQ(count(42), 1u);

  // Update that changes the key.
  EXPECT_EQ(EntriesWritten("UPDATE t SET b = 43 WHERE a = 1000"), 1u);
  EXPECT_EQ(count(42), 0u);
  EXPECT_EQ(count(43), 1u);

  // Update that does not touch the key is free.
  EXPECT_EQ(EntriesWritten("UPDATE t SET a = 1001 WHERE a = 1000"), 0u);
  EXPECT_EQ(count(43), 1u);

  // Delete: the entry goes, though deletes charge no maintenance (Sec. V).
  EXPECT_EQ(EntriesWritten("DELETE FROM t WHERE a = 1001"), 0u);
  EXPECT_EQ(count(43), 0u);

  // Bulk loads maintain existing indexes as well.
  ASSERT_TRUE(db_.BulkInsert("t", {{Value(int64_t(2000)), Value(int64_t(44)),
                                    Value("bulk")}})
                  .ok());
  EXPECT_EQ(count(44), 1u);
  EXPECT_EQ(index->num_entries(), table_->num_rows());
}

TEST_F(IndexManagerTest, HypotheticalIndexesEstimateStats) {
  ASSERT_TRUE(mgr_.AddHypothetical(IndexDef("t", {"a", "b"})).ok());
  ASSERT_EQ(mgr_.hypothetical().size(), 1u);
  const HypotheticalIndex hypo = mgr_.hypothetical()[0];
  EXPECT_EQ(hypo.est_entries, 500u);
  EXPECT_GE(hypo.est_height, 1u);
  EXPECT_GE(hypo.est_bytes, kPageSizeBytes);

  auto views = mgr_.StatsOnTable("t");
  ASSERT_EQ(views.size(), 1u);
  EXPECT_TRUE(views[0].hypothetical);
  mgr_.ClearHypothetical();
  EXPECT_TRUE(mgr_.StatsOnTable("t").empty());
}

TEST_F(IndexManagerTest, StatsViewMixesBuiltAndHypothetical) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  ASSERT_TRUE(mgr_.AddHypothetical(IndexDef("t", {"b"})).ok());
  auto views = mgr_.StatsOnTable("t");
  ASSERT_EQ(views.size(), 2u);
  int built = 0, hypo = 0;
  for (const auto& v : views) (v.hypothetical ? hypo : built)++;
  EXPECT_EQ(built, 1);
  EXPECT_EQ(hypo, 1);
}

TEST_F(IndexManagerTest, SizeAccounting) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  EXPECT_GE(mgr_.TotalIndexBytes(), kPageSizeBytes);
  const size_t one = mgr_.TotalIndexBytes();
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a", "b", "c"})).ok());
  EXPECT_GT(mgr_.TotalIndexBytes(), one);
}

TEST_F(IndexManagerTest, UsageCounters) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  BuiltIndex* index = mgr_.IndexesOnTable("t")[0];
  EXPECT_EQ(index->uses(), 0u);
  index->RecordUse();
  index->RecordUse();
  EXPECT_EQ(index->uses(), 2u);
  index->ResetUses();
  EXPECT_EQ(index->uses(), 0u);
}

TEST_F(IndexManagerTest, CheckAllAfterMutationBatches) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"a"})).ok());
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b", "c"})).ok());
  EXPECT_TRUE(CheckAll(db_).ok());

  // Mutation batch through the write path: inserts, key-changing
  // updates, deletes. Column a stays unique, so each statement hits at
  // most one row.
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    EntriesWritten("INSERT INTO t VALUES (" + std::to_string(1000 + i) +
                   ", " + std::to_string(i % 13) + ", 'x" +
                   std::to_string(i % 5) + "')");
  }
  for (int i = 0; i < 120; ++i) {
    const uint64_t pick = rng.Uniform(700);
    const int64_t a = pick < 500 ? int64_t(pick) : int64_t(500 + pick);
    if (rng.Bernoulli(0.5)) {
      EntriesWritten("UPDATE t SET b = " + std::to_string(rng.Uniform(40)) +
                     " WHERE a = " + std::to_string(a));
    } else {
      EntriesWritten("DELETE FROM t WHERE a = " + std::to_string(a));
    }
  }
  EXPECT_LT(table_->num_rows(), 700u);  // some deletes landed
  CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Index retirement must leave the remaining accounting exact.
  ASSERT_TRUE(db_.DropIndex("idx_t_a").ok());
  report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(IndexSizeModel, EstimatesScaleWithRowsAndWidth) {
  EXPECT_GT(EstimateIndexBytes(1000000, 8), EstimateIndexBytes(1000, 8));
  EXPECT_GT(EstimateIndexBytes(1000, 64), EstimateIndexBytes(1000, 8));
  EXPECT_GE(EstimateIndexHeight(1000000, 8), EstimateIndexHeight(100, 8));
  EXPECT_GE(EstimateIndexHeight(100, 8), 1u);
  EXPECT_GT(LeafCapacityForWidth(8), LeafCapacityForWidth(128));
}

}  // namespace
}  // namespace autoindex
