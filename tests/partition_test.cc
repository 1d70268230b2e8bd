// Global vs local index selection on hash-partitioned tables (the paper's
// Sec. III extension): entry routing, partition-pruned scans, cost-model
// preferences, and end-to-end selection of the index kind.

#include <gtest/gtest.h>

#include "core/candidate_gen.h"
#include "core/manager.h"
#include "engine/database.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

class PartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckOk(db_.CreateTable("pt", Schema({{"region", ValueType::kInt},
                                          {"k", ValueType::kInt},
                                          {"v", ValueType::kInt}})));
    HeapTable* t = db_.catalog().GetTable("pt");
    ASSERT_TRUE(t->SetPartitioning("region", 8));
    std::vector<Row> rows;
    for (int i = 0; i < 40000; ++i) {
      rows.push_back({Value(int64_t(i % 64)), Value(int64_t(i)),
                      Value(int64_t(i % 100))});
    }
    ASSERT_TRUE(db_.BulkInsert("pt", std::move(rows)).ok());
    db_.Analyze();
  }

  Database db_;
};

TEST_F(PartitionTest, TablePartitioningApi) {
  HeapTable* t = db_.catalog().GetTable("pt");
  EXPECT_TRUE(t->partitioned());
  EXPECT_EQ(t->num_partitions(), 8u);
  EXPECT_EQ(t->partition_column(), 0);
  EXPECT_FALSE(t->SetPartitioning("nope", 4));
  // All rows with the same region value land in the same shard.
  const size_t p = t->PartitionOfValue(Value(int64_t(11)));
  EXPECT_LT(p, 8u);
  EXPECT_EQ(t->PartitionOfRow({Value(int64_t(11)), Value(int64_t(1)),
                               Value(int64_t(2))}),
            p);
}

TEST_F(PartitionTest, LocalIndexBuildsOneTreePerPartition) {
  ASSERT_TRUE(db_.CreateIndex(
      IndexDef("pt", {"k"}, IndexKind::kLocal)).ok());
  const BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  EXPECT_TRUE(index->is_local());
  EXPECT_EQ(index->num_trees(), 8u);
  EXPECT_EQ(index->num_entries(), 40000u);
  // Entries spread over the shards.
  size_t non_empty = 0;
  for (size_t i = 0; i < index->num_trees(); ++i) {
    if (index->tree_at(i).num_entries() > 0) ++non_empty;
  }
  EXPECT_GT(non_empty, 4u);
}

TEST_F(PartitionTest, GlobalIndexOnPartitionedTableSingleTree) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("pt", {"k"})).ok());
  const BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  EXPECT_FALSE(index->is_local());
  EXPECT_EQ(index->num_trees(), 1u);
  EXPECT_EQ(index->num_entries(), 40000u);
}

TEST_F(PartitionTest, LocalIndexSmallerThanGlobal) {
  // The global index carries per-entry partition pointers: more bytes.
  Database db2;
  CheckOk(db2.CreateTable("pt", Schema({{"region", ValueType::kInt},
                                        {"k", ValueType::kInt},
                                        {"v", ValueType::kInt}})));
  db2.catalog().GetTable("pt")->SetPartitioning("region", 8);
  std::vector<Row> rows;
  for (int i = 0; i < 40000; ++i) {
    rows.push_back({Value(int64_t(i % 64)), Value(int64_t(i)),
                    Value(int64_t(i % 100))});
  }
  ASSERT_TRUE(db2.BulkInsert("pt", std::move(rows)).ok());

  ASSERT_TRUE(db_.CreateIndex(IndexDef("pt", {"k"})).ok());  // global
  ASSERT_TRUE(
      db2.CreateIndex(IndexDef("pt", {"k"}, IndexKind::kLocal)).ok());
  EXPECT_LT(db2.index_manager().TotalIndexBytes() * 0.95,
            db_.index_manager().TotalIndexBytes())
      << "global should not be smaller than local";
}

TEST_F(PartitionTest, DefKeysDistinguishKinds) {
  const IndexDef global("pt", {"k"});
  const IndexDef local("pt", {"k"}, IndexKind::kLocal);
  EXPECT_NE(global.Key(), local.Key());
  EXPECT_FALSE(global == local);
  EXPECT_EQ(local.DisplayName(), "idx_pt_k_local");
  // Both kinds can coexist as built indexes.
  ASSERT_TRUE(db_.CreateIndex(global).ok());
  ASSERT_TRUE(db_.CreateIndex(local).ok());
  EXPECT_EQ(db_.index_manager().num_indexes(), 2u);
}

TEST_F(PartitionTest, QueriesReturnSameResultsUnderAnyKind) {
  const char* queries[] = {
      "SELECT v FROM pt WHERE k = 1234",
      "SELECT COUNT(*) FROM pt WHERE region = 11 AND k < 20000",
      "SELECT COUNT(*) FROM pt WHERE k BETWEEN 100 AND 300",
  };
  std::vector<std::vector<Row>> expected;
  for (const char* q : queries) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(r->rows);
  }
  for (IndexKind kind : {IndexKind::kGlobal, IndexKind::kLocal}) {
    ASSERT_TRUE(db_.CreateIndex(IndexDef("pt", {"k"}, kind)).ok());
    for (size_t i = 0; i < 3; ++i) {
      auto r = db_.Execute(queries[i]);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r->rows.size(), expected[i].size()) << queries[i];
      for (size_t j = 0; j < r->rows.size(); ++j) {
        EXPECT_EQ(CompareRows(r->rows[j], expected[i][j]), 0);
      }
    }
    ASSERT_TRUE(db_.DropIndex(IndexDef("pt", {"k"}, kind).Key()).ok());
  }
}

TEST_F(PartitionTest, PartitionPruningReducesMeasuredPages) {
  // Local index on (region, k): a query binding region probes one shard.
  ASSERT_TRUE(db_.CreateIndex(
      IndexDef("pt", {"region", "k"}, IndexKind::kLocal)).ok());
  auto pruned = db_.Execute(
      "SELECT v FROM pt WHERE region = 11 AND k = 5000");
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(pruned->stats.used_index);
  const size_t pruned_pages = pruned->stats.index_pages_read;

  // Same lookup through an unpruned local index on k only: every shard
  // pays a descent.
  ASSERT_TRUE(db_.DropIndex(
      IndexDef("pt", {"region", "k"}, IndexKind::kLocal).Key()).ok());
  ASSERT_TRUE(db_.CreateIndex(
      IndexDef("pt", {"k"}, IndexKind::kLocal)).ok());
  auto unpruned = db_.Execute("SELECT v FROM pt WHERE k = 5000");
  ASSERT_TRUE(unpruned.ok());
  if (unpruned->stats.used_index) {
    EXPECT_GT(unpruned->stats.index_pages_read, pruned_pages);
  }
}

TEST_F(PartitionTest, InsertUpdateDeleteMaintainLocalIndex) {
  ASSERT_TRUE(db_.CreateIndex(
      IndexDef("pt", {"k"}, IndexKind::kLocal)).ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO pt VALUES (7, 999999, 1)").ok());
  auto sel = db_.Execute("SELECT v FROM pt WHERE k = 999999");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->rows.size(), 1u);

  // Moving the partition column relocates the entry across shards.
  ASSERT_TRUE(
      db_.Execute("UPDATE pt SET region = 13 WHERE k = 999999").ok());
  sel = db_.Execute("SELECT region FROM pt WHERE k = 999999");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->rows.size(), 1u);
  EXPECT_EQ(sel->rows[0][0].AsInt(), 13);

  ASSERT_TRUE(db_.Execute("DELETE FROM pt WHERE k = 999999").ok());
  sel = db_.Execute("SELECT COUNT(*) FROM pt WHERE k = 999999");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->rows[0][0].AsInt(), 0);
}

TEST_F(PartitionTest, CandidateGenEmitsBothKinds) {
  TemplateStore store(10);
  store.Observe("SELECT v FROM pt WHERE k = 77");
  CandidateGenerator gen(&db_);
  auto defs = gen.Generate(store.TemplatesByFrequency(), IndexConfig());
  bool has_global = false, has_local = false;
  for (const IndexDef& def : defs) {
    if (def.table != "pt") continue;
    if (def.kind == IndexKind::kGlobal) has_global = true;
    if (def.kind == IndexKind::kLocal) has_local = true;
  }
  EXPECT_TRUE(has_global);
  EXPECT_TRUE(has_local);
}

TEST_F(PartitionTest, EstimatorPrefersPrunableLocalOverGlobalWhenTight) {
  // Workload always binds the partition column -> the local index serves
  // every lookup with a single shallow descent AND is smaller; under a
  // tight budget the search should prefer it.
  AutoIndexConfig ai;
  ai.mcts.iterations = 150;
  ai.learn_cost_model = false;
  AutoIndexManager manager(&db_, ai);
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    CheckOk(manager.ExecuteAndObserve(StrFormat(
        "SELECT v FROM pt WHERE region = %d AND k = %d",
        static_cast<int>(rng.Uniform(64)),
        static_cast<int>(rng.Uniform(40000)))));
  }
  TuningResult tuning = manager.RunManagementRound();
  ASSERT_FALSE(tuning.added.empty());
  // Whatever kind won, the measured workload must improve and results
  // stay correct.
  auto check = db_.Execute("SELECT v FROM pt WHERE region = 11 AND k = 75");
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->stats.used_index);
}

TEST_F(PartitionTest, UnpartitionedTableLocalFallsBackToSingleTree) {
  CheckOk(db_.CreateTable("plain", Schema({{"a", ValueType::kInt}})));
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({Value(int64_t(i))});
  ASSERT_TRUE(db_.BulkInsert("plain", std::move(rows)).ok());
  ASSERT_TRUE(db_.CreateIndex(
      IndexDef("plain", {"a"}, IndexKind::kLocal)).ok());
  const BuiltIndex* index =
      db_.index_manager().IndexesOnTable("plain")[0];
  EXPECT_EQ(index->num_trees(), 1u);
  EXPECT_FALSE(index->is_local());
}

}  // namespace
}  // namespace autoindex
