// Online index lifecycle (DESIGN.md §10): a build that runs concurrently
// with writer sessions publishes an index entry-for-entry identical to a
// from-scratch rebuild; in-flight builds stay invisible to the planner
// and to checkpoints (crash mid-build recovers to "index absent");
// aborted builds leak nothing; the tuning apply pass reports each failed
// definition; and the LifecycleValidator actually fires on injected
// lifecycle corruption.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/validator.h"
#include "core/manager.h"
#include "engine/database.h"
#include "engine/session.h"
#include "persist/snapshot.h"

namespace autoindex {
namespace {

using Entry = std::pair<Row, RowId>;

bool EntryLess(const Entry& a, const Entry& b) {
  const int cmp = CompareRows(a.first, b.first);
  if (cmp != 0) return cmp < 0;
  return a.second < b.second;
}

// The (key, rid) list a from-scratch rebuild of `index` would produce.
std::vector<Entry> RebuildEntries(const HeapTable& table,
                                  const BuiltIndex& index) {
  std::vector<Entry> out;
  table.Scan([&](RowId rid, const Row& row) {
    out.emplace_back(index.KeyFromRow(row), rid);
  });
  std::sort(out.begin(), out.end(), EntryLess);
  return out;
}

// The (key, rid) list the index actually holds.
std::vector<Entry> IndexEntries(const BuiltIndex& index) {
  std::vector<Entry> out;
  index.Scan(nullptr, nullptr, true, nullptr, true,
             [&](const Row& key, RowId rid) {
               out.emplace_back(key, rid);
               return true;
             });
  std::sort(out.begin(), out.end(), EntryLess);
  return out;
}

void ExpectEntriesEqual(const std::vector<Entry>& expected,
                        const std::vector<Entry>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].second, actual[i].second) << "at sorted entry " << i;
    ASSERT_EQ(CompareRows(expected[i].first, actual[i].first), 0)
        << "at sorted entry " << i;
  }
}

bool ReportMentions(const CheckReport& report, const std::string& needle) {
  return std::any_of(report.issues().begin(), report.issues().end(),
                     [&](const CheckIssue& issue) {
                       return issue.detail.find(needle) != std::string::npos;
                     });
}

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove(persist::CheckpointPath(dir).c_str());
  std::remove((persist::CheckpointPath(dir) + ".tmp").c_str());
  std::remove(persist::WalPath(dir).c_str());
  return dir;
}

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto created = db_.CreateTable("t", Schema({{"a", ValueType::kInt},
                                                {"b", ValueType::kInt},
                                                {"c", ValueType::kInt}}));
    ASSERT_TRUE(created.ok());
    std::vector<Row> rows;
    rows.reserve(kInitialRows);
    for (int i = 0; i < kInitialRows; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 997)),
                      Value(int64_t(i % 7))});
    }
    ASSERT_TRUE(db_.BulkInsert("t", std::move(rows)).ok());
    db_.Analyze();
  }

  static constexpr int kInitialRows = 12000;
  Database db_;
};

// --- The tentpole guarantee: concurrent build correctness ---------------

// The TSan-gated stress: N writer sessions mutate the table (inserts,
// key-changing updates, deletes) for the whole duration of an online
// CreateIndex. The published index must match a from-scratch rebuild
// entry-for-entry, and every validator must pass.
TEST_F(LifecycleTest, OnlineBuildUnderConcurrentWriters) {
  constexpr int kWriters = 4;
  std::atomic<bool> done{false};
  std::atomic<size_t> writes{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w, &done, &writes] {
      std::unique_ptr<Session> session = db_.CreateSession();
      int64_t next_insert = 1000000 + w;  // ids disjoint from the seed rows
      for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
        const int64_t target = (w * 3001 + i * 17) % kInitialRows;
        std::string sql;
        switch (i % 3) {
          case 0:
            sql = "INSERT INTO t VALUES (" + std::to_string(next_insert) +
                  ", " + std::to_string(i % 997) + ", " +
                  std::to_string(i % 7) + ")";
            next_insert += kWriters;
            break;
          case 1:
            // Key-changing update: lands in the build's delta buffer.
            sql = "UPDATE t SET b = " + std::to_string((i * 13) % 997) +
                  " WHERE a = " + std::to_string(target);
            break;
          default:
            sql = "DELETE FROM t WHERE a = " + std::to_string(target);
            break;
        }
        ASSERT_TRUE(session->Execute(sql).ok()) << sql;
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the writers get going, then build online while they hammer.
  while (writes.load(std::memory_order_acquire) < 50) {
    std::this_thread::yield();
  }
  const IndexDef def("t", {"b"});
  ASSERT_TRUE(db_.CreateIndex(def).ok());
  done.store(true, std::memory_order_release);
  for (std::thread& thread : writers) thread.join();

  // Published and planner-visible.
  ASSERT_EQ(db_.index_manager().num_indexes(), 1u);
  const BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  EXPECT_EQ(index->state(), IndexState::kReady);
  EXPECT_EQ(index->delta_pending(), 0u);

  // Differential: identical to a from-scratch rebuild of the final heap.
  const HeapTable* table = db_.catalog().GetTable("t");
  ExpectEntriesEqual(RebuildEntries(*table, *index), IndexEntries(*index));

  const CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- In-flight visibility and the crash-mid-build contract --------------

TEST_F(LifecycleTest, BuildingIndexInvisibleToPlannerAndCheckpoints) {
  const std::string dir = FreshDir("lifecycle_midbuild");
  bool observed_caught_up = false;
  db_.set_index_build_hook([&](Database::IndexBuildPhase phase) {
    if (phase != Database::IndexBuildPhase::kCaughtUp) return;
    observed_caught_up = true;
    // Mid-build: registered (duplicate creates are refused) but not
    // planner-visible, and reads still work without it.
    EXPECT_TRUE(db_.HasIndex(IndexDef("t", {"b"})));
    EXPECT_EQ(db_.index_manager().num_indexes(), 0u);
    ASSERT_EQ(db_.index_manager().AllIndexesAnyState().size(), 1u);
    EXPECT_EQ(db_.index_manager().AllIndexesAnyState()[0]->state(),
              IndexState::kBuilding);
    auto result = db_.Execute("SELECT a FROM t WHERE b = 5");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->indexes_used.empty());
    // Checkpoint cut mid-build = the on-disk image after a crash: the
    // index must be absent, because its WAL record only lands at publish.
    StatusOr<uint64_t> saved = persist::SaveSnapshot(&db_, nullptr, dir);
    ASSERT_TRUE(saved.ok());
  });
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  ASSERT_TRUE(observed_caught_up);
  db_.set_index_build_hook(nullptr);

  Database recovered;
  persist::RecoveryReport report;
  auto wal = persist::OpenSnapshot(&recovered, nullptr, dir, &report);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(report.indexes_rebuilt, 0u);
  EXPECT_EQ(recovered.index_manager().num_indexes(), 0u);
  EXPECT_FALSE(recovered.HasIndex(IndexDef("t", {"b"})));
  // The live database did publish.
  EXPECT_EQ(db_.index_manager().num_indexes(), 1u);
}

TEST_F(LifecycleTest, AbortedBuildLeaksNothing) {
  IndexManager& manager = db_.index_manager();
  StatusOr<BuiltIndex*> begun = manager.BeginBuild(IndexDef("t", {"b"}));
  ASSERT_TRUE(begun.ok());
  EXPECT_EQ((*begun)->state(), IndexState::kBuilding);

  // Writer maintenance reaches the registered build as buffered delta.
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (900001, 1, 2)").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE a = 900001").ok());
  EXPECT_EQ((*begun)->delta_pending(), 2u);
  EXPECT_EQ((*begun)->num_entries(), 0u);  // nothing applied yet
  EXPECT_EQ(manager.num_indexes(), 0u);

  // Abandon: no state leaks, and the same definition builds again.
  ASSERT_TRUE(manager.AbortBuild(IndexDef("t", {"b"}).Key()).ok());
  EXPECT_TRUE(manager.AllIndexesAnyState().empty());
  EXPECT_FALSE(db_.HasIndex(IndexDef("t", {"b"})));
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  EXPECT_EQ(manager.num_indexes(), 1u);
  const CheckReport report = CheckAll(db_);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(LifecycleTest, DuplicateCreateRefusedBeforeScan) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  // Refused at registration, before any scan (AlreadyExists).
  const Status again = db_.CreateIndex(IndexDef("t", {"b"}));
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists) << again.ToString();
  EXPECT_EQ(db_.index_manager().num_indexes(), 1u);
  EXPECT_EQ(db_.index_manager().AllIndexesAnyState().size(), 1u);
}

// --- Tuning apply -----------------------------------------------------

TEST(LifecycleApplyTest, ApplyErrorsAreRecordedPerDefinition) {
  Database db;
  auto created = db.CreateTable("t", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(created.ok());
  AutoIndexConfig config;
  config.learn_cost_model = false;
  AutoIndexManager manager(&db, config);

  // One bogus drop + one bogus create, each reported.
  const IndexDef missing("t", {"nope"});
  AutoIndexManager::DdlOutcome outcome =
      manager.ApplyDdlNow({missing}, {missing});
  ASSERT_EQ(outcome.errors.size(), 2u);
  EXPECT_TRUE(outcome.errors[0].drop);
  EXPECT_FALSE(outcome.errors[1].drop);
  EXPECT_FALSE(outcome.errors[0].message.empty());
  EXPECT_TRUE(outcome.dropped.empty());
  EXPECT_TRUE(outcome.built.empty());
}

// --- Validator corruption coverage --------------------------------------

TEST_F(LifecycleTest, ValidatorDetectsEscapedNonReadyState) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  index->set_state(IndexState::kBuilding);
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "not ready")) << report.ToString();
  index->set_state(IndexState::kReady);
  EXPECT_TRUE(CheckAll(db_).ok());
}

TEST_F(LifecycleTest, ValidatorDetectsRebuildDivergence) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  const HeapTable* table = db_.catalog().GetTable("t");
  // Swap the rids of two entries with different keys: entry counts (and
  // so the catalog validator) stay green, but the entry-for-entry
  // differential must fire.
  const Row row0 = table->Get(0);
  const Row row1 = table->Get(1);
  ASSERT_NE(CompareRows(index->KeyFromRow(row0), index->KeyFromRow(row1)), 0);
  ASSERT_TRUE(index->tree().Delete(index->KeyFromRow(row0), 0));
  ASSERT_TRUE(index->tree().Delete(index->KeyFromRow(row1), 1));
  index->tree().Insert(index->KeyFromRow(row0), 1);
  index->tree().Insert(index->KeyFromRow(row1), 0);
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "diverges")) << report.ToString();
}

TEST_F(LifecycleTest, ValidatorDetectsUndrainedPublishedDelta) {
  ASSERT_TRUE(db_.CreateIndex(IndexDef("t", {"b"})).ok());
  BuiltIndex* index = db_.index_manager().AllIndexes()[0];
  // Force a delta op onto a published index: flip to building, route one
  // write through maintenance, flip back without draining.
  index->set_state(IndexState::kBuilding);
  index->InsertEntry(db_.catalog().GetTable("t")->Get(0), 0);
  index->set_state(IndexState::kReady);
  const CheckReport report = CheckAll(db_);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(ReportMentions(report, "undrained")) << report.ToString();
}

}  // namespace
}  // namespace autoindex
