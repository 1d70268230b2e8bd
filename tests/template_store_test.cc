#include <gtest/gtest.h>

#include "core/query_template.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

TEST(TemplateStore, GroupsByFingerprint) {
  TemplateStore store(100);
  QueryTemplate* a = store.Observe("SELECT a FROM t WHERE b = 1");
  QueryTemplate* b = store.Observe("SELECT a FROM t WHERE b = 2");
  QueryTemplate* c = store.Observe("SELECT a FROM t WHERE c = 2");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);  // same template
  EXPECT_NE(a, c);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(a->frequency, 2.0);
  EXPECT_EQ(a->total_matches, 2u);
}

TEST(TemplateStore, UnparseableReturnsNull) {
  TemplateStore store(10);
  EXPECT_EQ(store.Observe("NOT SQL AT ALL !!"), nullptr);
}

TEST(TemplateStore, MarksWrites) {
  TemplateStore store(10);
  QueryTemplate* w = store.Observe("UPDATE t SET a = 1 WHERE b = 2");
  QueryTemplate* r = store.Observe("SELECT a FROM t");
  ASSERT_NE(w, nullptr);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(w->is_write);
  EXPECT_FALSE(r->is_write);
}

TEST(TemplateStore, CapacityEvictsLowestFrequency) {
  TemplateStore store(3);
  // Template A seen 5 times, B 3 times, C once.
  for (int i = 0; i < 5; ++i) {
    store.Observe(StrFormat("SELECT a FROM t WHERE a = %d", i));
  }
  for (int i = 0; i < 3; ++i) {
    store.Observe(StrFormat("SELECT b FROM t WHERE b = %d", i));
  }
  store.Observe("SELECT c FROM t WHERE c = 1");
  EXPECT_EQ(store.size(), 3u);
  // A fourth distinct template evicts the least frequent (C).
  store.Observe("SELECT d FROM t WHERE d = 1");
  auto templates = store.TemplatesByFrequency();
  ASSERT_EQ(templates.size(), 3u);
  EXPECT_DOUBLE_EQ(templates[0]->frequency, 5.0);
  for (const QueryTemplate* t : templates) {
    EXPECT_EQ(t->fingerprint.find("SELECT c"), std::string::npos);
  }
}

TEST(TemplateStore, FrequencyOrdering) {
  TemplateStore store(10);
  store.Observe("SELECT a FROM t");
  store.Observe("SELECT b FROM t");
  store.Observe("SELECT b FROM t");
  auto templates = store.TemplatesByFrequency();
  ASSERT_EQ(templates.size(), 2u);
  EXPECT_GT(templates[0]->frequency, templates[1]->frequency);
}

TEST(TemplateStore, DecayShrinksAndEvicts) {
  TemplateStore store(10);
  for (int i = 0; i < 8; ++i) store.Observe("SELECT a FROM t WHERE a = 1");
  store.Observe("SELECT b FROM t WHERE b = 1");
  EXPECT_EQ(store.size(), 2u);
  // Make both templates stale (eviction only touches templates not seen
  // in the current round).
  store.AdvanceRound();
  store.Decay(0.5, /*min_frequency=*/0.6);
  // A: 8 -> 4 survives; B: 1 -> 0.5 evicted.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.TemplatesByFrequency()[0]->frequency, 4.0);
}

// Regression: Decay used to erase templates the workload is actively
// sending. A template first seen in the current round starts at frequency
// 1.0, so one aggressive decay put it under the floor and dropped it even
// though it had just arrived — the tuner then never saw the new workload
// shape. Templates with last_seen_round == current round must survive
// regardless of decayed frequency.
TEST(TemplateStore, DecayKeepsTemplatesSeenThisRound) {
  TemplateStore store(10);
  // Stale: seen only in round 0.
  store.Observe("SELECT a FROM t WHERE a = 1");
  store.AdvanceRound();
  // Live: first seen in the current round.
  store.Observe("SELECT b FROM t WHERE b = 1");
  ASSERT_EQ(store.size(), 2u);
  // 0.25 pushes both frequencies (1.0 -> 0.25) under the floor; only the
  // stale one may go.
  store.Decay(0.25, /*min_frequency=*/0.6);
  auto templates = store.TemplatesByFrequency();
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0]->last_seen_round, store.round());
  EXPECT_NE(templates[0]->fingerprint.find("SELECT b"), std::string::npos);
}

TEST(TemplateStore, MatchRateSignalsDrift) {
  TemplateStore store(100);
  for (int i = 0; i < 10; ++i) store.Observe("SELECT a FROM t WHERE a = 1");
  EXPECT_GT(store.MatchRate(), 0.8);
  store.ResetMatchStats();
  // A brand-new workload: nothing matches.
  for (int i = 0; i < 10; ++i) {
    store.Observe(StrFormat("SELECT x%d FROM u WHERE y = 1", i));
  }
  EXPECT_LT(store.MatchRate(), 0.2);
}

// Garbage is no observation: a burst of unparseable statements must not
// pull the match rate under the drift threshold and trigger decay.
TEST(TemplateStore, UnparseableSqlIsNotCountedAsDrift) {
  TemplateStore store(100);
  store.Observe("SELECT a FROM t WHERE a = 1");
  store.ResetMatchStats();
  for (int i = 0; i < 4; ++i) store.Observe("SELECT a FROM t WHERE a = 2");
  EXPECT_DOUBLE_EQ(store.MatchRate(), 1.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(store.Observe("NOT SQL AT ALL !!"), nullptr);
  }
  EXPECT_DOUBLE_EQ(store.MatchRate(), 1.0);
  EXPECT_EQ(store.total_observed(), 5u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TemplateStore, RoundTracking) {
  TemplateStore store(10);
  EXPECT_EQ(store.round(), 0u);
  store.Observe("SELECT a FROM t");
  store.AdvanceRound();
  store.Observe("SELECT a FROM t");
  auto templates = store.TemplatesByFrequency();
  EXPECT_EQ(templates[0]->last_seen_round, 1u);
  EXPECT_EQ(store.round(), 1u);
}

TEST(TemplateStore, PreParsedObserve) {
  TemplateStore store(10);
  auto stmt = ParseSql("SELECT a FROM t WHERE b = 5");
  ASSERT_TRUE(stmt.ok());
  QueryTemplate* t1 = store.Observe(*stmt, "SELECT a FROM t WHERE b = 5");
  QueryTemplate* t2 = store.Observe("SELECT a FROM t WHERE b = 7");
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(store.total_observed(), 2u);
}

TEST(TemplateStore, RepresentativeKeepsStructure) {
  TemplateStore store(10);
  QueryTemplate* t =
      store.Observe("SELECT a FROM t WHERE b = 42 AND c > 10");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->representative.kind, StatementKind::kSelect);
  EXPECT_NE(t->representative.select->where, nullptr);
}

}  // namespace
}  // namespace autoindex
