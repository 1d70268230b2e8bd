// B+Tree unit and property tests, including a randomized differential test
// against std::multimap as the reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "check/validator.h"
#include "engine/database.h"
#include "index/btree.h"
#include "util/random.h"

namespace autoindex {
namespace {

Row Key(int64_t v) { return Row{Value(v)}; }
Row Key2(int64_t a, int64_t b) { return Row{Value(a), Value(b)}; }

TEST(BTree, EmptyTree) {
  BTree tree(8, 8);
  EXPECT_EQ(tree.num_entries(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_FALSE(tree.Contains(Key(1)));
  EXPECT_EQ(tree.ValidateStructure().ToString(), "Ok");
}

TEST(BTree, InsertAndLookup) {
  BTree tree(8, 8);
  for (int64_t i = 0; i < 100; ++i) tree.Insert(Key(i * 2), i);
  EXPECT_EQ(tree.num_entries(), 100u);
  EXPECT_TRUE(tree.Contains(Key(50)));
  EXPECT_FALSE(tree.Contains(Key(51)));
  EXPECT_EQ(tree.ValidateStructure().ToString(), "Ok");
}

TEST(BTree, SplitsGrowHeight) {
  BTree tree(4, 4);
  for (int64_t i = 0; i < 200; ++i) tree.Insert(Key(i), i);
  EXPECT_GT(tree.height(), 2u);
  EXPECT_GT(tree.num_splits(), 10u);
  EXPECT_GT(tree.num_nodes(), 20u);
  EXPECT_EQ(tree.ValidateStructure().ToString(), "Ok");
}

TEST(BTree, DuplicateKeysAllowed) {
  BTree tree(8, 8);
  for (int64_t rid = 0; rid < 50; ++rid) tree.Insert(Key(7), rid);
  EXPECT_EQ(tree.num_entries(), 50u);
  const auto rids = tree.PrefixLookup(Key(7));
  EXPECT_EQ(rids.size(), 50u);
  EXPECT_EQ(tree.ValidateStructure().ToString(), "Ok");
}

TEST(BTree, DeleteSpecificEntry) {
  BTree tree(8, 8);
  tree.Insert(Key(1), 10);
  tree.Insert(Key(1), 11);
  EXPECT_TRUE(tree.Delete(Key(1), 10));
  EXPECT_FALSE(tree.Delete(Key(1), 10));  // already gone
  EXPECT_EQ(tree.num_entries(), 1u);
  const auto rids = tree.PrefixLookup(Key(1));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 11u);
}

TEST(BTree, DeleteThenReinsertStaysScannable) {
  BTree tree(4, 4);
  for (int64_t i = 0; i < 64; ++i) tree.Insert(Key(i), i);
  for (int64_t i = 0; i < 64; ++i) EXPECT_TRUE(tree.Delete(Key(i), i));
  EXPECT_EQ(tree.num_entries(), 0u);
  for (int64_t i = 0; i < 64; ++i) tree.Insert(Key(i), i + 100);
  EXPECT_EQ(tree.num_entries(), 64u);
  size_t count = 0;
  tree.Scan(nullptr, true, nullptr, true, [&](const Row&, RowId) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 64u);
  EXPECT_EQ(tree.ValidateStructure().ToString(), "Ok");
}

TEST(BTree, RangeScanInclusiveExclusive) {
  BTree tree(8, 8);
  for (int64_t i = 0; i < 20; ++i) tree.Insert(Key(i), i);
  std::vector<RowId> rids;
  Row lo = Key(5), hi = Key(10);
  tree.Scan(&lo, true, &hi, true, [&](const Row&, RowId rid) {
    rids.push_back(rid);
    return true;
  });
  ASSERT_EQ(rids.size(), 6u);
  EXPECT_EQ(rids.front(), 5u);
  EXPECT_EQ(rids.back(), 10u);

  rids.clear();
  tree.Scan(&lo, false, &hi, false, [&](const Row&, RowId rid) {
    rids.push_back(rid);
    return true;
  });
  ASSERT_EQ(rids.size(), 4u);
  EXPECT_EQ(rids.front(), 6u);
  EXPECT_EQ(rids.back(), 9u);
}

TEST(BTree, UnboundedScansAndEarlyStop) {
  BTree tree(8, 8);
  for (int64_t i = 0; i < 30; ++i) tree.Insert(Key(i), i);
  size_t count = 0;
  tree.Scan(nullptr, true, nullptr, true, [&](const Row&, RowId) {
    ++count;
    return count < 10;  // early stop
  });
  EXPECT_EQ(count, 10u);

  Row lo = Key(25);
  count = 0;
  tree.Scan(&lo, true, nullptr, true, [&](const Row&, RowId) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 5u);
}

TEST(BTree, CompositeKeyPrefixScan) {
  BTree tree(8, 8);
  for (int64_t a = 0; a < 10; ++a) {
    for (int64_t b = 0; b < 10; ++b) {
      tree.Insert(Key2(a, b), a * 10 + b);
    }
  }
  // Prefix lookup on the first column only.
  const auto rids = tree.PrefixLookup(Key(4));
  ASSERT_EQ(rids.size(), 10u);
  for (RowId rid : rids) EXPECT_EQ(rid / 10, 4u);

  // Full composite lookup.
  const auto one = tree.PrefixLookup(Key2(4, 7));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 47u);

  // Range on the second column under an equality prefix.
  Row lo = Key2(4, 3), hi = Key2(4, 5);
  std::vector<RowId> range;
  tree.Scan(&lo, true, &hi, true, [&](const Row&, RowId rid) {
    range.push_back(rid);
    return true;
  });
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0], 43u);
  EXPECT_EQ(range[2], 45u);
}

TEST(BTree, PagesTouchedAccounting) {
  BTree tree(16, 16);
  for (int64_t i = 0; i < 2000; ++i) tree.Insert(Key(i), i);
  size_t pages_point = 0;
  tree.PrefixLookup(Key(1234), &pages_point);
  EXPECT_GE(pages_point, tree.height());
  EXPECT_LE(pages_point, tree.height() + 2);

  size_t pages_scan = 0;
  Row lo = Key(0), hi = Key(1999);
  tree.Scan(&lo, true, &hi, true,
            [](const Row&, RowId) { return true; }, &pages_scan);
  EXPECT_GT(pages_scan, 100u);  // touches every leaf
}

TEST(BTree, StringKeys) {
  BTree tree(8, 8);
  tree.Insert({Value("banana")}, 1);
  tree.Insert({Value("apple")}, 2);
  tree.Insert({Value("cherry")}, 3);
  std::vector<RowId> order;
  tree.Scan(nullptr, true, nullptr, true, [&](const Row&, RowId rid) {
    order.push_back(rid);
    return true;
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // apple
  EXPECT_EQ(order[1], 1u);  // banana
  EXPECT_EQ(order[2], 3u);  // cherry
}

// --- Scan bounds against a brute-force filter ---

// Entries of a sorted (key, rid) list that satisfy Scan's bounds, in order.
std::vector<std::pair<Row, RowId>> BruteForceScan(
    const std::vector<std::pair<Row, RowId>>& sorted, const Row* lo,
    bool lo_inclusive, const Row* hi, bool hi_inclusive) {
  std::vector<std::pair<Row, RowId>> out;
  for (const auto& [key, rid] : sorted) {
    if (lo != nullptr) {
      const int c = CompareRowPrefix(key, *lo, lo->size());
      if (c < 0 || (c == 0 && !lo_inclusive)) continue;
    }
    if (hi != nullptr) {
      const int c = CompareRowPrefix(key, *hi, hi->size());
      if (c > 0 || (c == 0 && !hi_inclusive)) continue;
    }
    out.emplace_back(key, rid);
  }
  return out;
}

std::vector<std::pair<Row, RowId>> TreeScan(const BTree& tree, const Row* lo,
                                            bool lo_inclusive, const Row* hi,
                                            bool hi_inclusive) {
  std::vector<std::pair<Row, RowId>> out;
  tree.Scan(lo, lo_inclusive, hi, hi_inclusive, [&](const Row& k, RowId rid) {
    out.emplace_back(k, rid);
    return true;
  });
  return out;
}

// Two-column keys over a handful of values, so every key has many
// duplicates spread over several 4-entry leaves; some entries are deleted
// again, leaving sparse and empty leaves in the chain. Every combination
// of absent, inclusive and exclusive bounds, on one-column prefixes and
// full keys (inside and outside the key range), must return exactly the
// brute-force selection, in order.
TEST(BTree, ScanBoundsMatchBruteForceWithHeavyDuplicates) {
  BTree tree(4, 4);
  Random rng(17);
  std::vector<std::pair<Row, RowId>> entries;
  for (RowId rid = 0; rid < 400; ++rid) {
    Row key = Key2(static_cast<int64_t>(rng.Uniform(5)),
                   static_cast<int64_t>(rng.Uniform(3)));
    tree.Insert(key, rid);
    entries.emplace_back(std::move(key), rid);
  }
  std::vector<std::pair<Row, RowId>> kept;
  for (const auto& [key, rid] : entries) {
    if (rid % 7 == 3) {
      ASSERT_TRUE(tree.Delete(key, rid));
    } else {
      kept.emplace_back(key, rid);
    }
  }
  std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
    const int c = CompareRows(a.first, b.first);
    return c != 0 ? c < 0 : a.second < b.second;
  });
  ASSERT_EQ(tree.ValidateStructure().ToString(), "Ok");

  struct Bound {
    std::optional<Row> key;
    bool inclusive = true;
  };
  std::vector<Bound> bounds = {{std::nullopt, true}};
  for (int64_t a = -1; a <= 5; ++a) {
    for (bool inclusive : {true, false}) {
      bounds.push_back({Key(a), inclusive});
      for (int64_t b = -1; b <= 3; ++b) {
        bounds.push_back({Key2(a, b), inclusive});
      }
    }
  }
  for (const Bound& lo : bounds) {
    for (const Bound& hi : bounds) {
      const Row* lo_key = lo.key ? &*lo.key : nullptr;
      const Row* hi_key = hi.key ? &*hi.key : nullptr;
      ASSERT_EQ(TreeScan(tree, lo_key, lo.inclusive, hi_key, hi.inclusive),
                BruteForceScan(kept, lo_key, lo.inclusive, hi_key,
                               hi.inclusive))
          << "lo " << (lo_key ? lo_key->size() : 0) << " cols "
          << (lo.inclusive ? "incl" : "excl") << ", hi "
          << (hi_key ? hi_key->size() : 0) << " cols "
          << (hi.inclusive ? "incl" : "excl");
    }
  }
}

// x > 5 where the 5s fill more than one leaf: the descent lands on the
// leftmost leaf holding a 5, and the leaves after it start with more 5s
// that the scan must still skip.
TEST(BTree, ExclusiveLowerBoundSkipsDuplicatesPastTheFirstLeaf) {
  BTree tree(4, 4);
  RowId rid = 0;
  for (int64_t v = 0; v < 10; ++v) {
    const int copies = v == 5 ? 13 : 2;
    for (int i = 0; i < copies; ++i) tree.Insert(Key(v), rid++);
  }
  size_t fives_pages = 0;
  ASSERT_EQ(tree.PrefixLookup(Key(5), &fives_pages).size(), 13u);
  ASSERT_GE(fives_pages, tree.height() + 2) << "the 5s fit in one leaf";

  const Row five = Key(5);
  std::vector<int64_t> seen;
  tree.Scan(&five, false, nullptr, true, [&](const Row& k, RowId) {
    seen.push_back(k[0].AsInt());
    return true;
  });
  ASSERT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen.front(), 6);
  EXPECT_EQ(seen.back(), 9);
}

// --- Differential property test against std::multimap ---

struct RefKey {
  Row key;
  RowId rid;
  bool operator<(const RefKey& o) const {
    const int c = CompareRows(key, o.key);
    if (c != 0) return c < 0;
    return rid < o.rid;
  }
};

class BTreeDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BTreeDifferential, MatchesReferenceModel) {
  const int seed = GetParam();
  Random rng(seed);
  BTree tree(6, 6);  // small capacities force deep trees
  std::map<RefKey, int> reference;

  for (int op = 0; op < 4000; ++op) {
    const int64_t a = rng.UniformInt(0, 40);
    const int64_t b = rng.UniformInt(0, 40);
    const Row key = Key2(a, b);
    const RowId rid = rng.Uniform(50);
    if (rng.Bernoulli(0.65)) {
      if (reference.count({key, rid}) == 0) {
        tree.Insert(key, rid);
        reference[{key, rid}] = 1;
      }
    } else {
      const bool tree_had = tree.Delete(key, rid);
      const bool ref_had = reference.erase({key, rid}) > 0;
      EXPECT_EQ(tree_had, ref_had) << "op " << op;
    }
  }
  EXPECT_EQ(tree.num_entries(), reference.size());
  ASSERT_EQ(tree.ValidateStructure().ToString(), "Ok");

  // Full scans agree in order and content.
  std::vector<RefKey> scanned;
  tree.Scan(nullptr, true, nullptr, true, [&](const Row& k, RowId rid) {
    scanned.push_back({k, rid});
    return true;
  });
  ASSERT_EQ(scanned.size(), reference.size());
  size_t i = 0;
  for (const auto& [ref_key, _] : reference) {
    EXPECT_EQ(CompareRows(scanned[i].key, ref_key.key), 0) << "pos " << i;
    EXPECT_EQ(scanned[i].rid, ref_key.rid) << "pos " << i;
    ++i;
  }

  // Random prefix lookups agree with the model.
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t a = rng.UniformInt(0, 40);
    const auto rids = tree.PrefixLookup(Key(a));
    size_t expected = 0;
    for (const auto& [rk, _] : reference) {
      if (rk.key[0].AsInt() == a) ++expected;
    }
    EXPECT_EQ(rids.size(), expected) << "prefix " << a;
  }

  // Random range scans agree with the model.
  for (int trial = 0; trial < 50; ++trial) {
    int64_t lo_v = rng.UniformInt(0, 40), hi_v = rng.UniformInt(0, 40);
    if (lo_v > hi_v) std::swap(lo_v, hi_v);
    Row lo = Key(lo_v), hi = Key(hi_v);
    size_t got = 0;
    tree.Scan(&lo, true, &hi, true, [&](const Row&, RowId) {
      ++got;
      return true;
    });
    size_t expected = 0;
    for (const auto& [rk, _] : reference) {
      const int64_t v = rk.key[0].AsInt();
      if (v >= lo_v && v <= hi_v) ++expected;
    }
    EXPECT_EQ(got, expected) << "range [" << lo_v << "," << hi_v << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Full-stack closing check: after a mutation-heavy SQL workload over real
// indexes, every structural validator in src/check/ must pass.
TEST(BTree, CheckAllAfterMutationHeavyWorkload) {
  Database db;
  auto created = db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                             {"b", ValueType::kInt},
                                             {"c", ValueType::kInt}}));
  ASSERT_TRUE(created.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(i % 50)),
                    Value(int64_t(i % 11))});
  }
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());
  ASSERT_TRUE(db.CreateIndex(IndexDef("t", {"a"})).ok());
  ASSERT_TRUE(db.CreateIndex(IndexDef("t", {"b", "c"})).ok());
  Random rng(17);
  for (int i = 0; i < 300; ++i) {
    const int64_t v = rng.UniformInt(0, 3999);
    switch (rng.Uniform(3)) {
      case 0:
        ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" +
                               std::to_string(10000 + i) + ", 1, 2)")
                        .ok());
        break;
      case 1:
        ASSERT_TRUE(db.Execute("DELETE FROM t WHERE a = " +
                               std::to_string(v))
                        .ok());
        break;
      default:
        ASSERT_TRUE(db.Execute("UPDATE t SET b = 7 WHERE a = " +
                               std::to_string(v))
                        .ok());
        break;
    }
  }
  const CheckReport report = CheckAll(db);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.structures_checked(), 0u);
}

}  // namespace
}  // namespace autoindex
