// Parser robustness: random token soups and mutated valid queries must
// never crash or hang — only parse or return a clean error status.

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>

#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "util/random.h"

namespace autoindex {
namespace {

const char* kFragments[] = {
    "SELECT", "FROM",   "WHERE", "AND",   "OR",    "NOT",   "INSERT",
    "INTO",   "VALUES", "UPDATE", "SET",  "DELETE", "GROUP", "BY",
    "ORDER",  "LIMIT",  "JOIN",  "ON",    "BETWEEN", "IN",  "IS",
    "NULL",   "LIKE",   "COUNT", "(",     ")",      ",",    ".",
    "*",      "=",      "<",     ">",     "<=",     ">=",   "<>",
    "tbl",    "col_a",  "col_b", "alias", "42",     "3.14", "'text'",
    "''",     "-7",     ";",
};

// Sanitizer builds trade raw speed for instrumentation, which is exactly
// when deeper fuzzing pays off: crank the trial count so ASan/UBSan see a
// much larger input space.
#ifdef AUTOINDEX_SANITIZE_BUILD
constexpr int kTrialsPerSeed = 10000;
#else
constexpr int kTrialsPerSeed = 2000;
#endif

class ParserFuzz : public ::testing::TestWithParam<int> {
 protected:
  // Seeds are pure functions of the test parameter — every run is
  // reproducible. Print the derived seed so a failure message alone is
  // enough to replay the exact trial stream.
  static Random SeededRng(uint64_t seed) {
    std::cout << "[fuzz] seed=" << seed << " trials=" << kTrialsPerSeed
              << "\n";
    return Random(seed);
  }
};

TEST_P(ParserFuzz, RandomTokenSoupNeverCrashes) {
  Random rng = SeededRng(GetParam() * 7919 + 3);
  for (int trial = 0; trial < kTrialsPerSeed; ++trial) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.Uniform(25));
    for (int i = 0; i < len; ++i) {
      sql += kFragments[rng.Uniform(sizeof(kFragments) /
                                    sizeof(kFragments[0]))];
      sql += " ";
    }
    // Must terminate and either succeed or produce a clean error.
    auto result = ParseSql(sql);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().ok());
    }
    // Fingerprinting must also be total.
    FingerprintSql(sql);
  }
}

TEST_P(ParserFuzz, MutatedValidQueriesNeverCrash) {
  Random rng = SeededRng(GetParam() * 104729 + 1);
  const std::string base =
      "SELECT a, COUNT(*) FROM t1 JOIN t2 ON t1.x = t2.y WHERE a = 5 AND "
      "(b > 3 OR c IN (1, 2)) GROUP BY a ORDER BY a DESC LIMIT 10";
  for (int trial = 0; trial < kTrialsPerSeed; ++trial) {
    std::string sql = base;
    // Random single-character mutations: deletions, swaps, injections.
    const int edits = 1 + static_cast<int>(rng.Uniform(6));
    for (int e = 0; e < edits && !sql.empty(); ++e) {
      const size_t pos = rng.Uniform(sql.size());
      switch (rng.Uniform(3)) {
        case 0:
          sql.erase(pos, 1);
          break;
        case 1:
          sql[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        default:
          sql.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
          break;
      }
    }
    (void)ParseSql(sql);  // must not crash
    FingerprintSql(sql);  // must not crash
  }
}

TEST(ParserFuzzEdge, PathologicalInputs) {
  // Deep nesting must not blow the stack (parser recursion is bounded by
  // input length; keep it large but sane).
  std::string deep = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "a = 1";
  for (int i = 0; i < 200; ++i) deep += ")";
  EXPECT_TRUE(ParseSql(deep).ok());

  EXPECT_FALSE(ParseSql(std::string(10000, '(')).ok());
  EXPECT_FALSE(ParseSql(std::string(10000, ' ')).ok());
  EXPECT_FALSE(ParseSql("SELECT " + std::string(5000, 'a') + " FROM").ok());
  // A very long IN list parses fine.
  std::string in_list = "SELECT a FROM t WHERE b IN (0";
  for (int i = 1; i < 2000; ++i) in_list += ", " + std::to_string(i);
  in_list += ")";
  EXPECT_TRUE(ParseSql(in_list).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace autoindex
