#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"

namespace wallbench {

using autoindex::Database;
using autoindex::Row;

// Order-insensitive fingerprint of one table's live rows: equal for any
// two tables holding the same multiset of rows, whatever their slot order.
struct TableDigest {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const TableDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

// Digest of every table. The database must be quiescent.
std::map<std::string, TableDigest> DigestTables(const Database& db);

// Compares two digest maps; on a mismatch fills `why` with the first
// differing table.
bool SameDigests(const std::map<std::string, TableDigest>& expected,
                 const std::map<std::string, TableDigest>& actual,
                 std::string* why);

// True when `actual` and `expected` hold the same multiset of rows.
// Doubles compare with a relative tolerance of 1e-9, because aggregates
// summed in a different order (index scan vs heap scan) may differ in the
// last bits. On a mismatch fills `why`.
bool SameRowMultiset(std::vector<Row> expected, std::vector<Row> actual,
                     std::string* why);

// Runs every CheckAll validator; returns "" when clean, else the report.
std::string StructuralIssues(const Database& db);

// How often `key` occurs in column `column` of `rows`.
size_t CountKey(const std::vector<Row>& rows, size_t column, int64_t key);

}  // namespace wallbench
