#include "harness/checks.h"

#include <algorithm>
#include <cmath>

#include "check/validator.h"
#include "storage/catalog.h"

namespace wallbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool ValuesClose(const autoindex::Value& a, const autoindex::Value& b) {
  using autoindex::ValueType;
  if (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble) {
    if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
    if (a.type() == ValueType::kString || b.type() == ValueType::kString) {
      return false;
    }
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

bool RowsClose(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesClose(a[i], b[i])) return false;
  }
  return true;
}

std::string RenderRow(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace

std::map<std::string, TableDigest> DigestTables(const Database& db) {
  std::map<std::string, TableDigest> out;
  for (const std::string& name : db.catalog().TableNames()) {
    const autoindex::HeapTable* table = db.catalog().GetTable(name);
    TableDigest digest;
    table->Scan([&digest](autoindex::RowId, const Row& row) {
      ++digest.rows;
      digest.hash += Mix(autoindex::HashRow(row));
    });
    out[name] = digest;
  }
  return out;
}

bool SameDigests(const std::map<std::string, TableDigest>& expected,
                 const std::map<std::string, TableDigest>& actual,
                 std::string* why) {
  if (expected.size() != actual.size()) {
    *why = "table count differs";
    return false;
  }
  for (const auto& [name, digest] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end()) {
      *why = "table " + name + " missing";
      return false;
    }
    if (!(it->second == digest)) {
      *why = "table " + name + ": expected " + std::to_string(digest.rows) +
             " rows, got " + std::to_string(it->second.rows) +
             (digest.rows == it->second.rows ? " (contents differ)" : "");
      return false;
    }
  }
  return true;
}

bool SameRowMultiset(std::vector<Row> expected, std::vector<Row> actual,
                     std::string* why) {
  if (expected.size() != actual.size()) {
    *why = "row count " + std::to_string(actual.size()) + ", expected " +
           std::to_string(expected.size());
    return false;
  }
  const auto less = [](const Row& a, const Row& b) {
    return autoindex::CompareRows(a, b) < 0;
  };
  std::sort(expected.begin(), expected.end(), less);
  std::sort(actual.begin(), actual.end(), less);
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!RowsClose(expected[i], actual[i])) {
      *why = "row " + RenderRow(actual[i]) + ", expected " +
             RenderRow(expected[i]);
      return false;
    }
  }
  return true;
}

std::string StructuralIssues(const Database& db) {
  const autoindex::CheckReport report = autoindex::CheckAll(db);
  return report.ok() ? std::string() : report.ToString();
}

size_t CountKey(const std::vector<Row>& rows, size_t column, int64_t key) {
  size_t n = 0;
  for (const Row& row : rows) {
    if (column < row.size() && row[column].type() == autoindex::ValueType::kInt &&
        row[column].AsInt() == key) {
      ++n;
    }
  }
  return n;
}

}  // namespace wallbench
