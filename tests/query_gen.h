// Shared test infrastructure for query-level property tests: a naive
// reference SELECT evaluator (cartesian product + filter + aggregate, no
// planner, no indexes), a canonical multiset rendering for result
// comparison, and a deterministic random query generator over the
// standard two-table property-test schema (t1(a,b,c,s), t2(x,y)).
//
// Used by query_property_test.cc (executor vs reference, with and without
// indexes) and pipeline_property_test.cc (physical-operator pipeline vs
// reference, plus counter-consistency checks).

#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "util/random.h"
#include "util/string_util.h"

namespace autoindex {
namespace querygen {

// Resolves column references against one bound tuple of the cartesian
// product, mirroring the executor's qualifier rules (alias or table name).
class BoundRowResolver : public ColumnResolver {
 public:
  BoundRowResolver(const Catalog& catalog,
                   const std::vector<TableRef>& refs,
                   const std::vector<const Row*>& rows)
      : catalog_(catalog), refs_(refs), rows_(rows) {}

  bool Resolve(const ColumnRef& col, Value* out) const override {
    for (size_t i = 0; i < refs_.size(); ++i) {
      if (!col.table.empty() && col.table != refs_[i].alias &&
          col.table != refs_[i].table) {
        continue;
      }
      const HeapTable* t = catalog_.GetTable(refs_[i].table);
      if (t == nullptr) continue;
      const int ord = t->schema().FindColumn(col.column);
      if (ord < 0) continue;
      *out = (*rows_[i])[static_cast<size_t>(ord)];
      return true;
    }
    return false;
  }

 private:
  const Catalog& catalog_;
  const std::vector<TableRef>& refs_;
  const std::vector<const Row*>& rows_;
};

// Evaluates a SELECT by brute force. Supports the same feature set as the
// real executor (joins via cartesian + filter, aggregation, ORDER BY,
// LIMIT) with completely independent control flow.
inline std::vector<Row> ReferenceSelect(const Database& db,
                                        const SelectStatement& stmt) {
  std::vector<const HeapTable*> tables;
  for (const TableRef& ref : stmt.from) {
    tables.push_back(db.catalog().GetTable(ref.table));
  }
  // Materialize live rows per table.
  std::vector<std::vector<const Row*>> rows_per_table(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    tables[i]->Scan([&](RowId, const Row& row) {
      rows_per_table[i].push_back(&row);
    });
  }
  // Cartesian product with filtering.
  std::vector<std::vector<const Row*>> matches;
  std::vector<const Row*> current(tables.size());
  std::function<void(size_t)> rec = [&](size_t level) {
    if (level == tables.size()) {
      BoundRowResolver resolver(db.catalog(), stmt.from, current);
      if (stmt.where == nullptr ||
          EvaluatePredicate(*stmt.where, resolver)) {
        matches.push_back(current);
      }
      return;
    }
    for (const Row* row : rows_per_table[level]) {
      current[level] = row;
      rec(level + 1);
    }
  };
  rec(0);

  auto project = [&](const std::vector<const Row*>& tuple,
                     const ColumnRef& col) {
    BoundRowResolver resolver(db.catalog(), stmt.from, tuple);
    Value v;
    return resolver.Resolve(col, &v) ? v : Value::Null();
  };

  const bool has_agg = std::any_of(
      stmt.items.begin(), stmt.items.end(),
      [](const SelectItem& it) { return it.agg != AggFunc::kNone; });

  std::vector<Row> out;
  if (!has_agg && stmt.group_by.empty()) {
    if (!stmt.order_by.empty()) {
      std::stable_sort(matches.begin(), matches.end(),
                       [&](const auto& a, const auto& b) {
                         for (const OrderByItem& o : stmt.order_by) {
                           const int c =
                               project(a, o.column).Compare(project(b, o.column));
                           if (c != 0) return o.desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
    }
    for (const auto& tuple : matches) {
      if (stmt.limit >= 0 &&
          out.size() >= static_cast<size_t>(stmt.limit)) {
        break;
      }
      Row row;
      for (const SelectItem& item : stmt.items) {
        if (item.star) {
          for (size_t i = 0; i < tuple.size(); ++i) {
            for (const Value& v : *tuple[i]) row.push_back(v);
          }
        } else {
          row.push_back(project(tuple, item.column));
        }
      }
      out.push_back(std::move(row));
    }
    return out;
  }

  // Aggregation path.
  struct Group {
    Row key;
    std::vector<std::vector<Value>> values;  // per item, non-null inputs
    size_t count = 0;
  };
  std::map<std::string, Group> groups;  // key rendered to string
  for (const auto& tuple : matches) {
    Row key;
    for (const ColumnRef& g : stmt.group_by) {
      key.push_back(project(tuple, g));
    }
    std::string skey;
    for (const Value& v : key) skey += v.ToString() + "\x01";
    Group& group = groups[skey];
    if (group.count == 0) {
      group.key = key;
      group.values.resize(stmt.items.size());
    }
    ++group.count;
    for (size_t k = 0; k < stmt.items.size(); ++k) {
      const SelectItem& item = stmt.items[k];
      if (item.agg == AggFunc::kNone || item.star) continue;
      const Value v = project(tuple, item.column);
      if (!v.is_null()) group.values[k].push_back(v);
    }
  }
  if (groups.empty() && stmt.group_by.empty()) {
    Group& g = groups[""];
    g.values.resize(stmt.items.size());
  }
  for (auto& [_, group] : groups) {
    Row row;
    for (size_t k = 0; k < stmt.items.size(); ++k) {
      const SelectItem& item = stmt.items[k];
      const std::vector<Value>& vals = group.values[k];
      switch (item.agg) {
        case AggFunc::kNone: {
          bool found = false;
          for (size_t g = 0; g < stmt.group_by.size(); ++g) {
            if (stmt.group_by[g].column == item.column.column) {
              row.push_back(group.key[g]);
              found = true;
              break;
            }
          }
          if (!found) row.push_back(Value::Null());
          break;
        }
        case AggFunc::kCount:
          row.push_back(Value(static_cast<int64_t>(
              item.star ? group.count : vals.size())));
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          if (vals.empty()) {
            row.push_back(Value::Null());
            break;
          }
          // Mirrors HashAggregateOp: SUM/AVG over non-numeric (string)
          // input is NULL, never a silent 0.0 contribution.
          const bool non_numeric = std::any_of(
              vals.begin(), vals.end(), [](const Value& v) {
                return v.type() == ValueType::kString;
              });
          if (non_numeric) {
            row.push_back(Value::Null());
            break;
          }
          double sum = 0;
          for (const Value& v : vals) sum += v.AsDouble();
          row.push_back(item.agg == AggFunc::kSum
                            ? Value(sum)
                            : Value(sum / vals.size()));
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax: {
          if (vals.empty()) {
            row.push_back(Value::Null());
            break;
          }
          Value best = vals[0];
          for (const Value& v : vals) {
            const int c = v.Compare(best);
            if ((item.agg == AggFunc::kMin && c < 0) ||
                (item.agg == AggFunc::kMax && c > 0)) {
              best = v;
            }
          }
          row.push_back(best);
          break;
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

// Canonical rendering of a result multiset for comparison.
inline std::string Canonical(std::vector<Row> rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      if (v.type() == ValueType::kDouble) {
        line += StrFormat("%.6f|", v.AsDouble());
      } else {
        line += v.ToString() + "|";
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return Join(lines, "\n");
}

// Deterministic random query generator over t1(a,b,c,s) / t2(x,y).
struct GenContext {
  Random rng;
  explicit GenContext(uint64_t seed) : rng(seed) {}

  std::string RandColumn(bool table2) {
    static const char* t1_cols[] = {"a", "b", "c", "s"};
    static const char* t2_cols[] = {"x", "y"};
    return table2 ? t2_cols[rng.Uniform(2)] : t1_cols[rng.Uniform(4)];
  }

  std::string RandAtom(bool table2) {
    const std::string col = RandColumn(table2);
    if (col == "s") {
      static const char* ops[] = {"=", "<>"};
      return StrFormat("s %s 'v%d'", ops[rng.Uniform(2)],
                       static_cast<int>(rng.Uniform(6)));
    }
    const int pick = static_cast<int>(rng.Uniform(10));
    const int v = static_cast<int>(rng.Uniform(40));
    if (pick < 4) {
      static const char* ops[] = {"=", "<", ">", "<=", ">=", "<>"};
      return StrFormat("%s %s %d", col.c_str(), ops[rng.Uniform(6)], v);
    }
    if (pick < 6) {
      return StrFormat("%s BETWEEN %d AND %d", col.c_str(), v,
                       v + static_cast<int>(rng.Uniform(12)));
    }
    if (pick < 8) {
      return StrFormat("%s IN (%d, %d, %d)", col.c_str(), v,
                       (v + 3) % 40, (v + 11) % 40);
    }
    return StrFormat("NOT (%s = %d)", col.c_str(), v);
  }

  std::string RandExpr(int depth, bool table2) {
    if (depth == 0 || rng.Bernoulli(0.45)) return RandAtom(table2);
    const std::string lhs = RandExpr(depth - 1, table2);
    const std::string rhs = RandExpr(depth - 1, table2);
    const char* op = rng.Bernoulli(0.5) ? "AND" : "OR";
    return "(" + lhs + " " + op + " " + rhs + ")";
  }

  std::string RandQuery() {
    const bool join = rng.Bernoulli(0.3);
    std::string sql;
    const int kind = static_cast<int>(rng.Uniform(10));
    if (join) {
      if (rng.Bernoulli(0.5)) {
        // No index leads with t1.c or t2.y, so the join is a HashJoin
        // unless t1's range takes an index. The t1 filter keeps about 60
        // rows, as many as t2 holds, so whichever side turns out smaller
        // at run time gets hashed: t1's or t2's. t1.c holds NULLs, which
        // never match.
        const int v = static_cast<int>(rng.Uniform(35));
        return StrFormat(
            "SELECT t1.a, t1.c, t2.x FROM t1, t2 WHERE t1.c = t2.y AND "
            "t1.a BETWEEN %d AND %d",
            v, v + 5);
      }
      sql = "SELECT t1.a, t2.y FROM t1, t2 WHERE t1.b = t2.x";
      if (rng.Bernoulli(0.7)) sql += " AND " + RandExpr(1, false);
      return sql;
    }
    if (kind < 5) {
      sql = "SELECT a, b, c FROM t1 WHERE " + RandExpr(2, false);
      if (rng.Bernoulli(0.3)) sql += " ORDER BY a";
      if (rng.Bernoulli(0.2)) sql += " LIMIT 7";
    } else if (kind < 7) {
      sql = "SELECT b, COUNT(*), SUM(a), MIN(c), MAX(a) FROM t1 WHERE " +
            RandExpr(2, false) + " GROUP BY b";
    } else if (kind < 8) {
      // Aggregates over the string column: SUM/AVG must be NULL, MIN/MAX
      // and COUNT operate normally (regression for the silent-0.0 bug).
      sql = "SELECT b, COUNT(s), SUM(s), AVG(s), MIN(s), MAX(s) FROM t1 "
            "WHERE " + RandExpr(2, false) + " GROUP BY b";
    } else {
      sql = "SELECT COUNT(*), AVG(a) FROM t1 WHERE " + RandExpr(2, false);
    }
    return sql;
  }
};

// Creates and populates the canonical property-test schema on `db`:
// t1(a,b,c,s) with 400 rows (ints in [0,40), ~5% null c, s in 'v0'..'v5')
// and t2(x,y) with 60 rows, then runs ANALYZE. Data is a pure function of
// `seed`.
inline void BuildPropertyTestTables(Database* db, uint64_t seed) {
  CheckOk(db->CreateTable("t1", Schema({{"a", ValueType::kInt},
                                        {"b", ValueType::kInt},
                                        {"c", ValueType::kInt},
                                        {"s", ValueType::kString}})));
  CheckOk(db->CreateTable("t2", Schema({{"x", ValueType::kInt},
                                        {"y", ValueType::kInt}})));
  Random data_rng(seed * 977 + 13);
  std::vector<Row> t1_rows, t2_rows;
  for (int i = 0; i < 400; ++i) {
    t1_rows.push_back({Value(data_rng.UniformInt(0, 40)),
                       Value(data_rng.UniformInt(0, 40)),
                       data_rng.Bernoulli(0.05)
                           ? Value()
                           : Value(data_rng.UniformInt(0, 40)),
                       Value(StrFormat("v%d",
                                       static_cast<int>(data_rng.Uniform(6))))});
  }
  for (int i = 0; i < 60; ++i) {
    t2_rows.push_back({Value(data_rng.UniformInt(0, 40)),
                       Value(data_rng.UniformInt(0, 40))});
  }
  CheckOk(db->BulkInsert("t1", std::move(t1_rows)));
  CheckOk(db->BulkInsert("t2", std::move(t2_rows)));
  db->Analyze();
}

}  // namespace querygen
}  // namespace autoindex
