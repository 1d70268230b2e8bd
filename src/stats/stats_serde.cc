// Snapshot serialization for the statistics subsystem (kept out of the
// estimation translation units so the selectivity math stays free of
// persistence concerns).
#include <algorithm>
#include <map>

#include "persist/serde.h"
#include "stats/column_stats.h"
#include "stats/stats_manager.h"

namespace autoindex {

void ColumnStats::Save(persist::Writer* w) const {
  w->PutU64(num_rows_);
  w->PutU64(num_nulls_);
  w->PutU64(num_distinct_);
  w->PutDouble(correlation_);
  persist::PutValue(w, min_);
  persist::PutValue(w, max_);
  w->PutU32(static_cast<uint32_t>(bucket_bounds_.size()));
  for (const Value& v : bucket_bounds_) persist::PutValue(w, v);
}

ColumnStats ColumnStats::Load(persist::Reader* r) {
  ColumnStats stats;
  stats.num_rows_ = r->GetU64();
  stats.num_nulls_ = r->GetU64();
  stats.num_distinct_ = r->GetU64();
  stats.correlation_ = r->GetDouble();
  stats.min_ = persist::GetValue(r);
  stats.max_ = persist::GetValue(r);
  const uint32_t nbounds = r->GetU32();
  stats.bucket_bounds_.reserve(std::min<size_t>(nbounds, r->remaining()));
  for (uint32_t i = 0; i < nbounds && r->ok(); ++i) {
    stats.bucket_bounds_.push_back(persist::GetValue(r));
  }
  return stats;
}

void StatsManager::Save(persist::Writer* w) const {
  util::MutexLock lock(mu_);
  // std::map orders tables and columns, making snapshot bytes stable
  // regardless of hash-map iteration order.
  std::map<std::string, std::map<std::string, const ColumnStats*>> sorted;
  for (const auto& [table, table_stats] : cache_) {
    for (const auto& [column, stats] : table_stats.columns) {
      sorted[table][column] = stats.get();
    }
  }
  w->PutU32(static_cast<uint32_t>(sorted.size()));
  for (const auto& [table, columns] : sorted) {
    w->PutString(table);
    w->PutU32(static_cast<uint32_t>(columns.size()));
    for (const auto& [column, stats] : columns) {
      w->PutString(column);
      stats->Save(w);
    }
  }
}

void StatsManager::Load(persist::Reader* r) {
  util::MutexLock lock(mu_);
  cache_.clear();
  const uint32_t ntables = r->GetU32();
  for (uint32_t i = 0; i < ntables && r->ok(); ++i) {
    const std::string table = r->GetString();
    const uint32_t ncolumns = r->GetU32();
    for (uint32_t j = 0; j < ncolumns && r->ok(); ++j) {
      const std::string column = r->GetString();
      cache_[table].columns[column] =
          std::make_shared<const ColumnStats>(ColumnStats::Load(r));
    }
  }
}

}  // namespace autoindex
