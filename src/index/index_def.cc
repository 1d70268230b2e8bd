#include "index/index_def.h"

#include <algorithm>
#include <cmath>

#include "storage/table.h"
#include "util/string_util.h"

namespace autoindex {

IndexDef::IndexDef(std::string t, std::vector<std::string> cols)
    : table(ToLower(t)), columns() {
  columns.reserve(cols.size());
  for (std::string& c : cols) columns.push_back(ToLower(c));
}

IndexDef::IndexDef(std::string t, std::vector<std::string> cols, IndexKind k)
    : IndexDef(std::move(t), std::move(cols)) {
  kind = k;
}

IndexDef::IndexDef(std::string n, std::string t, std::vector<std::string> cols)
    : IndexDef(std::move(t), std::move(cols)) {
  name = std::move(n);
}

std::string IndexDef::Key() const {
  std::string key = table + "(" + Join(columns, ",") + ")";
  if (kind == IndexKind::kLocal) key += "@local";
  return key;
}

std::string IndexDef::DisplayName() const {
  if (!name.empty()) return name;
  std::string out = "idx_" + table + "_" + Join(columns, "_");
  if (kind == IndexKind::kLocal) out += "_local";
  return out;
}

bool IndexDef::IsPrefixOf(const IndexDef& other) const {
  if (table != other.table) return false;
  if (columns.size() > other.columns.size()) return false;
  return std::equal(columns.begin(), columns.end(), other.columns.begin());
}

size_t IndexDef::KeyWidth(const Schema& schema) const {
  size_t width = 0;
  for (const std::string& col : columns) {
    const int i = schema.FindColumn(col);
    width += (i >= 0) ? schema.column(static_cast<size_t>(i)).avg_width : 8;
  }
  return width;
}

size_t LeafCapacityForWidth(size_t key_width) {
  // Key plus RowId payload and per-entry slot overhead.
  const size_t entry_bytes = key_width + 12;
  const size_t cap = kPageSizeBytes / std::max<size_t>(1, entry_bytes);
  return std::max<size_t>(4, cap);
}

size_t EstimateIndexBytes(size_t num_rows, size_t key_width) {
  if (num_rows == 0) return kPageSizeBytes;  // empty tree = one page
  const size_t per_leaf = LeafCapacityForWidth(key_width);
  // Leaves average ~70% full after random inserts.
  const double fill = 0.70;
  const size_t leaves = static_cast<size_t>(
      std::ceil(static_cast<double>(num_rows) / (per_leaf * fill)));
  const size_t internal = std::max<size_t>(1, leaves / per_leaf + 1);
  return (leaves + internal) * kPageSizeBytes;
}

size_t EstimateIndexHeight(size_t num_rows, size_t key_width) {
  if (num_rows == 0) return 1;
  const size_t per_node =
      std::max<size_t>(2, LeafCapacityForWidth(key_width));
  size_t height = 1;
  size_t reach = per_node;
  while (reach < num_rows) {
    reach *= per_node;
    ++height;
  }
  return height;
}

}  // namespace autoindex
