#pragma once

#include <string>
#include <vector>

#include "storage/schema.h"

namespace autoindex {

// Physical layout of an index over a hash-partitioned table (Sec. III
// "index type selection for the data partitioning scenarios"):
//  - kGlobal: one tree over the whole table; fastest lookups regardless of
//    the partition key, but entries carry a partition pointer (wider keys,
//    more space).
//  - kLocal: one tree per partition; smaller in total and cheaper to
//    maintain, but a lookup that does not bind the partition column must
//    probe every partition's tree.
// On unpartitioned tables both kinds collapse to a single tree.
enum class IndexKind { kGlobal, kLocal };

// The logical identity of a (possibly multi-column) B+Tree index: table +
// ordered column list (+ physical kind for partitioned tables). The column
// order matters (leftmost-prefix rule).
struct IndexDef {
  std::string name;  // empty = derive from table/columns
  std::string table;
  std::vector<std::string> columns;
  IndexKind kind = IndexKind::kGlobal;

  IndexDef() = default;
  IndexDef(std::string t, std::vector<std::string> cols);
  IndexDef(std::string t, std::vector<std::string> cols, IndexKind k);
  IndexDef(std::string n, std::string t, std::vector<std::string> cols);

  // Canonical key "table(c1,c2,...)" (plus "@local") — equality of
  // definitions.
  std::string Key() const;

  // "idx_<table>_<c1>_<c2>[_local]" when no explicit name was given.
  std::string DisplayName() const;

  bool operator==(const IndexDef& other) const {
    return table == other.table && columns == other.columns &&
           kind == other.kind;
  }

  // True when this index's columns are a leftmost prefix of `other`'s
  // (same table). An index that is a strict prefix of another is redundant
  // (Sec. IV-A step 3).
  bool IsPrefixOf(const IndexDef& other) const;

  // Estimated byte width of one key under the table schema.
  size_t KeyWidth(const Schema& schema) const;
};

// Estimated size in bytes of a B+Tree over `num_rows` keys of width
// `key_width` (leaf pages + ~1% internal overhead), page-granular.
size_t EstimateIndexBytes(size_t num_rows, size_t key_width);

// Estimated tree height for the same parameters (>= 1).
size_t EstimateIndexHeight(size_t num_rows, size_t key_width);

// Entries that fit one leaf page for the given key width.
size_t LeafCapacityForWidth(size_t key_width);

}  // namespace autoindex
