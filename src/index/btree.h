#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "storage/table.h"
#include "storage/value.h"
#include "util/status.h"

namespace autoindex {

// Compares the first `prefix_len` columns only (or fewer if a row is
// shorter). Used for prefix range bounds on multi-column keys.
int CompareRowPrefix(const Row& a, const Row& b, size_t prefix_len);

// An in-memory B+Tree over composite keys with RowId payloads. Duplicated
// keys are allowed (entries are totally ordered by (key, rid)). Nodes model
// fixed-capacity pages so that height / page counts feed the cost model the
// same way a disk-resident tree would.
//
// Deletion is lazy at the structural level: entries are removed from leaves
// but underfull nodes are not merged (the common strategy in production
// B-trees, cf. PostgreSQL nbtree which only reclaims fully-empty pages).
// Fully empty leaves stay linked in the chain — the parent still routes
// inserts to them — and scans skip them for free.
class BTree {
 public:
  // `leaf_capacity` / `internal_capacity` entries per node; computed by the
  // caller from the key byte width so page counts are realistic.
  BTree(size_t leaf_capacity, size_t internal_capacity);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  void Insert(const Row& key, RowId rid);

  // Removes the (key, rid) entry; returns false if absent.
  bool Delete(const Row& key, RowId rid);

  // True if any entry equals `key` exactly (all columns).
  bool Contains(const Row& key) const;

  // Visits entries with lo <= entry (on lo->size() prefix columns) and
  // entry <= hi (on hi->size() prefix columns), in key order. Null bounds
  // are unbounded. `lo_inclusive` / `hi_inclusive` control bound openness.
  // The callback returns false to stop early.
  //
  // *pages_touched (optional) accumulates the number of index pages read:
  // the descent path plus every leaf visited.
  void Scan(const Row* lo, bool lo_inclusive, const Row* hi,
            bool hi_inclusive,
            const std::function<bool(const Row&, RowId)>& fn,
            size_t* pages_touched = nullptr) const;

  // Convenience: all rids whose key starts with `prefix`.
  std::vector<RowId> PrefixLookup(const Row& prefix,
                                  size_t* pages_touched = nullptr) const;

  // Size counters are atomics so the tuning thread can sample them for
  // cost estimation without holding the owning table's latch; structural
  // access (Insert/Delete/Scan/Validate) still requires the latch.
  size_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  // Tree height in levels (1 = a single leaf). 0 when empty.
  size_t height() const { return height_.load(std::memory_order_relaxed); }
  // Total nodes (≈ pages) in the tree.
  size_t num_nodes() const {
    return num_nodes_.load(std::memory_order_relaxed);
  }
  // Page splits performed since construction — an index-churn signal used
  // by the maintenance-cost features.
  size_t num_splits() const {
    return num_splits_.load(std::memory_order_relaxed);
  }

  size_t leaf_capacity() const { return leaf_capacity_; }

  // Deep structural validation with a precise failure message: keys sorted
  // within nodes, child/fanout shape, separator key-range containment,
  // uniform leaf depth, leaf-chain connectivity (next/prev symmetric,
  // covers every leaf in order), node-capacity bounds, and reported
  // height/num_nodes/num_entries matching a fresh walk. Ok() when healthy;
  // Internal with a message naming the first violated invariant otherwise.
  Status ValidateStructure() const;

  // --- Test-only corruption hooks -----------------------------------
  // Used by check_test to prove the validators detect real damage (an
  // always-green checker is worse than none). Never call outside tests.
  // Each returns false when the tree is too small to stage the corruption.
  bool TestOnlyCorruptLeafOrder();   // swaps two entries in a leaf
  bool TestOnlyBreakLeafChain();     // severs one leaf's next pointer
  void TestOnlySetNumEntries(size_t n) { num_entries_ = n; }
  void TestOnlySetHeight(size_t h) { height_ = h; }

 private:
  struct Node;
  struct Entry;

  Node* FindLeaf(const Row& key, RowId rid,
                 std::vector<Node*>* path = nullptr) const;
  void SplitChild(Node* parent, size_t child_idx);
  void InsertNonFull(Node* node, const Row& key, RowId rid);

  std::unique_ptr<Node> root_;
  size_t leaf_capacity_;
  size_t internal_capacity_;
  std::atomic<size_t> num_entries_{0};
  std::atomic<size_t> height_{0};
  std::atomic<size_t> num_nodes_{0};
  std::atomic<size_t> num_splits_{0};
};

}  // namespace autoindex
