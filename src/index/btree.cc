#include "index/btree.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace autoindex {

int CompareRowPrefix(const Row& a, const Row& b, size_t prefix_len) {
  const size_t n = std::min({a.size(), b.size(), prefix_len});
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

struct BTree::Entry {
  Row key;
  RowId rid;
};

struct BTree::Node {
  bool is_leaf = true;
  std::vector<Entry> entries;                   // leaf payload or separators
  std::vector<std::unique_ptr<Node>> children;  // internal only;
                                                // children.size() ==
                                                // entries.size() + 1
  Node* next = nullptr;  // leaf chain
  Node* prev = nullptr;
};

namespace {

// Total order on (key, rid).
int CompareEntry(const Row& a_key, RowId a_rid, const Row& b_key,
                 RowId b_rid) {
  const int c = CompareRows(a_key, b_key);
  if (c != 0) return c;
  if (a_rid < b_rid) return -1;
  if (a_rid > b_rid) return 1;
  return 0;
}

// Index of the first entry of `node` for which `before` is false. Entries
// are sorted on (key, rid), and every search below asks "does this entry
// sort before the target?", so the answers are all true, then all false:
// a binary search finds the same index a linear walk would.
template <typename NodeT, typename Before>
size_t FirstNotBefore(const NodeT& node, Before before) {
  return static_cast<size_t>(
      std::partition_point(node.entries.begin(), node.entries.end(), before) -
      node.entries.begin());
}

// The child of an internal node that routes (key, rid): the first whose
// separator exceeds it.
template <typename NodeT>
size_t ChildFor(const NodeT& node, const Row& key, RowId rid) {
  return FirstNotBefore(node, [&](const auto& e) {
    return CompareEntry(key, rid, e.key, e.rid) >= 0;
  });
}

}  // namespace

BTree::BTree(size_t leaf_capacity, size_t internal_capacity)
    : leaf_capacity_(std::max<size_t>(4, leaf_capacity)),
      internal_capacity_(std::max<size_t>(4, internal_capacity)) {
  root_ = std::make_unique<Node>();
  root_->is_leaf = true;
  num_nodes_ = 1;
  height_ = 1;
}

BTree::~BTree() {
  // Deep trees would overflow the stack with default recursive unique_ptr
  // destruction; flatten iteratively.
  if (!root_) return;
  std::vector<std::unique_ptr<Node>> stack;
  stack.push_back(std::move(root_));
  while (!stack.empty()) {
    std::unique_ptr<Node> node = std::move(stack.back());
    stack.pop_back();
    for (auto& child : node->children) stack.push_back(std::move(child));
  }
}

BTree::Node* BTree::FindLeaf(const Row& key, RowId rid,
                             std::vector<Node*>* path) const {
  Node* node = root_.get();
  while (!node->is_leaf) {
    if (path) path->push_back(node);
    node = node->children[ChildFor(*node, key, rid)].get();
  }
  if (path) path->push_back(node);
  return node;
}

void BTree::SplitChild(Node* parent, size_t child_idx) {
  Node* child = parent->children[child_idx].get();
  auto right = std::make_unique<Node>();
  right->is_leaf = child->is_leaf;
  const size_t mid = child->entries.size() / 2;

  if (child->is_leaf) {
    // Right leaf takes entries [mid, end); separator is right's first key.
    right->entries.assign(std::make_move_iterator(child->entries.begin() + mid),
                          std::make_move_iterator(child->entries.end()));
    child->entries.resize(mid);
    right->next = child->next;
    if (right->next) right->next->prev = right.get();
    right->prev = child;
    child->next = right.get();
    Entry sep;
    sep.key = right->entries.front().key;
    sep.rid = right->entries.front().rid;
    parent->entries.insert(parent->entries.begin() + child_idx,
                           std::move(sep));
  } else {
    // Internal split: the middle separator moves up.
    Entry sep = std::move(child->entries[mid]);
    right->entries.assign(
        std::make_move_iterator(child->entries.begin() + mid + 1),
        std::make_move_iterator(child->entries.end()));
    right->children.assign(
        std::make_move_iterator(child->children.begin() + mid + 1),
        std::make_move_iterator(child->children.end()));
    child->entries.resize(mid);
    child->children.resize(mid + 1);
    parent->entries.insert(parent->entries.begin() + child_idx,
                           std::move(sep));
  }
  parent->children.insert(parent->children.begin() + child_idx + 1,
                          std::move(right));
  ++num_nodes_;
  ++num_splits_;
}

void BTree::InsertNonFull(Node* node, const Row& key, RowId rid) {
  while (!node->is_leaf) {
    size_t i = ChildFor(*node, key, rid);
    Node* child = node->children[i].get();
    const size_t cap = child->is_leaf ? leaf_capacity_ : internal_capacity_;
    if (child->entries.size() >= cap) {
      SplitChild(node, i);
      // Re-decide which side to descend.
      if (CompareEntry(key, rid, node->entries[i].key,
                       node->entries[i].rid) >= 0) {
        ++i;
      }
      child = node->children[i].get();
    }
    node = child;
  }
  auto it = std::lower_bound(
      node->entries.begin(), node->entries.end(), key,
      [&](const Entry& e, const Row& k) {
        return CompareEntry(e.key, e.rid, k, rid) < 0;
      });
  Entry entry;
  entry.key = key;
  entry.rid = rid;
  node->entries.insert(it, std::move(entry));
  ++num_entries_;
}

void BTree::Insert(const Row& key, RowId rid) {
  const size_t root_cap =
      root_->is_leaf ? leaf_capacity_ : internal_capacity_;
  if (root_->entries.size() >= root_cap) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    ++num_nodes_;
    ++height_;
    SplitChild(root_.get(), 0);
  }
  InsertNonFull(root_.get(), key, rid);
}

bool BTree::Delete(const Row& key, RowId rid) {
  Node* leaf = FindLeaf(key, rid);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), key,
      [&](const Entry& e, const Row& k) {
        return CompareEntry(e.key, e.rid, k, rid) < 0;
      });
  if (it == leaf->entries.end() ||
      CompareEntry(it->key, it->rid, key, rid) != 0) {
    return false;
  }
  leaf->entries.erase(it);
  --num_entries_;
  // Empty leaves stay in the chain: the parent still routes inserts to
  // them, so unlinking would orphan future entries. Scans skip them for
  // free (deferred page reclaim, as in PostgreSQL nbtree).
  return true;
}

bool BTree::Contains(const Row& key) const {
  bool found = false;
  Scan(&key, true, &key, true,
       [&](const Row& k, RowId) {
         if (k.size() == key.size()) {
           found = true;
           return false;
         }
         return true;
       });
  return found;
}

void BTree::Scan(const Row* lo, bool lo_inclusive, const Row* hi,
                 bool hi_inclusive,
                 const std::function<bool(const Row&, RowId)>& fn,
                 size_t* pages_touched) const {
  const Node* node = root_.get();
  size_t pages = 1;
  if (lo == nullptr) {
    // Descend to the leftmost leaf.
    while (!node->is_leaf) {
      node = node->children[0].get();
      ++pages;
    }
  } else {
    while (!node->is_leaf) {
      // Descend into the first child that can contain keys >= lo on the
      // prefix. Separator comparison uses the lo prefix length.
      const size_t i = FirstNotBefore(*node, [&](const auto& e) {
        return CompareRowPrefix(e.key, *lo, lo->size()) < 0;
      });
      node = node->children[i].get();
      ++pages;
    }
  }

  // An entry sorts before the lower bound when it is below lo on the
  // prefix, or equal to it and the bound is exclusive.
  auto below_lo = [&](const Entry& e) {
    const int c = CompareRowPrefix(e.key, *lo, lo->size());
    return c < 0 || (c == 0 && !lo_inclusive);
  };
  const Node* leaf = node;
  // Position within the first leaf.
  size_t idx = lo == nullptr ? 0 : FirstNotBefore(*leaf, below_lo);
  // Entries still need the lower-bound check until the first one passes:
  // when every entry of the first leaf sorts before lo, the next leaf may
  // start with more of them. With an exclusive bound (x > 5) the descent
  // lands on the leftmost leaf holding a 5, and 5s can continue into the
  // leaves after it. Once one entry passes, every later one does.
  bool past_lo = lo == nullptr || idx < leaf->entries.size();
  while (leaf != nullptr) {
    for (; idx < leaf->entries.size(); ++idx) {
      const Entry& e = leaf->entries[idx];
      if (!past_lo) {
        if (below_lo(e)) continue;
        past_lo = true;
      }
      if (hi != nullptr) {
        const int c = CompareRowPrefix(e.key, *hi, hi->size());
        if (c > 0 || (c == 0 && !hi_inclusive)) {
          if (pages_touched) *pages_touched += pages;
          return;
        }
      }
      if (!fn(e.key, e.rid)) {
        if (pages_touched) *pages_touched += pages;
        return;
      }
    }
    leaf = leaf->next;
    idx = 0;
    if (leaf != nullptr) ++pages;
  }
  if (pages_touched) *pages_touched += pages;
}

std::vector<RowId> BTree::PrefixLookup(const Row& prefix,
                                       size_t* pages_touched) const {
  std::vector<RowId> rids;
  Scan(&prefix, true, &prefix, true,
       [&](const Row&, RowId rid) {
         rids.push_back(rid);
         return true;
       },
       pages_touched);
  return rids;
}

namespace {

// Walk accumulator for ValidateStructure: one pass collects everything the
// reported stats are checked against.
struct WalkStats {
  size_t nodes = 0;
  size_t entries = 0;
  size_t leaf_depth = 0;  // 0 = no leaf seen yet
};

}  // namespace

Status BTree::ValidateStructure() const {
  if (root_ == nullptr) {
    return Status::Internal("btree: root is null");
  }

  WalkStats stats;
  std::vector<const Node*> leaves_in_order;  // left-to-right recursive order

  // Iterative DFS so that pathologically deep (or cyclic-by-corruption)
  // trees cannot blow the stack; separator containment is checked from the
  // parent's side while its children are still addressable.
  struct Frame {
    const Node* node;
    size_t depth;
  };
  std::vector<Frame> todo;
  todo.push_back({root_.get(), 1});
  // Corruption can introduce cycles (e.g. a child pointing back up); bound
  // the walk so validation always terminates.
  const size_t max_nodes = num_nodes() + 16;
  while (!todo.empty()) {
    const Frame f = todo.back();
    todo.pop_back();
    if (stats.nodes > max_nodes) {
      return Status::Internal(StrCat(
          "btree: walk exceeded ", max_nodes,
          " nodes (cycle or wildly wrong num_nodes bookkeeping)"));
    }
    const Node* node = f.node;
    ++stats.nodes;
    stats.entries += node->is_leaf ? node->entries.size() : 0;

    // Capacity bound.
    const size_t cap = node->is_leaf ? leaf_capacity_ : internal_capacity_;
    if (node->entries.size() > cap) {
      return Status::Internal(StrCat(
          "btree: node at depth ", f.depth, " holds ", node->entries.size(),
          " entries, over its capacity of ", cap));
    }

    // Keys sorted within the node on (key, rid).
    for (size_t i = 1; i < node->entries.size(); ++i) {
      if (CompareEntry(node->entries[i - 1].key, node->entries[i - 1].rid,
                       node->entries[i].key, node->entries[i].rid) > 0) {
        return Status::Internal(StrCat(
            "btree: entries out of order within ",
            node->is_leaf ? "leaf" : "internal node", " at depth ", f.depth,
            " (positions ", i - 1, " and ", i, ")"));
      }
    }

    if (node->is_leaf) {
      if (!node->children.empty()) {
        return Status::Internal(
            StrCat("btree: leaf at depth ", f.depth, " has ",
                   node->children.size(), " children"));
      }
      if (stats.leaf_depth == 0) {
        stats.leaf_depth = f.depth;
      } else if (f.depth != stats.leaf_depth) {
        return Status::Internal(StrCat("btree: leaf depth not uniform: found ",
                                       f.depth, ", expected ",
                                       stats.leaf_depth));
      }
      leaves_in_order.push_back(node);
    } else {
      if (node->children.size() != node->entries.size() + 1) {
        return Status::Internal(StrCat(
            "btree: internal node at depth ", f.depth, " has ",
            node->children.size(), " children for ", node->entries.size(),
            " separators (want separators + 1)"));
      }
      if (node->entries.empty()) {
        return Status::Internal(StrCat(
            "btree: internal node at depth ", f.depth, " has no separators"));
      }
      // Child key ranges respect separators (first/last entries suffice
      // because per-node ordering is checked independently).
      for (size_t i = 0; i < node->children.size(); ++i) {
        const Node* child = node->children[i].get();
        if (child == nullptr) {
          return Status::Internal(StrCat("btree: null child ", i,
                                         " under internal node at depth ",
                                         f.depth));
        }
        if (!child->entries.empty()) {
          if (i > 0) {
            const Entry& sep = node->entries[i - 1];
            if (CompareEntry(child->entries.front().key,
                             child->entries.front().rid, sep.key,
                             sep.rid) < 0) {
              return Status::Internal(StrCat(
                  "btree: child ", i, " at depth ", f.depth + 1,
                  " starts below its left separator"));
            }
          }
          if (i < node->entries.size()) {
            const Entry& sep = node->entries[i];
            if (CompareEntry(child->entries.back().key,
                             child->entries.back().rid, sep.key,
                             sep.rid) >= 0) {
              return Status::Internal(StrCat(
                  "btree: child ", i, " at depth ", f.depth + 1,
                  " reaches past its right separator"));
            }
          }
        }
      }
      // Push right-to-left so leaves_in_order comes out left-to-right.
      for (size_t i = node->children.size(); i > 0; --i) {
        todo.push_back({node->children[i - 1].get(), f.depth + 1});
      }
    }
  }

  // Reported stats vs the fresh walk.
  if (stats.leaf_depth != height()) {
    return Status::Internal(StrCat("btree: reported height ", height(),
                                   " but leaves sit at depth ",
                                   stats.leaf_depth));
  }
  if (stats.nodes != num_nodes()) {
    return Status::Internal(StrCat("btree: reported num_nodes ", num_nodes(),
                                   " but walk found ", stats.nodes));
  }
  if (stats.entries != num_entries()) {
    return Status::Internal(StrCat("btree: reported num_entries ",
                                   num_entries(), " but leaves hold ",
                                   stats.entries));
  }

  // Leaf chain: next pointers must visit exactly the recursive-order
  // leaves, prev pointers must mirror them, and the chained entries must
  // be globally sorted.
  const Node* chained = leaves_in_order.empty() ? nullptr : leaves_in_order[0];
  if (chained != nullptr && chained->prev != nullptr) {
    return Status::Internal("btree: leftmost leaf has a prev pointer");
  }
  size_t pos = 0;
  const Entry* prev_entry = nullptr;
  while (chained != nullptr) {
    if (pos >= leaves_in_order.size() || chained != leaves_in_order[pos]) {
      return Status::Internal(StrCat(
          "btree: leaf chain diverges from tree order at chain position ",
          pos));
    }
    if (chained->next != nullptr && chained->next->prev != chained) {
      return Status::Internal(StrCat(
          "btree: leaf chain prev/next asymmetry at chain position ", pos));
    }
    for (const Entry& e : chained->entries) {
      if (prev_entry != nullptr &&
          CompareEntry(prev_entry->key, prev_entry->rid, e.key, e.rid) > 0) {
        return Status::Internal(StrCat(
            "btree: leaf chain not globally sorted at chain position ", pos));
      }
      prev_entry = &e;
    }
    chained = chained->next;
    ++pos;
  }
  if (pos != leaves_in_order.size()) {
    return Status::Internal(StrCat("btree: leaf chain covers ", pos,
                                   " leaves but the tree has ",
                                   leaves_in_order.size()));
  }
  return Status::Ok();
}

bool BTree::TestOnlyCorruptLeafOrder() {
  // Find a leaf with two distinct entries and swap them.
  Node* leaf = root_.get();
  while (!leaf->is_leaf) leaf = leaf->children[0].get();
  for (; leaf != nullptr; leaf = leaf->next) {
    for (size_t i = 1; i < leaf->entries.size(); ++i) {
      if (CompareEntry(leaf->entries[i - 1].key, leaf->entries[i - 1].rid,
                       leaf->entries[i].key, leaf->entries[i].rid) != 0) {
        std::swap(leaf->entries[i - 1], leaf->entries[i]);
        return true;
      }
    }
  }
  return false;
}

bool BTree::TestOnlyBreakLeafChain() {
  Node* leaf = root_.get();
  while (!leaf->is_leaf) leaf = leaf->children[0].get();
  if (leaf->next == nullptr) return false;
  leaf->next = nullptr;
  return true;
}

}  // namespace autoindex
