#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/benefit_estimator.h"
#include "engine/database.h"
#include "engine/what_if.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"

namespace autoindex {

namespace persist {
class Reader;
class Writer;
}  // namespace persist

struct MctsConfig {
  // Search iterations per management round.
  size_t iterations = 200;
  // Exploration constant gamma in U(v) = B(v) + gamma*sqrt(ln F(v0)/F(v))
  // (benefits are normalized to fractions of the base workload cost, so
  // gamma ~ 0.3-2 is a sensible range).
  double gamma = 0.7;
  // Storage budget for the whole index set; 0 = unlimited.
  size_t storage_budget_bytes = 0;
  // Cap on children generated per expansion (actions beyond the cap are
  // sampled uniformly).
  size_t max_actions_per_node = 48;
  // Stop early when this many consecutive iterations fail to improve the
  // best benefit (0 disables early stop).
  size_t patience = 64;
};

// One edge of the policy tree: add a candidate index or remove an index
// from the current node's set.
struct IndexAction {
  enum Kind { kAdd, kRemove } kind = kAdd;
  IndexDef def;
};

struct MctsResult {
  IndexConfig best_config;
  double base_cost = 0.0;    // estimated workload cost under the root set
  double best_cost = 0.0;    // estimated cost under best_config
  double best_benefit = 0.0; // base_cost - best_cost
  std::vector<IndexDef> to_add;     // best_config minus existing
  std::vector<IndexDef> to_remove;  // existing minus best_config
  size_t iterations_run = 0;
  size_t nodes_expanded = 0;
  size_t tree_size = 0;
};

// Monte Carlo Tree Search over index configurations (Sec. IV-B). The tree
// is persistent: the root represents the currently-built index set, each
// node an index combination reachable by add/remove actions. Across
// management rounds, Run() rebases the root onto the node matching the new
// existing set when possible, preserving explored statistics — this is the
// paper's incremental index update.
//
// Thread safety: tuning itself is single-threaded (one manager thread owns
// Run), but validators running on client threads may walk the persistent
// tree concurrently — an internal mutex serializes Run/Reset/ValidateTree
// and the test-only corruption hooks, and tree_size() is an atomic
// snapshot readable without it.
class MctsIndexSelector {
 public:
  MctsIndexSelector(Database* db, IndexBenefitEstimator* estimator,
                    MctsConfig config = {});
  ~MctsIndexSelector();

  MctsIndexSelector(const MctsIndexSelector&) = delete;
  MctsIndexSelector& operator=(const MctsIndexSelector&) = delete;

  // Searches for the best configuration reachable from `existing` by
  // adding candidates / removing existing indexes, under the storage
  // budget and the estimator's workload cost.
  MctsResult Run(const IndexConfig& existing,
                 const std::vector<IndexDef>& candidates,
                 const WorkloadModel& workload) EXCLUDES(tree_mu_);

  // Drops the persistent tree (tests / hard workload resets).
  void Reset() EXCLUDES(tree_mu_);
  size_t tree_size() const {
    return tree_size_.load(std::memory_order_relaxed);
  }

  // Deep structural validation of the persistent policy tree: parent/child
  // links symmetric, visit count of every node >= sum of its children's
  // (backprop touches every ancestor), benefits within [0, 1] and
  // monotone up the tree (max-backprop), and tree_size() matching a fresh
  // walk. Ok() when healthy; Internal naming the first violation
  // otherwise. An empty tree (before the first Run) is healthy.
  Status ValidateTree() const EXCLUDES(tree_mu_);

  // --- Test-only corruption hooks (see src/check/); never call outside
  // tests. Each returns false when the tree is too small to corrupt.
  bool TestOnlyCorruptVisitCount() EXCLUDES(tree_mu_);  // child visits exceed
                                                        // its parent's
  bool TestOnlyCorruptBenefit() EXCLUDES(tree_mu_);  // benefit out of [0, 1]

  // By value: the live config is guarded (set_storage_budget may move the
  // budget concurrently with a Run on the tuning thread).
  MctsConfig config() const EXCLUDES(tree_mu_) {
    util::MutexLock lock(tree_mu_);
    return config_;
  }
  void set_storage_budget(size_t bytes) EXCLUDES(tree_mu_) {
    util::MutexLock lock(tree_mu_);
    config_.storage_budget_bytes = bytes;
  }

  // Snapshot serialization (src/persist/): the whole persistent policy
  // tree (pre-order, iterative — no recursion depth limit), the rng state,
  // and the evaluation generation round-trip, so a reloaded selector's
  // next Run() explores identically to the live one's. LoadTree replaces
  // the current tree and validates the result.
  void SaveTree(persist::Writer* w) const EXCLUDES(tree_mu_);
  Status LoadTree(persist::Reader* r) EXCLUDES(tree_mu_);

 private:
  struct Node;

  // Number of nodes in the subtree rooted at `node` (0 for null).
  static size_t CountNodes(const Node* node);

  // Tries to find a depth<=2 descendant of the root whose config equals
  // `target`; promotes it to root (incremental rebase). Returns true on
  // success.
  bool RebaseRoot(const IndexConfig& target) REQUIRES(tree_mu_);

  void ExpandNode(Node* node, const std::vector<IndexDef>& candidates,
                  const IndexConfig& existing) REQUIRES(tree_mu_);
  // Evaluates a node: own config + K random rollouts; returns the best
  // normalized benefit found and records the global best config.
  double EvaluateNode(Node* node, const std::vector<IndexDef>& candidates,
                      const WorkloadModel& workload) REQUIRES(tree_mu_);
  double ConfigCost(const IndexConfig& config, const WorkloadModel& workload)
      REQUIRES(tree_mu_);
  bool WithinBudget(const IndexConfig& config) const REQUIRES(tree_mu_);
  void ConsiderBest(const IndexConfig& config, double cost)
      REQUIRES(tree_mu_);

  Database* db_;
  IndexBenefitEstimator* estimator_;

  // Serializes tree structure access (Run/Reset/ValidateTree/corruption
  // hooks); see class comment. Also guards the live config: the tuning
  // loop moves the storage budget between (and potentially during) runs.
  mutable util::Mutex tree_mu_;
  MctsConfig config_ GUARDED_BY(tree_mu_);
  Random rng_ GUARDED_BY(tree_mu_);
  std::unique_ptr<Node> root_ GUARDED_BY(tree_mu_);
  std::atomic<size_t> tree_size_{0};
  uint64_t generation_ GUARDED_BY(tree_mu_) = 0;

  // Per-Run scratch.
  double base_cost_ GUARDED_BY(tree_mu_) = 0.0;
  double best_cost_ GUARDED_BY(tree_mu_) = 0.0;
  IndexConfig best_config_ GUARDED_BY(tree_mu_);
  const WorkloadModel* workload_ GUARDED_BY(tree_mu_) = nullptr;
};

}  // namespace autoindex
