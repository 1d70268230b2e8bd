#include "core/mcts.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "persist/serde.h"
#include "persist/sql_serde.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace autoindex {
namespace {

// K random rollouts when evaluating a node's benefit (Sec. IV-B step 2).
constexpr size_t kRollouts = 5;
// Seed of the selector's rng; a snapshot carries the rng state onward.
constexpr uint64_t kSeed = 7;

struct MctsMetrics {
  util::Counter* runs;
  util::Counter* iterations;
  util::Counter* rollouts;
  util::Counter* nodes_expanded;

  static const MctsMetrics& Get() {
    static const MctsMetrics metrics = [] {
      auto& registry = util::MetricsRegistry::Default();
      return MctsMetrics{registry.GetCounter("mcts.runs"),
                         registry.GetCounter("mcts.iterations"),
                         registry.GetCounter("mcts.rollouts"),
                         registry.GetCounter("mcts.nodes_expanded")};
    }();
    return metrics;
  }
};

}  // namespace

struct MctsIndexSelector::Node {
  IndexConfig config;
  IndexAction incoming;     // action that created this node (root: unused)
  double benefit = 0.0;     // B(v), normalized to base cost
  size_t visits = 0;        // F(v)
  bool expanded = false;
  uint64_t eval_generation = 0;
  Node* parent = nullptr;
  std::vector<std::unique_ptr<Node>> children;
};

size_t MctsIndexSelector::CountNodes(const Node* node) {
  if (node == nullptr) return 0;
  size_t count = 0;
  std::vector<const Node*> todo = {node};
  while (!todo.empty()) {
    const Node* n = todo.back();
    todo.pop_back();
    ++count;
    for (const auto& child : n->children) todo.push_back(child.get());
  }
  return count;
}

MctsIndexSelector::MctsIndexSelector(Database* db,
                                     IndexBenefitEstimator* estimator,
                                     MctsConfig config)
    : db_(db), estimator_(estimator), config_(config), rng_(kSeed) {}

MctsIndexSelector::~MctsIndexSelector() = default;

void MctsIndexSelector::Reset() {
  util::MutexLock lock(tree_mu_);
  root_.reset();
  tree_size_ = 0;
}

bool MctsIndexSelector::WithinBudget(const IndexConfig& config) const {
  if (config_.storage_budget_bytes == 0) return true;
  return config.TotalBytes(db_->catalog()) <= config_.storage_budget_bytes;
}

double MctsIndexSelector::ConfigCost(const IndexConfig& config,
                                     const WorkloadModel& workload) {
  return estimator_->EstimateWorkloadCost(workload, config);
}

void MctsIndexSelector::ConsiderBest(const IndexConfig& config, double cost) {
  if (!WithinBudget(config)) return;
  const double eps = 1e-9 * std::max(1.0, base_cost_);
  if (cost < best_cost_ - eps) {
    best_cost_ = cost;
    best_config_ = config;
    return;
  }
  // Cost tie: prefer the smaller configuration (drops redundant twins,
  // e.g. a global and local index over the same columns).
  if (cost < best_cost_ + eps &&
      config.TotalBytes(db_->catalog()) <
          best_config_.TotalBytes(db_->catalog())) {
    best_cost_ = std::min(best_cost_, cost);
    best_config_ = config;
  }
}

bool MctsIndexSelector::RebaseRoot(const IndexConfig& target) {
  if (root_ == nullptr) return false;
  const uint64_t want = HashConfig(target);
  if (HashConfig(root_->config) == want) return true;
  // Breadth-first search limited to depth 2 below the root.
  std::deque<std::pair<Node*, int>> queue;
  queue.emplace_back(root_.get(), 0);
  while (!queue.empty()) {
    auto [node, depth] = queue.front();
    queue.pop_front();
    if (HashConfig(node->config) == want) {
      // Detach the subtree and promote it.
      Node* parent = node->parent;
      if (parent == nullptr) return true;
      for (auto& child : parent->children) {
        if (child.get() == node) {
          std::unique_ptr<Node> promoted = std::move(child);
          promoted->parent = nullptr;
          root_ = std::move(promoted);
          // The discarded siblings are freed here; recount so tree_size_
          // tracks the surviving subtree exactly (the validator checks it
          // against a fresh walk).
          tree_size_ = CountNodes(root_.get());
          return true;
        }
      }
      return false;
    }
    if (depth < 2) {
      for (auto& child : node->children) {
        queue.emplace_back(child.get(), depth + 1);
      }
    }
  }
  return false;
}

void MctsIndexSelector::ExpandNode(Node* node,
                                   const std::vector<IndexDef>& candidates,
                                   const IndexConfig& existing) {
  if (node->expanded) return;
  node->expanded = true;

  std::vector<IndexAction> actions;
  // Add actions: any candidate not already in the node's set, within
  // budget.
  for (const IndexDef& def : candidates) {
    if (node->config.Contains(def)) continue;
    if (node->parent != nullptr && node->incoming.kind == IndexAction::kRemove &&
        node->incoming.def == def) {
      continue;  // do not immediately undo the parent action
    }
    IndexConfig next = node->config;
    next.Add(def);
    if (!WithinBudget(next)) continue;
    actions.push_back({IndexAction::kAdd, def});
  }
  // Remove actions: any index currently in the set (this is how AutoIndex
  // retires redundant/negative indexes — DRL methods cannot do this,
  // Sec. I).
  for (const IndexDef& def : node->config.defs()) {
    if (node->parent != nullptr && node->incoming.kind == IndexAction::kAdd &&
        node->incoming.def == def) {
      continue;
    }
    actions.push_back({IndexAction::kRemove, def});
  }
  (void)existing;

  // Sample down to the cap.
  if (actions.size() > config_.max_actions_per_node) {
    for (size_t i = 0; i < config_.max_actions_per_node; ++i) {
      const size_t j = i + rng_.Uniform(actions.size() - i);
      std::swap(actions[i], actions[j]);
    }
    actions.resize(config_.max_actions_per_node);
  }

  for (const IndexAction& action : actions) {
    auto child = std::make_unique<Node>();
    child->config = node->config;
    if (action.kind == IndexAction::kAdd) {
      child->config.Add(action.def);
    } else {
      child->config.Remove(action.def);
    }
    child->incoming = action;
    child->parent = node;
    node->children.push_back(std::move(child));
    ++tree_size_;
  }
}

double MctsIndexSelector::EvaluateNode(
    Node* node, const std::vector<IndexDef>& candidates,
    const WorkloadModel& workload) {
  // Own config.
  double best = ConfigCost(node->config, workload);
  ConsiderBest(node->config, best);

  // K random rollouts: greedily add random candidates until the budget (or
  // the candidate pool) is exhausted, evaluating the leaf each time
  // (Sec. IV-B step 2: "randomly explore K descendants ... or descendant
  // nodes that arrive the storage constraint").
  MctsMetrics::Get().rollouts->Add(kRollouts);
  for (size_t r = 0; r < kRollouts; ++r) {
    IndexConfig rollout = node->config;
    // Random order over candidates.
    std::vector<const IndexDef*> pool;
    pool.reserve(candidates.size());
    for (const IndexDef& def : candidates) {
      if (!rollout.Contains(def)) pool.push_back(&def);
    }
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng_.Uniform(i)]);
    }
    for (const IndexDef* def : pool) {
      IndexConfig next = rollout;
      next.Add(*def);
      if (!WithinBudget(next)) continue;
      rollout = std::move(next);
      // Occasionally stop early so shallow combinations are also sampled.
      if (rng_.Bernoulli(0.25)) break;
    }
    // With some probability, also drop one random index — rollouts should
    // sample the removal direction too.
    if (!rollout.defs().empty() && rng_.Bernoulli(0.3)) {
      IndexConfig pruned = rollout;
      pruned.Remove(rollout.defs()[rng_.Uniform(rollout.defs().size())]);
      const double cost = ConfigCost(pruned, workload);
      ConsiderBest(pruned, cost);
      best = std::min(best, cost);
    }
    const double cost = ConfigCost(rollout, workload);
    ConsiderBest(rollout, cost);
    best = std::min(best, cost);
  }
  node->eval_generation = generation_;
  // Normalized benefit: fraction of the base workload cost saved.
  if (base_cost_ <= 0.0) return 0.0;
  return (base_cost_ - best) / base_cost_;
}

MctsResult MctsIndexSelector::Run(const IndexConfig& existing,
                                  const std::vector<IndexDef>& candidates,
                                  const WorkloadModel& workload) {
  util::MutexLock lock(tree_mu_);
  ++generation_;
  workload_ = &workload;

  // Incremental rebase of the persistent policy tree (Sec. IV-B / IV-C):
  // reuse statistics when the previous round's recommendation was applied.
  if (!RebaseRoot(existing)) {
    root_ = std::make_unique<Node>();
    root_->config = existing;
    tree_size_ = 1;
  }

  base_cost_ = ConfigCost(existing, workload);
  best_cost_ = base_cost_;
  best_config_ = existing;

  MctsResult result;
  size_t since_improvement = 0;
  double best_seen = 0.0;

  for (size_t iter = 0; iter < config_.iterations; ++iter) {
    // --- Step 1: selection & expansion ---
    Node* node = root_.get();
    while (node->expanded && !node->children.empty()) {
      Node* best_child = nullptr;
      double best_ucb = -1e300;
      const double total_visits =
          static_cast<double>(std::max<size_t>(1, node->visits));
      for (auto& child : node->children) {
        double ucb;
        if (child->visits == 0) {
          // Unvisited children explored first, in insertion order with a
          // random tiebreak.
          ucb = 1e6 + rng_.NextDouble();
        } else {
          ucb = child->benefit +
                config_.gamma * std::sqrt(std::log(total_visits + 1.0) /
                                          static_cast<double>(child->visits));
        }
        if (ucb > best_ucb) {
          best_ucb = ucb;
          best_child = child.get();
        }
      }
      if (best_child == nullptr) break;
      node = best_child;
      if (node->visits == 0) break;  // expand/evaluate the fresh node
      // Re-evaluate nodes whose statistics predate this round's workload
      // (the paper's "estimated values out-of-date" problem).
      if (node->eval_generation < generation_) break;
    }
    if (!node->expanded) {
      ExpandNode(node, candidates, existing);
      ++result.nodes_expanded;
    }

    // --- Step 2: node utility computation ---
    const double value = EvaluateNode(node, candidates, workload);

    // --- Step 3: utility update (backpropagate max benefit) ---
    for (Node* n = node; n != nullptr; n = n->parent) {
      ++n->visits;
      n->benefit = std::max(n->benefit, value);
    }

    ++result.iterations_run;
    const double current_best =
        base_cost_ > 0 ? (base_cost_ - best_cost_) / base_cost_ : 0.0;
    if (current_best > best_seen + 1e-12) {
      best_seen = current_best;
      since_improvement = 0;
    } else if (config_.patience > 0 && ++since_improvement >= config_.patience) {
      break;
    }
  }

  MctsMetrics::Get().runs->Add();
  MctsMetrics::Get().iterations->Add(result.iterations_run);
  MctsMetrics::Get().nodes_expanded->Add(result.nodes_expanded);

  result.best_config = best_config_;
  result.base_cost = base_cost_;
  result.best_cost = best_cost_;
  result.best_benefit = base_cost_ - best_cost_;
  result.tree_size = tree_size_;
  for (const IndexDef& def : best_config_.defs()) {
    if (!existing.Contains(def)) result.to_add.push_back(def);
  }
  for (const IndexDef& def : existing.defs()) {
    if (!best_config_.Contains(def)) result.to_remove.push_back(def);
  }
  workload_ = nullptr;
  return result;
}

Status MctsIndexSelector::ValidateTree() const {
  util::MutexLock lock(tree_mu_);
  if (root_ == nullptr) {
    if (tree_size() != 0) {
      return Status::Internal(StrCat(
          "mcts: no tree but tree_size reports ", tree_size()));
    }
    return Status::Ok();
  }
  if (root_->parent != nullptr) {
    return Status::Internal("mcts: root has a parent pointer");
  }

  size_t walked = 0;
  std::vector<const Node*> todo = {root_.get()};
  // unique_ptr ownership rules out true cycles, but corrupted bookkeeping
  // should still terminate: bound the walk by the reported size.
  const size_t max_nodes = tree_size() + 16;
  while (!todo.empty()) {
    const Node* node = todo.back();
    todo.pop_back();
    if (++walked > max_nodes) {
      return Status::Internal(StrCat("mcts: walk exceeded ", max_nodes,
                                     " nodes (tree_size bookkeeping is off)"));
    }
    // Benefit is the max over normalized benefits (fractions of the base
    // workload cost saved), clamped at 0 by its initialization — so it
    // must stay within [0, 1].
    if (node->benefit < 0.0 || node->benefit > 1.0 + 1e-9) {
      return Status::Internal(StrCat("mcts: node benefit ", node->benefit,
                                     " outside [0, 1]"));
    }
    size_t child_visits = 0;
    for (const auto& child : node->children) {
      if (child == nullptr) {
        return Status::Internal("mcts: null child in policy tree");
      }
      if (child->parent != node) {
        return Status::Internal(
            "mcts: child's parent pointer does not point at its parent");
      }
      // Max-backprop writes every ancestor, so a child can never out-score
      // its parent.
      if (child->benefit > node->benefit + 1e-9) {
        return Status::Internal(StrCat(
            "mcts: child benefit ", child->benefit,
            " exceeds its parent's ", node->benefit));
      }
      child_visits += child->visits;
      todo.push_back(child.get());
    }
    // Every child visit passed through this node on the way down.
    if (child_visits > node->visits) {
      return Status::Internal(StrCat(
          "mcts: node with ", node->visits, " visits has children totaling ",
          child_visits));
    }
  }
  if (walked != tree_size()) {
    return Status::Internal(StrCat("mcts: tree_size reports ", tree_size(),
                                   " nodes but walk found ", walked));
  }
  return Status::Ok();
}

bool MctsIndexSelector::TestOnlyCorruptVisitCount() {
  util::MutexLock lock(tree_mu_);
  if (root_ == nullptr || root_->children.empty()) return false;
  root_->children[0]->visits = root_->visits + 1;
  return true;
}

bool MctsIndexSelector::TestOnlyCorruptBenefit() {
  util::MutexLock lock(tree_mu_);
  if (root_ == nullptr) return false;
  root_->benefit = 2.0;
  return true;
}

namespace {

void PutIndexConfig(persist::Writer* w, const IndexConfig& config) {
  w->PutU32(static_cast<uint32_t>(config.defs().size()));
  for (const IndexDef& def : config.defs()) persist::PutIndexDef(w, def);
}

IndexConfig GetIndexConfig(persist::Reader* r) {
  IndexConfig config;
  const uint32_t n = r->GetU32();
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    config.Add(persist::GetIndexDef(r));
  }
  return config;
}

}  // namespace

void MctsIndexSelector::SaveTree(persist::Writer* w) const {
  util::MutexLock lock(tree_mu_);
  w->PutU64(rng_.state0());
  w->PutU64(rng_.state1());
  w->PutU64(generation_);
  w->PutBool(root_ != nullptr);
  if (root_ == nullptr) return;
  // Iterative pre-order: a node's fields, then its children in order.
  // Explicit stack — the policy tree's depth is workload-dependent and
  // recursion would put it on the call stack.
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    PutIndexConfig(w, n->config);
    w->PutU8(static_cast<uint8_t>(n->incoming.kind));
    persist::PutIndexDef(w, n->incoming.def);
    w->PutDouble(n->benefit);
    w->PutU64(n->visits);
    w->PutBool(n->expanded);
    w->PutU64(n->eval_generation);
    w->PutU32(static_cast<uint32_t>(n->children.size()));
    for (auto it = n->children.rbegin(); it != n->children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
}

Status MctsIndexSelector::LoadTree(persist::Reader* r) {
  {
    util::MutexLock lock(tree_mu_);
    const uint64_t s0 = r->GetU64();
    const uint64_t s1 = r->GetU64();
    rng_.SetState(s0, s1);
    generation_ = r->GetU64();
    root_.reset();
    tree_size_.store(0, std::memory_order_relaxed);
    if (r->GetBool()) {
      const auto read_node = [r](Node* parent,
                                 uint32_t* nchildren) -> std::unique_ptr<Node> {
        auto n = std::make_unique<Node>();
        n->config = GetIndexConfig(r);
        const uint8_t kind = r->GetU8();
        if (kind > static_cast<uint8_t>(IndexAction::kRemove)) {
          r->Fail(Status::InvalidArgument(
              StrCat("bad action kind tag ", static_cast<int>(kind))));
          return nullptr;
        }
        n->incoming.kind = static_cast<IndexAction::Kind>(kind);
        n->incoming.def = persist::GetIndexDef(r);
        n->benefit = r->GetDouble();
        n->visits = r->GetU64();
        n->expanded = r->GetBool();
        n->eval_generation = r->GetU64();
        *nchildren = r->GetU32();
        n->parent = parent;
        if (!r->ok()) return nullptr;
        return n;
      };
      struct Pending {
        Node* node;
        uint32_t remaining;
      };
      uint32_t nchildren = 0;
      root_ = read_node(nullptr, &nchildren);
      size_t count = root_ == nullptr ? 0 : 1;
      std::vector<Pending> stack;
      if (root_ != nullptr) stack.push_back({root_.get(), nchildren});
      while (r->ok() && !stack.empty()) {
        if (stack.back().remaining == 0) {
          stack.pop_back();
          continue;
        }
        --stack.back().remaining;
        Node* parent = stack.back().node;
        std::unique_ptr<Node> child = read_node(parent, &nchildren);
        if (child == nullptr) break;
        ++count;
        Node* raw = child.get();
        parent->children.push_back(std::move(child));
        stack.push_back({raw, nchildren});
      }
      if (!r->ok()) {
        root_.reset();
        return r->status();
      }
      if (root_ == nullptr) {
        return Status::InvalidArgument("MCTS tree payload missing root");
      }
      tree_size_.store(count, std::memory_order_relaxed);
    }
  }
  // Validation re-takes tree_mu_, so it must run outside the scope above.
  Status s = ValidateTree();
  if (!s.ok()) {
    util::MutexLock lock(tree_mu_);
    root_.reset();
    tree_size_.store(0, std::memory_order_relaxed);
    return s;
  }
  return Status::Ok();
}

}  // namespace autoindex
