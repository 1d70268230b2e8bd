// Extension ablation (Sec. III "index type selection for the data
// partitioning scenarios"): global vs local indexes on a hash-partitioned
// table under two workload regimes.
//   - partition-bound lookups (WHERE region = ? AND k = ?): the local
//     index serves one shallow shard probe and is smaller;
//   - unbound lookups (WHERE k = ?): the local index pays one descent per
//     partition, the global index one taller descent.
// The bench prints measured costs for both kinds under both regimes plus
// what AutoIndex's search picks for each.

#include "bench/bench_util.h"
#include "util/string_util.h"

using namespace autoindex;         // NOLINT
using namespace autoindex::bench;  // NOLINT

namespace {

constexpr int kPartitions = 16;
constexpr int kRows = 80000;

void BuildTable(Database* db) {
  CheckOk(db->CreateTable("pt", Schema({{"region", ValueType::kInt},
                                        {"k", ValueType::kInt},
                                        {"v", ValueType::kInt}})));
  db->catalog().GetTable("pt")->SetPartitioning("region", kPartitions);
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Value(int64_t(i % 128)), Value(int64_t(i)),
                    Value(int64_t(i % 100))});
  }
  CheckOk(db->BulkInsert("pt", std::move(rows)));
  db->Analyze();
}

std::vector<std::string> BoundWorkload(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng.Uniform(kRows));
    out.push_back(StrFormat(
        "SELECT v FROM pt WHERE region = %d AND k = %d", k % 128, k));
  }
  return out;
}

std::vector<std::string> UnboundWorkload(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(StrFormat("SELECT v FROM pt WHERE k = %d",
                            static_cast<int>(rng.Uniform(kRows))));
  }
  return out;
}

double MeasureWith(const IndexDef& def,
                   const std::vector<std::string>& workload,
                   size_t* index_bytes) {
  Database db;
  BuildTable(&db);
  CheckOk(db.CreateIndex(def));
  *index_bytes = db.index_manager().TotalIndexBytes();
  return RunWorkload(&db, workload).total_cost;
}

}  // namespace

int main() {
  PrintHeader("Extension — global vs local index on a partitioned table");

  const IndexDef global_rk("pt", {"region", "k"});
  const IndexDef local_rk("pt", {"region", "k"}, IndexKind::kLocal);
  const IndexDef global_k("pt", {"k"});
  const IndexDef local_k("pt", {"k"}, IndexKind::kLocal);

  const auto bound = BoundWorkload(400, 1);
  const auto unbound = UnboundWorkload(400, 2);

  std::printf("\n%-34s %14s %12s\n", "index / workload", "measured cost",
              "index size");
  PrintRule();
  struct Case {
    const char* label;
    const IndexDef* def;
    const std::vector<std::string>* workload;
  };
  const Case cases[] = {
      {"global(region,k) / bound", &global_rk, &bound},
      {"local(region,k)  / bound", &local_rk, &bound},
      {"global(k)        / unbound", &global_k, &unbound},
      {"local(k)         / unbound", &local_k, &unbound},
  };
  for (const Case& c : cases) {
    size_t bytes = 0;
    const double cost = MeasureWith(*c.def, *c.workload, &bytes);
    std::printf("%-34s %14.1f %9.2f MiB\n", c.label, cost,
                bytes / 1048576.0);
  }

  // What does AutoIndex pick per regime?
  for (int regime = 0; regime < 2; ++regime) {
    Database db;
    BuildTable(&db);
    AutoIndexConfig ai;
  ai.learn_cost_model = false;  // both methods share the static Sec.-V estimator (paper fairness)
    ai.mcts.iterations = 200;
    AutoIndexManager manager(&db, ai);
    const auto& workload = regime == 0 ? bound : unbound;
    RunWorkloadObserved(&manager, workload);
    TuningResult tuning = manager.RunManagementRound();
    std::printf("\nAutoIndex on the %s workload chose:",
                regime == 0 ? "bound" : "unbound");
    for (const IndexDef& def : tuning.added) {
      std::printf(" %s", def.DisplayName().c_str());
    }
    if (tuning.added.empty()) std::printf(" (nothing)");
    std::printf("\n");
  }
  std::printf("\nexpected shape: local wins the partition-bound regime "
              "(pruned + smaller); global wins unbound point lookups\n");
  return 0;
}
