// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: B+Tree operations, SQL parsing, fingerprinting, DNF
// rewriting, ANALYZE, SELECT planning, hash-join probing, what-if
// estimation, and MCTS iteration throughput.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/benefit_estimator.h"
#include "core/mcts.h"
#include "core/query_template.h"
#include "engine/database.h"
#include "engine/planner.h"
#include "engine/what_if.h"
#include "index/btree.h"
#include "sql/dnf.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "stats/column_stats.h"
#include "util/random.h"
#include "workload/tpcds.h"

namespace autoindex {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    BTree tree(256, 256);
    Random rng(7);
    for (size_t i = 0; i < n; ++i) {
      const Row key{Value(static_cast<int64_t>(rng.Next() % 1000000))};
      tree.Insert(key, i);
    }
    benchmark::DoNotOptimize(tree.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BTreePointLookup(benchmark::State& state) {
  BTree tree(256, 256);
  Random rng(7);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    const Row key{Value(static_cast<int64_t>(i))};
    tree.Insert(key, i);
  }
  size_t key = 0;
  for (auto _ : state) {
    key = (key * 2654435761u + 1) % n;
    benchmark::DoNotOptimize(
        tree.PrefixLookup({Value(static_cast<int64_t>(key))}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreePointLookup);

void BM_BTreeRangeScan(benchmark::State& state) {
  BTree tree(256, 256);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    const Row key{Value(static_cast<int64_t>(i))};
    tree.Insert(key, i);
  }
  const int64_t width = state.range(0);
  int64_t lo_v = 0;
  for (auto _ : state) {
    lo_v = (lo_v + 12345) % (n - width);
    Row lo{Value(lo_v)}, hi{Value(lo_v + width)};
    size_t count = 0;
    tree.Scan(&lo, true, &hi, true, [&](const Row&, RowId) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_BTreeRangeScan)->Arg(100)->Arg(10000);

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT a, b, COUNT(*) FROM t1, t2 WHERE t1.x = t2.y AND a = 5 AND "
      "(b > 3 OR c IN (1, 2, 3)) GROUP BY a, b ORDER BY a DESC LIMIT 10";
  for (auto _ : state) {
    auto stmt = ParseSql(sql);
    benchmark::DoNotOptimize(stmt.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseSelect);

void BM_Fingerprint(benchmark::State& state) {
  const std::string sql =
      "SELECT c_id, c_balance FROM customer WHERE c_w_id = 3 AND c_d_id = "
      "7 AND c_last = 'BARBARESE' ORDER BY c_first";
  for (auto _ : state) {
    benchmark::DoNotOptimize(FingerprintSql(sql));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fingerprint);

void BM_TemplateObserve(benchmark::State& state) {
  TemplateStore store(5000);
  Random rng(3);
  for (auto _ : state) {
    const int c = static_cast<int>(rng.Uniform(1000000));
    benchmark::DoNotOptimize(store.Observe(
        "SELECT a FROM t WHERE b = " + std::to_string(c)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemplateObserve);

void BM_DnfRewrite(benchmark::State& state) {
  auto stmt = ParseSql(
      "SELECT a FROM t WHERE (a = 1 OR b = 2) AND (c = 3 OR d = 4) AND "
      "(e = 5 OR f = 6)");
  const Expr& where = *stmt->select->where;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToDnf(where));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnfRewrite);

// ANALYZE of the TPC-DS fact table at wallbench scale: 30,000 rows of
// eight columns (six small-range ints, two doubles).
struct StoreSalesFixture {
  StoreSalesFixture() {
    config.sales_rows = 30000;
    config.items = 3000;
    config.customers = 4000;
    TpcdsWorkload::Populate(&db, config);
  }
  TpcdsConfig config;
  Database db;
};

void BM_AnalyzeTable(benchmark::State& state) {
  static StoreSalesFixture fixture;
  const HeapTable& table = *fixture.db.catalog().GetTable("store_sales");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColumnStats::BuildTable(table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_rows()));
}
BENCHMARK(BM_AnalyzeTable)->Unit(benchmark::kMillisecond);

// Planning one SELECT of each of the 25 TPC-DS templates (the argument)
// against wallbench tpcds_tune's tuned index set, hypothetical here.
void BM_PlanSelect(benchmark::State& state) {
  static StoreSalesFixture fixture;
  static const std::vector<IndexStatsView> views =
      IndexConfig({IndexDef("date_dim", {"d_year"}),
                   IndexDef("ds_item", {"i_manufact_id", "i_category"}),
                   IndexDef("store_sales", {"ss_customer_sk"}),
                   IndexDef("store_sales", {"ss_item_sk"}),
                   IndexDef("store_sales", {"ss_promo_sk"}),
                   IndexDef("store_sales", {"ss_sold_date_sk"})})
          .ToStatsViews(fixture.db.catalog());
  const std::string sql = TpcdsWorkload::OneOfEach(
      fixture.config, 1)[static_cast<size_t>(state.range(0))];
  StatusOr<Statement> stmt = ParseSql(sql);
  CheckOk(stmt.status());
  const Planner planner(&fixture.db.catalog(), &fixture.db.stats_manager());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        planner.PlanSelect(*stmt->select, views)->est_total_cost);
  }
  state.SetLabel(std::to_string(stmt->select->from.size()) + " tables");
}
BENCHMARK(BM_PlanSelect)->DenseRange(0, TpcdsWorkload::kNumQueryTemplates - 1);

// A hash join whose outer side is a small build table of `keys` rows
// (0 .. keys-1), hashed, and whose inner side streams 30,000 probe rows
// past it: every probe hits (arg 1) or nearly every probe misses (arg 0).
struct HashJoinFixture {
  explicit HashJoinFixture(int64_t keys) {
    for (const char* name : {"b", "hit", "miss"}) {
      CheckOk(db.CreateTable(name, Schema({{"k", ValueType::kInt}})));
    }
    std::vector<Row> build, hit, miss;
    for (int64_t i = 0; i < keys; ++i) build.push_back({Value(i)});
    for (int64_t i = 0; i < 30000; ++i) {
      hit.push_back({Value(i % keys)});
      miss.push_back({Value(i * 97)});
    }
    CheckOk(db.BulkInsert("b", std::move(build)));
    CheckOk(db.BulkInsert("hit", std::move(hit)));
    CheckOk(db.BulkInsert("miss", std::move(miss)));
    db.Analyze();
  }
  Database db;
};

void BM_HashJoinProbe(benchmark::State& state) {
  static std::map<int64_t, std::unique_ptr<HashJoinFixture>> fixtures;
  std::unique_ptr<HashJoinFixture>& fixture = fixtures[state.range(0)];
  if (fixture == nullptr) {
    fixture = std::make_unique<HashJoinFixture>(state.range(0));
  }
  Database& db = fixture->db;
  const bool hits = state.range(1) != 0;
  StatusOr<Statement> stmt =
      ParseSql(hits ? "SELECT COUNT(*) FROM b, hit WHERE b.k = hit.k"
                    : "SELECT COUNT(*) FROM b, miss WHERE b.k = miss.k");
  CheckOk(stmt.status());
  for (auto _ : state) {
    StatusOr<ExecResult> r = db.Execute(*stmt);
    benchmark::DoNotOptimize(r->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * 30000);
}
BENCHMARK(BM_HashJoinProbe)
    ->ArgsProduct({{21, 365, 3000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Shared fixture state for estimator/MCTS benches.
struct WhatIfFixture {
  WhatIfFixture() {
    CheckOk(db.CreateTable("t", Schema({{"a", ValueType::kInt},
                                        {"b", ValueType::kInt}})));
    std::vector<Row> rows;
    for (int i = 0; i < 50000; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(i % 100))});
    }
    CheckOk(db.BulkInsert("t", std::move(rows)));
    db.Analyze();
    auto parsed = ParseSql("SELECT b FROM t WHERE a = 123");
    stmt = std::make_unique<Statement>(std::move(*parsed));
  }
  Database db;
  std::unique_ptr<Statement> stmt;
};

void BM_WhatIfEstimate(benchmark::State& state) {
  static WhatIfFixture fixture;
  IndexConfig config({IndexDef("t", {"a"})});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.db.WhatIfCost(*fixture.stmt, config).Total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfEstimate);

void BM_MctsIteration(benchmark::State& state) {
  static WhatIfFixture fixture;
  IndexBenefitEstimator estimator(&fixture.db);
  TemplateStore store(100);
  QueryTemplate* t = store.Observe("SELECT b FROM t WHERE a = 123");
  t->frequency = 50.0;
  store.Observe("SELECT a FROM t WHERE b = 7")->frequency = 50.0;
  const WorkloadModel workload =
      WorkloadModel::FromTemplates(store.TemplatesByFrequency());
  const std::vector<IndexDef> candidates = {
      IndexDef("t", {"a"}), IndexDef("t", {"b"}), IndexDef("t", {"a", "b"})};
  const size_t iterations = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    MctsConfig config;
    config.iterations = iterations;
    config.patience = 0;
    MctsIndexSelector selector(&fixture.db, &estimator, config);
    benchmark::DoNotOptimize(
        selector.Run(IndexConfig(), candidates, workload).best_benefit);
  }
  state.SetItemsProcessed(state.iterations() * iterations);
}
BENCHMARK(BM_MctsIteration)->Arg(50)->Arg(200);

}  // namespace
}  // namespace autoindex

BENCHMARK_MAIN();
