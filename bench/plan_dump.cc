// plan_dump: an exactness probe for planner and tuner changes. For each
// seed it repeats wallbench tpcds_tune's set-up: the same data, the same
// 200 queries, two databases on the default indexes, and the second tuned
// to a fixed point after observing every query. It prints each tuning
// round's "+N -M" and the tuned index set, then runs every query on the
// untuned and on the tuned database and prints the executed operator tree
// with its counters and an order-insensitive digest of the result rows.
//
//   plan_dump [SEED...]        (default: seed 1)
//
// The output has no wall-clock field. scripts/plan_diff.sh diffs two
// builds' output with the planner's estimates masked.
//
// The set-up is a copy of wallbench's, piece by piece; each copied piece
// names the wallbench code it must match, and a change there must be
// copied here too.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/manager.h"
#include "engine/database.h"
#include "engine/explain.h"
#include "sql/parser.h"
#include "workload/tpcds.h"

namespace autoindex {
namespace {

// wallbench tpcds_tune's shape: eight instances of each of the 25
// templates, the first of each from a fixed seed, the data from the
// generator's own seed. Must match kQueries and kMaxTuningRounds in
// wallbench/harness/tpcds_bench.cc.
constexpr size_t kQueries = 200;
constexpr int kMaxTuningRounds = 10;

// Must match MakeConfig in wallbench/harness/tpcds_bench.cc.
TpcdsConfig MakeConfig() {
  TpcdsConfig config;
  config.sales_rows = 30000;
  config.items = 3000;
  config.customers = 4000;
  return config;
}

// Must match the query list RunTpcdsTune builds in
// wallbench/harness/tpcds_bench.cc.
std::vector<std::string> MakeQueries(const TpcdsConfig& config,
                                     uint64_t seed) {
  std::vector<std::string> queries = TpcdsWorkload::OneOfEach(config, 1);
  for (std::string& q : TpcdsWorkload::Generate(
           config, kQueries - queries.size(), seed * 104729 + 3)) {
    queries.push_back(std::move(q));
  }
  return queries;
}

// Must match SetupDatabase in wallbench/harness/tpcds_bench.cc.
std::unique_ptr<Database> SetupDatabase(const TpcdsConfig& config) {
  auto db = std::make_unique<Database>();
  TpcdsWorkload::Populate(db.get(), config);
  TpcdsWorkload::CreateDefaultIndexes(db.get());
  db->Analyze();
  return db;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A sum of per-row hashes, so row order does not matter. Doubles are
// rounded to 9 significant digits first: a SUM folded in another join
// order may differ in its last bits.
uint64_t ResultDigest(const std::vector<Row>& rows) {
  uint64_t digest = 0;
  for (const Row& row : rows) {
    std::string text;
    for (const Value& v : row) {
      char buf[64];
      if (v.type() == ValueType::kDouble && !v.is_null()) {
        std::snprintf(buf, sizeof(buf), "%.9g|", v.AsDouble());
        text += buf;
      } else {
        text += v.ToString() + "|";
      }
    }
    digest += Mix(std::hash<std::string>()(text));
  }
  return digest;
}

std::string DescribeIndexes(const Database& db) {
  std::vector<std::string> keys;
  for (const BuiltIndex* index : db.index_manager().AllIndexes()) {
    keys.push_back(index->def().DisplayName());
  }
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const std::string& k : keys) out += " " + k;
  return out;
}

// Tunes `db` to a fixed point and prints each round's changes, the total
// and the churn (indexes dropped after an earlier round of this run built
// them). The observation, the round loop and the hook reset must match
// RunTpcdsTune in wallbench/harness/tpcds_bench.cc and TuneToFixpoint in
// wallbench/harness/report.cc.
void TuneAndReport(Database* db, const std::vector<std::string>& queries) {
  AutoIndexManager manager(db, AutoIndexConfig());
  for (const std::string& sql : queries) manager.ObserveOnly(sql);
  std::vector<std::string> added_keys;
  size_t added = 0, dropped = 0, churn = 0;
  for (int round = 0; round < kMaxTuningRounds; ++round) {
    const TuningResult r = manager.RunManagementRound(/*apply=*/true);
    std::printf("round %d: +%zu -%zu\n", round, r.added.size(),
                r.removed.size());
    for (const IndexDef& def : r.added) {
      std::printf("  + %s\n", def.DisplayName().c_str());
    }
    for (const IndexDef& def : r.removed) {
      std::printf("  - %s\n", def.DisplayName().c_str());
      if (std::find(added_keys.begin(), added_keys.end(), def.Key()) !=
          added_keys.end()) {
        ++churn;
      }
    }
    for (const ApplyError& e : r.apply_errors) {
      std::printf("  apply error: %s: %s\n", e.def.Key().c_str(),
                  e.message.c_str());
    }
    for (const IndexDef& def : r.added) added_keys.push_back(def.Key());
    added += r.added.size();
    dropped += r.removed.size();
    if (r.added.empty() && r.removed.empty()) break;
  }
  std::printf("tuning: +%zu -%zu, churn %zu\n", added, dropped, churn);
  // The manager registered a feedback hook on the database; remove it
  // before the manager goes.
  db->set_execution_feedback_hook(nullptr);
}

void DumpQueries(Database* db, const char* side,
                 const std::vector<std::string>& queries) {
  db->executor().set_plan_detail(true);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::printf("-- %s q%zu: %s\n", side, i, queries[i].c_str());
    StatusOr<Statement> stmt = ParseSql(queries[i]);
    StatusOr<ExecResult> r = stmt.ok() ? db->Execute(*stmt)
                                       : StatusOr<ExecResult>(stmt.status());
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      continue;
    }
    if (r->plan != nullptr) {
      std::printf("%s", RenderPlanSnapshot(*r->plan, true).c_str());
    }
    std::printf("result: %zu rows, digest %016llx\n", r->rows.size(),
                static_cast<unsigned long long>(ResultDigest(r->rows)));
  }
  db->executor().set_plan_detail(false);
}

}  // namespace
}  // namespace autoindex

int main(int argc, char** argv) {
  using namespace autoindex;
  std::vector<uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0') {
      std::fprintf(stderr, "usage: %s [SEED...]\n", argv[0]);
      return 2;
    }
    seeds.push_back(seed);
  }
  if (seeds.empty()) seeds.push_back(1);
  const TpcdsConfig config = MakeConfig();
  for (uint64_t seed : seeds) {
    std::printf("=== seed %llu\n", static_cast<unsigned long long>(seed));
    const std::vector<std::string> queries = MakeQueries(config, seed);
    std::unique_ptr<Database> untuned = SetupDatabase(config);
    std::unique_ptr<Database> tuned = SetupDatabase(config);
    TuneAndReport(tuned.get(), queries);
    std::printf("tuned set:%s\n", DescribeIndexes(*tuned).c_str());
    DumpQueries(untuned.get(), "untuned", queries);
    DumpQueries(tuned.get(), "tuned", queries);
  }
  return 0;
}
