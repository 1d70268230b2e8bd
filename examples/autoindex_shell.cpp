// An interactive shell over the engine + AutoIndex: type SQL, see rows and
// per-query cost; meta-commands drive the index manager.
//
//   $ ./build/examples/autoindex_shell
//   autoindex> CREATE TABLE is not SQL here — tables come from \demo
//   autoindex> \demo            (loads a small demo table)
//   autoindex> SELECT * FROM orders WHERE customer_id = 42
//   autoindex> \diagnose
//   autoindex> \tune
//   autoindex> \indexes
//   autoindex> \save /tmp/aidb       (checkpoint + WAL into a directory)
//   autoindex> \open /tmp/aidb       (recover a saved database)
//   autoindex> \wal status
//   autoindex> \quit
//
// Remote mode: `autoindex_shell --connect host:port` attaches to a
// running autoindex_server instead of embedding an engine. SQL executes
// remotely; \ping probes the server, \shutdown drains and stops it.

#include <sys/stat.h>

#include <cctype>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "check/validator.h"
#include "core/manager.h"
#include "engine/explain.h"
#include "net/client.h"
#include "persist/io.h"
#include "persist/snapshot.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace autoindex;  // NOLINT — example brevity

namespace {

void LoadDemo(Database* db) {
  if (db->catalog().GetTable("orders") != nullptr) {
    std::printf("demo already loaded\n");
    return;
  }
  CheckOk(db->CreateTable("orders", Schema({{"order_id", ValueType::kInt},
                                            {"customer_id", ValueType::kInt},
                                            {"status", ValueType::kInt},
                                            {"amount", ValueType::kDouble}})));
  Random rng(42);
  std::vector<Row> rows;
  for (int i = 0; i < 50000; ++i) {
    rows.push_back({Value(int64_t(i)),
                    Value(int64_t(rng.Uniform(5000))),
                    Value(int64_t(rng.Uniform(7))),
                    Value(rng.NextDouble() * 500.0)});
  }
  CheckOk(db->BulkInsert("orders", std::move(rows)));
  db->Analyze();
  std::printf("loaded table orders (50000 rows)\n");
}

void PrintRows(const std::vector<Row>& rows, size_t cap = 20) {
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= cap) {
      std::printf("... (%zu more rows)\n", rows.size() - cap);
      break;
    }
    std::string line = "  ";
    for (const Value& v : row) line += v.ToString() + "\t";
    std::printf("%s\n", line.c_str());
  }
}

void PrintIndexes(const Database& db) {
  // AnyState: in-flight builds show up as "building" while ready indexes
  // (the planner's view) report "ready".
  const auto all = db.index_manager().AllIndexesAnyState();
  if (all.empty()) {
    std::printf("(no indexes)\n");
    return;
  }
  for (const BuiltIndex* index : all) {
    std::printf("  %-40s %-8s %8.2f MiB  entries=%zu height=%zu uses=%zu\n",
                index->def().DisplayName().c_str(),
                IndexStateName(index->state()),
                index->SizeBytes() / 1048576.0, index->num_entries(),
                index->height(), index->uses());
  }
}

AutoIndexConfig ShellConfig() {
  AutoIndexConfig config;
  config.mcts.iterations = 200;
  return config;
}

// Thin client REPL against a running autoindex_server: SQL round-trips
// over the wire protocol; meta-commands are the connection-level subset
// (\ping \shutdown \quit — tuning/persistence stay server-side).
int RunRemoteShell(const std::string& spec) {
  std::string host;
  int port = 0;
  Status parsed = net::ParseHostPort(spec, &host, &port);
  if (!parsed.ok()) {
    std::printf("bad --connect argument: %s\n", parsed.ToString().c_str());
    return 2;
  }
  net::Client client;
  Status connected = client.Connect(host, port);
  if (!connected.ok()) {
    std::printf("connect failed: %s\n", connected.ToString().c_str());
    return 1;
  }
  std::printf("connected to %s:%d (session %llu) — \\metrics \\ping "
              "\\shutdown \\quit; SQL executes remotely\n",
              host.c_str(), port,
              static_cast<unsigned long long>(client.session_id()));
  std::string line;
  while (true) {
    std::printf("autoindex(%s:%d)> ", host.c_str(), port);
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string input(Trim(line));
    if (input.empty()) continue;

    if (input[0] == '\\') {
      std::istringstream iss(input.substr(1));
      std::string cmd;
      iss >> cmd;
      if (cmd == "quit" || cmd == "q") break;
      if (cmd == "ping") {
        const util::Stopwatch watch;
        Status pong = client.Ping();
        if (pong.ok()) {
          std::printf("pong (%.2f ms)\n", watch.ElapsedMs());
        } else {
          std::printf("ping failed: %s\n", pong.ToString().c_str());
          if (!client.connected()) return 1;
        }
      } else if (cmd == "shutdown") {
        Status bye = client.Shutdown();
        if (bye.ok()) {
          std::printf("server acknowledged shutdown, draining\n");
          return 0;
        }
        std::printf("shutdown failed: %s\n", bye.ToString().c_str());
        return 1;
      } else if (cmd == "metrics") {
        // Remote scrape: the server renders its own registry (satisfying
        // prefix filter server-side) and ships the text back.
        std::string prefix;
        iss >> prefix;
        StatusOr<std::string> text = client.Metrics(prefix);
        if (!text.ok()) {
          std::printf("metrics failed: %s\n",
                      text.status().ToString().c_str());
          if (!client.connected()) return 1;
        } else if (text->empty()) {
          std::printf("no metrics%s%s yet\n", prefix.empty() ? "" : " under ",
                      prefix.c_str());
        } else {
          std::printf("%s", text->c_str());
        }
      } else {
        std::printf("unknown remote command \\%s (have \\metrics \\ping "
                    "\\shutdown \\quit)\n",
                    cmd.c_str());
      }
      continue;
    }

    StatusOr<net::QueryResult> result = client.Query(input);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      if (!client.connected()) {
        std::printf("connection lost\n");
        return 1;
      }
      continue;
    }
    PrintRows(result->rows);
    const CostBreakdown cost = result->stats.ToCost();
    std::printf("(%zu rows, cost %.2f%s)\n", result->rows.size(),
                cost.Total(),
                result->stats.used_index ? ", via index" : "");
  }
  client.Close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--connect") {
    return RunRemoteShell(argv[2]);
  }
  if (argc != 1) {
    std::printf("usage: %s [--connect host:port]\n", argv[0]);
    return 2;
  }
  // The database/manager/WAL live behind pointers so \open can swap in a
  // recovered instance. Teardown order matters: the manager observes the
  // database, and the database holds a raw pointer to the WAL.
  auto db = std::make_unique<Database>();
  auto manager = std::make_unique<AutoIndexManager>(db.get(), ShellConfig());
  std::unique_ptr<persist::Wal> wal;

  std::printf("AutoIndex shell — \\demo \\tune \\diagnose \\indexes "
              "\\templates \\explain [analyze] <sql> \\budget <MiB> "
              "\\check [on|off] \\metrics [prefix] \\trace show|dump "
              "\\save <dir> \\open <dir> \\wal status \\quit\n");
  std::string line;
  while (true) {
    std::printf("autoindex> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string input(Trim(line));
    if (input.empty()) continue;

    if (input[0] == '\\') {
      std::istringstream iss(input.substr(1));
      std::string cmd;
      iss >> cmd;
      if (cmd == "quit" || cmd == "q") break;
      if (cmd == "demo") {
        LoadDemo(db.get());
      } else if (cmd == "indexes") {
        PrintIndexes(*db);
      } else if (cmd == "templates") {
        for (const QueryTemplate* t :
             manager->templates().TemplatesByFrequency()) {
          std::printf("  %8.1f  %s\n", t->frequency,
                      t->fingerprint.c_str());
        }
      } else if (cmd == "budget") {
        double mib = 0;
        if (iss >> mib) {
          manager->set_storage_budget(
              static_cast<size_t>(mib * 1048576.0));
          std::printf("storage budget set to %.1f MiB\n", mib);
        } else {
          std::printf("usage: \\budget <MiB>\n");
        }
      } else if (cmd == "check") {
        // "\check" validates every structure now; "\check on" keeps doing
        // it after each mutation batch, "\check off" stops.
        std::string mode;
        iss >> mode;
        if (mode == "on") {
          InstallDebugChecks(db.get());
          std::printf("debug checks on: structures validated after every "
                      "mutation batch\n");
        } else if (mode == "off") {
          InstallDebugChecks(db.get(), /*install=*/false);
          std::printf("debug checks off\n");
        } else if (mode.empty()) {
          const CheckReport report = CheckAll(*db);
          std::printf("%s\n", report.ToString().c_str());
        } else {
          std::printf("usage: \\check [on|off]\n");
        }
      } else if (cmd == "metrics") {
        // "\metrics" dumps every series; "\metrics wal." just that
        // subsystem. Prometheus text format, same as RenderMetricsText.
        std::string prefix;
        iss >> prefix;
        const std::string text = db->RenderMetricsText(prefix);
        if (text.empty()) {
          std::printf("no metrics%s%s yet\n", prefix.empty() ? "" : " under ",
                      prefix.c_str());
        } else {
          std::printf("%s", text.c_str());
        }
      } else if (cmd == "trace") {
        // "\trace show [n]" renders the most recent flight-recorder
        // traces as indented span trees; "\trace dump <file>" writes the
        // whole ring as Chrome trace-event JSON (chrome://tracing,
        // Perfetto).
        std::string sub;
        iss >> sub;
        if (sub == "show") {
          size_t n = 5;
          iss >> n;
          std::printf("%s", db->RenderTraceTrees(n).c_str());
        } else if (sub == "dump") {
          std::string file;
          iss >> file;
          if (file.empty()) {
            std::printf("usage: \\trace dump <file>\n");
            continue;
          }
          Status written = persist::AtomicWriteFile(file, db->DumpTraces());
          if (written.ok()) {
            std::printf("wrote traces to %s\n", file.c_str());
          } else {
            std::printf("dump failed: %s\n", written.ToString().c_str());
          }
        } else {
          std::printf("usage: \\trace show [n] | \\trace dump <file>\n");
        }
      } else if (cmd == "diagnose") {
        DiagnosisReport report = manager->Diagnose();
        std::printf("built=%zu unbuilt-beneficial=%zu rarely-used=%zu "
                    "negative=%zu -> problem ratio %.2f, %s\n",
                    report.built_indexes,
                    report.unbuilt_beneficial.size(),
                    report.rarely_used.size(),
                    report.negative_benefit.size(), report.problem_ratio,
                    report.should_tune ? "TUNE" : "healthy");
      } else if (cmd == "explain") {
        std::string rest;
        std::getline(iss, rest);
        std::string sql(Trim(rest));
        // "\explain analyze <sql>" executes and shows measured counters.
        bool analyze = false;
        if (sql.size() >= 7) {
          std::string head = sql.substr(0, 7);
          for (char& c : head) c = static_cast<char>(std::tolower(c));
          if (head == "analyze") {
            analyze = true;
            sql = std::string(Trim(sql.substr(7)));
          }
        }
        auto plan = analyze ? ExplainAnalyzeSql(*db, sql) : ExplainSql(*db, sql);
        if (plan.ok()) {
          std::printf("%s", plan->c_str());
        } else {
          std::printf("error: %s\n", plan.status().ToString().c_str());
        }
      } else if (cmd == "tune") {
        TuningResult r = manager->RunManagementRound();
        std::printf("round done in %.1f ms: +%zu / -%zu indexes "
                    "(est. benefit %.1f)\n",
                    r.elapsed_ms, r.added.size(), r.removed.size(),
                    r.est_benefit);
        for (const IndexDef& d : r.added) {
          std::printf("  + %s\n", d.DisplayName().c_str());
        }
        for (const IndexDef& d : r.removed) {
          std::printf("  - %s\n", d.DisplayName().c_str());
        }
        for (const ApplyError& e : r.apply_errors) {
          std::printf("  ! %s %s failed: %s\n", e.drop ? "drop" : "create",
                      e.def.DisplayName().c_str(), e.message.c_str());
        }
      } else if (cmd == "save") {
        std::string dir;
        iss >> dir;
        if (dir.empty()) {
          std::printf("usage: \\save <dir>\n");
          continue;
        }
        ::mkdir(dir.c_str(), 0755);  // EEXIST is fine
        StatusOr<uint64_t> version =
            persist::SaveSnapshot(db.get(), manager.get(), dir);
        if (!version.ok()) {
          std::printf("save failed: %s\n",
                      version.status().ToString().c_str());
          continue;
        }
        if (wal == nullptr) {
          // First save: start logging statements so the snapshot stays
          // current without another \save.
          auto created = persist::Wal::Create(persist::WalPath(dir), *version);
          if (created.ok()) {
            wal = std::move(*created);
            db->set_durability_log(wal.get());
          } else {
            std::printf("warning: WAL not started: %s\n",
                        created.status().ToString().c_str());
          }
        }
        std::printf("saved snapshot at data version %llu to %s\n",
                    static_cast<unsigned long long>(*version), dir.c_str());
      } else if (cmd == "open") {
        std::string dir;
        iss >> dir;
        if (dir.empty()) {
          std::printf("usage: \\open <dir>\n");
          continue;
        }
        auto fresh_db = std::make_unique<Database>();
        auto fresh_manager =
            std::make_unique<AutoIndexManager>(fresh_db.get(), ShellConfig());
        persist::RecoveryReport report;
        StatusOr<std::unique_ptr<persist::Wal>> opened = persist::OpenSnapshot(
            fresh_db.get(), fresh_manager.get(), dir, &report);
        if (!opened.ok()) {
          std::printf("open failed: %s\n",
                      opened.status().ToString().c_str());
          continue;
        }
        // Swap in the recovered instance; drop the old one (manager first,
        // then database, then its WAL).
        manager = std::move(fresh_manager);
        db->set_durability_log(nullptr);
        db = std::move(fresh_db);
        wal = std::move(*opened);
        std::printf(
            "recovered %zu tables (%zu rows), %zu indexes rebuilt, "
            "%zu WAL records replayed%s, data version %llu%s\n",
            report.tables_restored, report.rows_restored,
            report.indexes_rebuilt, report.wal_records_replayed,
            report.info.wal_bytes_truncated > 0 ? " (torn tail dropped)" : "",
            static_cast<unsigned long long>(
                report.info.recovered_data_version),
            report.tuning_state_restored ? ", tuning state restored" : "");
      } else if (cmd == "wal") {
        std::string sub;
        iss >> sub;
        if (sub != "status") {
          std::printf("usage: \\wal status\n");
        } else if (wal == nullptr) {
          std::printf("no WAL attached (use \\save <dir> or "
                      "\\open <dir>)\n");
        } else {
          std::printf("wal %s: epoch=%llu records=%llu size=%llu bytes\n",
                      wal->path().c_str(),
                      static_cast<unsigned long long>(wal->epoch()),
                      static_cast<unsigned long long>(wal->records_appended()),
                      static_cast<unsigned long long>(wal->size_bytes()));
        }
      } else {
        std::printf("unknown command \\%s\n", cmd.c_str());
      }
      continue;
    }

    StatusOr<ExecResult> result = manager->ExecuteAndObserve(input);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintRows(result->rows);
    const CostBreakdown cost = result->stats.ToCost();
    std::printf("(%zu rows, cost %.2f%s)\n", result->rows.size(),
                cost.Total(),
                result->stats.used_index ? ", via index" : "");
  }
  return 0;
}
