// Standalone AutoIndex server: exposes one Database over TCP via the
// src/net/ service layer so remote shells and benches can drive it.
//
//   $ ./build/examples/autoindex_server --workload tpcc --port 0
//   LISTENING 43187
//
// Prints "LISTENING <port>" (the ephemeral port when --port 0) once it
// accepts connections — scripts/check.sh parses that line. Stops on
// SIGINT/SIGTERM or a client's \shutdown, drains in-flight statements,
// and exits 0 only when the drain lost nothing and every connection
// closed (the "leaked connections" gate).
//
//   --port N                  bind port (0 = ephemeral, the default)
//   --host H                  bind address (default 127.0.0.1)
//   --workload demo|tpcc|none initial data (default demo)
//   --max-connections N       admission: connection cap (default 64)
//   --max-inflight N          admission: concurrent statements (default 32)
//   --idle-timeout-ms N       per-connection idle limit (default 0 = off)
//   --statement-timeout-us N  per-statement deadline (default 0 = off)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "engine/database.h"
#include "net/server.h"
#include "util/random.h"
#include "workload/tpcc.h"

using namespace autoindex;  // NOLINT — example brevity

namespace {

void LoadDemo(Database* db) {
  CheckOk(db->CreateTable("orders", Schema({{"order_id", ValueType::kInt},
                                            {"customer_id", ValueType::kInt},
                                            {"status", ValueType::kInt},
                                            {"amount", ValueType::kDouble}})));
  Random rng(42);
  std::vector<Row> rows;
  for (int i = 0; i < 50000; ++i) {
    rows.push_back({Value(int64_t(i)), Value(int64_t(rng.Uniform(5000))),
                    Value(int64_t(rng.Uniform(7))),
                    Value(rng.NextDouble() * 500.0)});
  }
  CheckOk(db->BulkInsert("orders", std::move(rows)));
  db->Analyze();
  std::printf("loaded demo table orders (50000 rows)\n");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--host H] [--workload demo|tpcc|none]\n"
               "          [--max-connections N] [--max-inflight N]\n"
               "          [--idle-timeout-ms N] [--statement-timeout-us N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerConfig config;
  std::string workload = "demo";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    bool ok = true;
    if (arg == "--port") {
      ok = next_int(&config.port);
    } else if (arg == "--host") {
      ok = i + 1 < argc;
      if (ok) config.host = argv[++i];
    } else if (arg == "--workload") {
      ok = i + 1 < argc;
      if (ok) workload = argv[++i];
    } else if (arg == "--max-connections") {
      ok = next_int(&config.max_connections);
    } else if (arg == "--max-inflight") {
      ok = next_int(&config.max_inflight_statements);
    } else if (arg == "--idle-timeout-ms") {
      ok = next_int(&config.idle_timeout_ms);
    } else if (arg == "--statement-timeout-us") {
      ok = next_int(&config.statement_timeout_us);
    } else {
      ok = false;
    }
    if (!ok) return Usage(argv[0]);
  }

  Database db;
  if (workload == "demo") {
    LoadDemo(&db);
  } else if (workload == "tpcc") {
    const TpccConfig tpcc;
    TpccWorkload::Populate(&db, tpcc);
    db.Analyze();
    std::printf("loaded TPC-C tables\n");
  } else if (workload != "none") {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return Usage(argv[0]);
  }

  net::Server server(&db, config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  Status signals = server.InstallSignalHandlers();
  if (!signals.ok()) {
    std::fprintf(stderr, "signal setup failed: %s\n",
                 signals.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %d\n", server.port());
  std::fflush(stdout);

  server.WaitUntilStopped();

  const net::ServerStats stats = server.stats();
  const size_t open = server.open_connections();
  const bool clean =
      open == 0 && stats.requests_started == stats.responses_sent;
  std::printf(
      "SHUTDOWN %s open=%zu connections=%llu rejected=%llu "
      "requests=%llu responses=%llu busy=%llu idle_disconnects=%llu "
      "statement_timeouts=%llu\n",
      clean ? "clean" : "DIRTY", open,
      (unsigned long long)stats.connections_total,
      (unsigned long long)stats.connections_rejected,
      (unsigned long long)stats.requests_started,
      (unsigned long long)stats.responses_sent,
      (unsigned long long)stats.busy_rejections,
      (unsigned long long)stats.idle_disconnects,
      (unsigned long long)stats.statement_timeouts);
  // The service-layer metrics, so a scrape of the final state is in the
  // log (the bench drives these same series remotely).
  std::printf("%s", db.RenderMetricsText("net.").c_str());
  return clean ? 0 : 1;
}
