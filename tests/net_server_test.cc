// Server integration tests (DESIGN.md §12), all over real loopback TCP:
// concurrent remote clients must see byte-identical results to
// in-process execution, admission limits must shed with explicit kBusy
// (never hang or queue unboundedly), idle/statement timeouts must fire,
// the graceful drain must lose no admitted statement, and the handshake
// must refuse a protocol-version mismatch. Runs under the TSan stage
// (ctest -L concurrency): every thread here races against the server's
// accept loop and worker pool by design.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/validator.h"
#include "engine/database.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/metrics.h"
#include "util/random.h"

namespace autoindex {
namespace net {
namespace {

constexpr int kNumClients = 4;

// One private table per client so the concurrent differential replay is
// deterministic: no client's statements touch another's table, and the
// trace is pure SELECT, so remote results must equal the in-process
// results computed before the server ever started.
void PopulatePrivateTables(Database* db) {
  for (int t = 0; t < kNumClients; ++t) {
    const std::string name = "t" + std::to_string(t);
    CheckOk(db->CreateTable(name, Schema({{"id", ValueType::kInt},
                                          {"v", ValueType::kInt},
                                          {"w", ValueType::kDouble}}))
                .status());
    Random rng(100 + t);
    std::vector<Row> rows;
    for (int i = 0; i < 400; ++i) {
      rows.push_back({Value(int64_t(i)), Value(int64_t(rng.Uniform(40))),
                      Value(rng.NextDouble() * 10.0)});
    }
    CheckOk(db->BulkInsert(name, std::move(rows)));
  }
  db->Analyze();
}

std::vector<std::string> ClientTrace(int client) {
  const std::string t = "t" + std::to_string(client);
  std::vector<std::string> trace;
  for (int k = 0; k < 40; ++k) {
    trace.push_back("SELECT * FROM " + t + " WHERE v = " +
                    std::to_string(k));
    trace.push_back("SELECT * FROM " + t + " WHERE v >= " +
                    std::to_string(k) + " AND v <= " + std::to_string(k + 3));
  }
  return trace;
}

TEST(NetServer, ConcurrentRemoteClientsMatchInProcess) {
  Database db;
  PopulatePrivateTables(&db);

  // Ground truth first, in-process, single-threaded.
  std::vector<std::vector<std::vector<Row>>> expected(kNumClients);
  for (int c = 0; c < kNumClients; ++c) {
    for (const std::string& sql : ClientTrace(c)) {
      StatusOr<ExecResult> r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      expected[c].push_back(r->rows);
    }
  }

  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kNumClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failures.fetch_add(1000);
        return;
      }
      const std::vector<std::string> trace = ClientTrace(c);
      for (size_t q = 0; q < trace.size(); ++q) {
        StatusOr<QueryResult> r = client.Query(trace[q]);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::vector<Row>& want = expected[c][q];
        bool same = r->rows.size() == want.size();
        for (size_t i = 0; same && i < want.size(); ++i) {
          same = CompareRows(r->rows[i], want[i]) == 0;
        }
        if (!same) mismatches.fetch_add(1);
      }
      client.Close();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_total, static_cast<uint64_t>(kNumClients));
  EXPECT_EQ(stats.requests_started, stats.responses_sent);
  EXPECT_EQ(server.open_connections(), 0u);

  // The net.* metrics series must have moved (process-global registry),
  // unless metrics are compiled out and every update is a no-op.
  uint64_t requests = 0, connections = 0;
  for (const auto& m : db.MetricsSnapshot("net.")) {
    if (m.name == "net.requests_total") requests = m.counter;
    if (m.name == "net.connections_total") connections = m.counter;
  }
  EXPECT_EQ(requests > 0, util::kMetricsEnabled);
  EXPECT_EQ(connections > 0, util::kMetricsEnabled);
}

TEST(NetServer, ConnectionCapShedsWithBusy) {
  Database db;
  ServerConfig config;
  config.max_connections = 2;
  Server server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  Client a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  const Status shed = c.Connect("127.0.0.1", server.port());
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(IsServerBusy(shed)) << shed.ToString();

  a.Close();
  b.Close();
  server.Stop();
  EXPECT_GE(server.stats().connections_rejected, 1u);
  EXPECT_GE(server.stats().busy_rejections, 1u);
}

TEST(NetServer, InflightCapShedsWithBusy) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"id", ValueType::kInt}})).status());
  CheckOk(db.BulkInsert("t", {{Value(int64_t(1))}}));

  ServerConfig config;
  config.max_inflight_statements = 1;
  Server server(&db, config);

  // The hook runs with the statement's in-flight slot held: block the
  // first admitted statement until the test has observed the shed.
  std::atomic<bool> first{true};
  std::atomic<bool> hook_entered{false};
  std::atomic<bool> release{false};
  server.set_statement_hook([&] {
    if (first.exchange(false)) {
      hook_entered.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  ASSERT_TRUE(server.Start().ok());

  Client blocked;
  ASSERT_TRUE(blocked.Connect("127.0.0.1", server.port()).ok());
  std::thread holder([&] {
    // Holds the only in-flight slot until `release`.
    blocked.Query("SELECT * FROM t").ok();
  });
  while (!hook_entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Client shed;
  ASSERT_TRUE(shed.Connect("127.0.0.1", server.port()).ok());
  StatusOr<QueryResult> r = shed.Query("SELECT * FROM t");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(IsServerBusy(r.status())) << r.status().ToString();
  // The shed is non-fatal: once the slot frees up, the same connection
  // executes fine.
  release.store(true);
  holder.join();
  StatusOr<QueryResult> retry = shed.Query("SELECT * FROM t");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();

  blocked.Close();
  shed.Close();
  server.Stop();
  EXPECT_GE(server.stats().busy_rejections, 1u);
  EXPECT_EQ(server.stats().requests_started,
            server.stats().responses_sent);
}

TEST(NetServer, IdleConnectionsDisconnected) {
  Database db;
  ServerConfig config;
  config.idle_timeout_ms = 50;
  Server server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Exceed the idle limit, then try to use the connection: the server
  // has already closed it (with a courtesy Error frame).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const Status ping = client.Ping();
  EXPECT_FALSE(ping.ok());

  server.Stop();
  EXPECT_GE(server.stats().idle_disconnects, 1u);
}

TEST(NetServer, StatementTimeoutReturnsDeadlineExceeded) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"id", ValueType::kInt}})).status());
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back({Value(int64_t(i))});
  CheckOk(db.BulkInsert("t", std::move(rows)));
  db.Analyze();

  ServerConfig config;
  config.statement_timeout_us = 1;  // every statement overruns
  Server server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  StatusOr<QueryResult> r = client.Query("SELECT * FROM t WHERE id >= 0");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
      << r.status().ToString();
  // Post-hoc deadline: the connection survives; the next statement runs
  // (and times out again) on the same session.
  StatusOr<QueryResult> again = client.Query("SELECT * FROM t WHERE id = 1");
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(client.connected());

  client.Close();
  server.Stop();
  EXPECT_GE(server.stats().statement_timeouts, 2u);
  EXPECT_EQ(server.stats().requests_started,
            server.stats().responses_sent);
}

TEST(NetServer, StatementTimeoutNeverFailsACommittedWrite) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"id", ValueType::kInt}})).status());
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back({Value(int64_t(i))});
  CheckOk(db.BulkInsert("t", std::move(rows)));
  db.Analyze();
  // Every write then runs a full CheckAll over the 5000 rows inside the
  // timed statement, so the INSERT surely overruns its 1 us deadline.
  InstallDebugChecks(&db);

  ServerConfig config;
  config.statement_timeout_us = 1;
  Server server(&db, config);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // The write committed, so it is reported as done despite the overrun.
  StatusOr<QueryResult> insert = client.Query("INSERT INTO t VALUES (90001)");
  EXPECT_TRUE(insert.ok()) << insert.status().ToString();
  StatusOr<ExecResult> local = db.Execute("SELECT id FROM t WHERE id = 90001");
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local->rows.size(), 1u);
  // A read that overruns still loses its rows.
  StatusOr<QueryResult> select = client.Query("SELECT * FROM t WHERE id >= 0");
  ASSERT_FALSE(select.ok());
  EXPECT_EQ(select.status().code(), StatusCode::kOutOfRange)
      << select.status().ToString();

  client.Close();
  server.Stop();
  EXPECT_GE(server.stats().statement_timeouts, 2u);
}

TEST(NetServer, GracefulDrainUnderLoadLosesNothing) {
  Database db;
  PopulatePrivateTables(&db);
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  // Clients hammer the server until their connection dies; the drain
  // begins mid-load. Every response that arrives after RequestShutdown
  // proves in-flight statements were finished, not dropped.
  std::atomic<uint64_t> ok_replies{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kNumClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      const std::vector<std::string> trace = ClientTrace(c);
      for (int round = 0; round < 200 && client.connected(); ++round) {
        StatusOr<QueryResult> r = client.Query(trace[round % trace.size()]);
        if (r.ok()) ok_replies.fetch_add(1);
      }
      client.Close();
    });
  }
  // Let the load get going, then pull the plug.
  while (ok_replies.load() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.RequestShutdown();
  server.WaitUntilStopped();
  for (std::thread& t : threads) t.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_started, stats.responses_sent)
      << "drain dropped an admitted statement";
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_GE(ok_replies.load(), 20u);

  // New connections are refused once draining.
  Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port()).ok());
}

TEST(NetServer, RemoteMetricsScrape) {
  Database db;
  CheckOk(db.CreateTable("t", Schema({{"id", ValueType::kInt}})).status());
  CheckOk(db.BulkInsert("t", {{Value(int64_t(1))}}));
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Run one statement so the exec-path series exist before the scrape.
  ASSERT_TRUE(client.Query("SELECT * FROM t").ok());

  // Unfiltered scrape: full Prometheus exposition, including the static
  // build-info gauge and at least one series the statement just moved.
  StatusOr<std::string> all = client.Metrics();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_NE(all->find("autoindex_build_info{"), std::string::npos);
  EXPECT_NE(all->find("autoindex_uptime_seconds"), std::string::npos);
  EXPECT_NE(all->find("net_requests_total"), std::string::npos);

  // Prefix filter matches the local `\metrics <prefix>` semantics: it
  // selects on registry names ("net."), not rendered Prometheus names.
  StatusOr<std::string> net_only = client.Metrics("net.");
  ASSERT_TRUE(net_only.ok()) << net_only.status().ToString();
  EXPECT_NE(net_only->find("net_requests_total"), std::string::npos);
  EXPECT_EQ(net_only->find("autoindex_uptime_seconds"), std::string::npos);

  // A metrics scrape is not a statement: it must not consume an
  // in-flight slot or count toward request/response accounting drift.
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().requests_started,
            server.stats().responses_sent);
}

TEST(NetServer, VersionMismatchRefused) {
  Database db;
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<Socket> sock = Socket::ConnectTcp("127.0.0.1", server.port(),
                                             /*timeout_ms=*/2000);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  Message hello = Message::Hello();
  hello.protocol_version = 99;
  ASSERT_TRUE(SendFrame(&*sock, hello, /*timeout_ms=*/2000).ok());
  Message reply;
  ASSERT_TRUE(ReadFrame(&*sock, &reply, /*timeout_ms=*/2000).ok());
  EXPECT_EQ(reply.type, MessageType::kError);

  // The Client wrapper surfaces the same refusal as a clean Status.
  Client client;
  const Status direct = client.Connect("127.0.0.1", server.port());
  EXPECT_TRUE(direct.ok());  // correct version: fine
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace autoindex
