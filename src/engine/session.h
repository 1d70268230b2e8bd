#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "engine/executor.h"
#include "sql/parser.h"
#include "util/status.h"

namespace autoindex {

class Database;

// One client connection. Each session owns a private Executor — the
// executor keeps mutable per-statement state (the retained plan snapshot)
// that must not be shared between threads. Every statement, including
// Database::Execute's (which forwards to the database's built-in session),
// runs through Session::Execute.
//
// Statements execute under the database's table latches (shared for
// SELECT on every referenced table, exclusive for writes on the target
// table), so any number of sessions may run against one Database
// concurrently, including while the AutoIndex manager tunes in the
// background. A Session itself is NOT thread-safe: one thread per
// session, many sessions per database.
class Session {
 public:
  explicit Session(Database* db);
  ~Session();

  // Database-unique monotone id, assigned at construction. The service
  // layer (src/net/) hands it to remote clients in the HelloOk handshake
  // so a connection can be correlated with server-side logs/metrics.
  uint64_t id() const { return id_; }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Parses `sql` under a "parse" span of the current trace: the one parse
  // of every text entry point (this class, net::Server, the manager).
  static StatusOr<Statement> Parse(const std::string& sql);

  // Parses and executes one SQL string under statement latches.
  StatusOr<ExecResult> Execute(const std::string& sql);
  // Executes a pre-parsed statement (avoids re-parsing in replay loops).
  StatusOr<ExecResult> Execute(const Statement& stmt);

  // This session's private executor (retained plan snapshot etc.).
  Executor& executor() { return *executor_; }
  const Executor& executor() const { return *executor_; }

  Database& db() { return *db_; }

 private:
  Database* db_;
  uint64_t id_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace autoindex
