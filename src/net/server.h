#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "util/mutex.h"

namespace autoindex {

class Database;

namespace net {

// Service-layer configuration (DESIGN.md §12).
struct ServerConfig {
  // Bind address. Port 0 asks the kernel for an ephemeral port; the
  // actual port is reported by Server::port() after Start().
  std::string host = "127.0.0.1";
  int port = 0;

  // Admission control. Both limits shed load with an explicit kBusy
  // response instead of queueing unboundedly: a connection over
  // max_connections is told "busy" and closed right after accept; a
  // Query over max_inflight_statements is refused without executing.
  // The per-connection in-flight count is 1 by protocol construction
  // (strict request/response), so max_inflight_statements bounds the
  // number of *concurrently executing* statements across the server.
  int max_connections = 64;
  int max_inflight_statements = 32;

  // Per-connection idle timeout: a connection that sends nothing for
  // this long between requests is closed. 0 disables.
  int idle_timeout_ms = 0;

  // Per-statement deadline, enforced post-hoc: the engine has no
  // cancellation points yet, so a statement that overruns still finishes.
  // A read's rows are then discarded and the client receives kOutOfRange
  // ("statement deadline exceeded"); a write that committed is reported
  // as done. Every overrun is counted. 0 disables.
  int statement_timeout_us = 0;
};

// Counters the drain invariant is checked against (tests, the server
// binary's exit report). All monotone over the server's lifetime.
struct ServerStats {
  uint64_t connections_total = 0;
  uint64_t connections_rejected = 0;
  uint64_t requests_started = 0;   // Query frames admitted for execution
  uint64_t responses_sent = 0;     // kResult frames fully written
  uint64_t busy_rejections = 0;    // kBusy responses (either limit)
  uint64_t idle_disconnects = 0;
  uint64_t statement_timeouts = 0;
};

// TCP front end over one Database: an accept loop plus one worker thread
// per connection (the pool is bounded by max_connections), each worker
// bound to its own engine/Session so per-connection executor state never
// crosses threads. Statements execute under the database's table
// latches exactly as in-process sessions do — the server adds transport,
// admission, and timeouts, never a second concurrency model.
//
// Shutdown: RequestShutdown() (also triggered by a kShutdown message,
// SIGINT/SIGTERM via InstallSignalHandlers, or Stop()) latches a
// process-visible self-pipe. The accept loop stops accepting and closes
// the listen socket; every worker finishes the statement it is
// executing, writes the response, and closes; the accept thread joins
// the workers and marks the server stopped. No statement whose request
// frame was admitted is ever dropped without a response — the drain
// invariant requests_started == responses_sent, which stats() exposes
// and tests assert.
class Server {
 public:
  explicit Server(Database* db, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the accept thread. Fails (without
  // spawning) when the address cannot be bound.
  Status Start() EXCLUDES(mu_);

  // The bound port (valid after a successful Start).
  int port() const { return port_; }

  // Begins the graceful drain described above. Idempotent, safe from any
  // thread (including worker threads handling kShutdown).
  void RequestShutdown();

  // RequestShutdown + wait for the drain to finish. Idempotent; also run
  // by the destructor.
  void Stop() EXCLUDES(mu_);

  // Blocks until the drain has completed (the server binary's main).
  void WaitUntilStopped() EXCLUDES(mu_);

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  size_t open_connections() const {
    return open_connections_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;

  // Routes SIGINT/SIGTERM to RequestShutdown via the self-pipe (the
  // handler only write(2)s, which is async-signal-safe). Process-global:
  // at most one server may install handlers at a time.
  Status InstallSignalHandlers();

  // Test-only: runs inside the worker after a statement is admitted
  // (holding its in-flight slot) and before it executes. Lets tests hold
  // a statement in the admitted state to make shedding deterministic.
  void set_statement_hook(std::function<void()> hook) {
    statement_hook_ = std::move(hook);
  }

 private:
  void AcceptLoop();
  void ServeConnection(uint64_t conn_id, Socket sock);
  void FinishConnection(uint64_t conn_id) EXCLUDES(mu_);
  void ReapFinished() EXCLUDES(mu_);

  Database* db_;
  const ServerConfig config_;
  int port_ = 0;

  ListenSocket listener_;
  SelfPipe shutdown_pipe_;
  std::atomic<bool> draining_{false};
  std::atomic<size_t> open_connections_{0};
  std::atomic<int> inflight_statements_{0};
  std::atomic<uint64_t> connections_total_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> requests_started_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> busy_rejections_{0};
  std::atomic<uint64_t> idle_disconnects_{0};
  std::atomic<uint64_t> statement_timeouts_{0};

  std::function<void()> statement_hook_;

  mutable util::Mutex mu_;
  util::CondVar stopped_cv_;
  std::thread accept_thread_ GUARDED_BY(mu_);
  // Live worker threads by connection id; finished workers park their id
  // in finished_ for the accept loop (or final drain) to join.
  std::unordered_map<uint64_t, std::thread> workers_ GUARDED_BY(mu_);
  std::vector<uint64_t> finished_ GUARDED_BY(mu_);
  uint64_t next_conn_id_ GUARDED_BY(mu_) = 1;
  bool started_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace net
}  // namespace autoindex
