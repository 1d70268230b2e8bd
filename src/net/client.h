#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/cost_model.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/status.h"

namespace autoindex {
namespace net {

// One remote statement's outcome — the client-side mirror of ExecResult,
// minus the plan snapshot and feedback (which stay server-side).
struct QueryResult {
  std::vector<Row> rows;
  ExecStats stats;
  std::vector<std::string> indexes_used;
  // Server-side trace identity for this statement (0 from a minor-0
  // server): the id of the server's net.request trace and how many spans
  // it had recorded when the response was encoded.
  uint64_t server_trace_id = 0;
  uint32_t server_span_count = 0;
};

// True for the Status a client call returns when the server shed the
// request (connection cap or statement admission): the request was NOT
// executed and may be retried after backoff.
bool IsServerBusy(const Status& status);

// Blocking TCP client for the AutoIndex service (DESIGN.md §12). One
// connection, strict request/response, not thread-safe: one client per
// thread, exactly like engine/Session. Any connection-fatal error
// (timeout, torn frame, protocol error) closes the socket; the next call
// reports NotFound("not connected") and the caller reconnects.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects and runs the version handshake. A kBusy reply (connection
  // cap) surfaces as IsServerBusy; a version mismatch as InvalidArgument.
  Status Connect(const std::string& host, int port);

  // Executes one statement remotely. A non-ok statement status from the
  // server is returned as that Status (the connection stays usable); a
  // kBusy shed as IsServerBusy (also usable); transport/protocol errors
  // close the connection.
  StatusOr<QueryResult> Query(const std::string& sql);

  // Fetches the server's metrics exposition (RenderMetricsText), filtered
  // to series whose Prometheus name starts with `prefix` (empty = all).
  StatusOr<std::string> Metrics(const std::string& prefix = {});

  // Round-trip liveness probe.
  Status Ping();

  // Asks the server to drain and stop. Ok when the server acknowledged;
  // the connection is closed either way.
  Status Shutdown();

  // Best-effort Quit + close. Safe when already closed.
  void Close();

  bool connected() const { return sock_.valid(); }
  // Server-assigned session id (valid after Connect).
  uint64_t session_id() const { return session_id_; }

 private:
  // Sends `request` and reads one response frame, closing on transport
  // failure. The response type is validated against `want` (kBusy and
  // kError are handled uniformly here).
  StatusOr<Message> RoundTrip(const Message& request, MessageType want);

  Socket sock_;
  uint64_t session_id_ = 0;
};

}  // namespace net
}  // namespace autoindex
