#include "net/client.h"

#include <utility>

#include "net/wire.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace autoindex {
namespace net {

namespace {
constexpr const char* kBusyPrefix = "server busy";
// Bound on the TCP connect + handshake round trip.
constexpr int kConnectTimeoutMs = 5000;
// Bound on each request/response exchange (the response wait dominates,
// so it sits above the slowest statement the service is expected to run).
constexpr int kIoTimeoutMs = 30000;
}  // namespace

bool IsServerBusy(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         StartsWith(status.message(), kBusyPrefix);
}

Status Client::Connect(const std::string& host, int port) {
  Close();
  StatusOr<Socket> sock = Socket::ConnectTcp(host, port, kConnectTimeoutMs);
  if (!sock.ok()) return sock.status();
  sock_ = std::move(*sock);

  Status sent = SendFrame(&sock_, Message::Hello(), kConnectTimeoutMs);
  if (!sent.ok()) {
    sock_.Close();
    return sent;
  }
  Message reply;
  Status got = ReadFrame(&sock_, &reply, kConnectTimeoutMs);
  if (!got.ok()) {
    sock_.Close();
    return got;
  }
  if (reply.type == MessageType::kBusy) {
    sock_.Close();
    return Status::Internal(reply.text);  // IsServerBusy matches
  }
  if (reply.type == MessageType::kError) {
    sock_.Close();
    return Status::InvalidArgument(reply.text);
  }
  if (reply.type != MessageType::kHelloOk) {
    sock_.Close();
    return Status::Internal(StrCat("handshake: expected HelloOk, got ",
                                   MessageTypeName(reply.type)));
  }
  // Major version must match exactly; the minor (reply.protocol_minor)
  // may differ — unknown extensions are optional trailing fields each
  // side simply ignores.
  if (reply.protocol_version != kProtocolVersion) {
    sock_.Close();
    return Status::InvalidArgument(
        StrCat("protocol version mismatch: server ", reply.protocol_version,
               ", client ", kProtocolVersion));
  }
  session_id_ = reply.session_id;
  return Status::Ok();
}

StatusOr<Message> Client::RoundTrip(const Message& request,
                                    MessageType want) {
  if (!connected()) return Status::NotFound("not connected");
  Status sent = SendFrame(&sock_, request, kIoTimeoutMs);
  if (!sent.ok()) {
    sock_.Close();
    return sent;
  }
  Message reply;
  Status got = ReadFrame(&sock_, &reply, kIoTimeoutMs);
  if (!got.ok()) {
    sock_.Close();
    return got;
  }
  if (reply.type == MessageType::kBusy) {
    // Shed, not executed; the connection stays usable for a retry.
    return Status::Internal(reply.text);  // IsServerBusy matches
  }
  if (reply.type == MessageType::kError) {
    // Connection-fatal by protocol contract: the server closes after an
    // Error frame, so mirror it.
    sock_.Close();
    return Status::Internal(StrCat("server error: ", reply.text));
  }
  if (reply.type != want) {
    sock_.Close();
    return Status::Internal(StrCat("expected ", MessageTypeName(want),
                                   ", got ", MessageTypeName(reply.type)));
  }
  return reply;
}

StatusOr<QueryResult> Client::Query(const std::string& sql) {
  Message request = Message::Query(sql);
  // Propagate the caller's active trace (if any) so the server-side
  // record links back to it; 0 means "not client-traced".
  request.client_trace_id = obs::CurrentTraceId();
  StatusOr<Message> reply = RoundTrip(request, MessageType::kResult);
  if (!reply.ok()) return reply.status();
  if (reply->status_code != StatusCode::kOk) {
    // The statement itself failed server-side; surface its Status as if
    // Session::Execute had returned it locally.
    return Status(reply->status_code, reply->status_message);
  }
  QueryResult result;
  result.rows = std::move(reply->rows);
  result.stats = reply->stats;
  result.indexes_used = std::move(reply->indexes_used);
  result.server_trace_id = reply->trace_id;
  result.server_span_count = reply->trace_span_count;
  return result;
}

StatusOr<std::string> Client::Metrics(const std::string& prefix) {
  StatusOr<Message> reply = RoundTrip(Message::MetricsRequest(prefix),
                                      MessageType::kMetricsResponse);
  if (!reply.ok()) return reply.status();
  return std::move(reply->text);
}

Status Client::Ping() {
  return RoundTrip(Message::Simple(MessageType::kPing), MessageType::kPong)
      .status();
}

Status Client::Shutdown() {
  StatusOr<Message> reply =
      RoundTrip(Message::Simple(MessageType::kShutdown), MessageType::kBye);
  sock_.Close();
  return reply.status();
}

void Client::Close() {
  if (!connected()) return;
  // Best-effort courtesy Quit so the server logs a clean close; skip the
  // Bye wait (the peer may already be gone).
  (void)SendFrame(&sock_, Message::Simple(MessageType::kQuit),
                  /*timeout_ms=*/100);
  sock_.Close();
  session_id_ = 0;
}

}  // namespace net
}  // namespace autoindex
