#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace autoindex {
namespace net {

// POSIX socket primitives for the service layer (DESIGN.md §12). Every
// raw socket/pipe syscall in the project lives in src/net/ — the
// raw-socket lint rule bans socket()/bind()/connect()/send()/recv()
// elsewhere — and every failure surfaces as a Status, never errno
// leaking through a -1 return.
//
// Error code conventions (shared with protocol.h / client.h):
//   kNotFound    peer closed the connection (clean EOF)
//   kOutOfRange  a timeout expired before the operation completed
//   kInternal    a syscall failed (message carries errno text)

// Splits "host:port" (e.g. "127.0.0.1:5433"). InvalidArgument on a
// missing colon or a port outside [1, 65535].
Status ParseHostPort(const std::string& spec, std::string* host, int* port);

// Move-only RAII wrapper over one connected TCP file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // Blocking connect to host:port with a bounded wait (non-blocking
  // connect + poll). The returned socket is in blocking mode with
  // TCP_NODELAY set (request/response framing suffers badly from Nagle).
  static StatusOr<Socket> ConnectTcp(const std::string& host, int port,
                                     int timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes exactly `len` bytes; `timeout_ms` bounds each individual
  // write's readiness wait (<= 0 waits forever).
  Status SendAll(const void* data, size_t len, int timeout_ms);

  // Reads exactly `len` bytes. EOF before the first byte is kNotFound
  // ("connection closed by peer"); EOF mid-buffer is kInternal (a torn
  // frame — the peer vanished mid-message).
  Status RecvAll(void* data, size_t len, int timeout_ms);

  // Waits until the socket is readable, `wake_fd` (when >= 0) is
  // readable, or the timeout expires. Returns:
  //   kReadable  data (or EOF) is pending on this socket
  //   kWake      wake_fd became readable first (shutdown self-pipe)
  //   kTimeout   the timeout expired
  enum class WaitResult { kReadable, kWake, kTimeout };
  StatusOr<WaitResult> WaitReadable(int timeout_ms, int wake_fd = -1);

  void Close();

 private:
  int fd_ = -1;
};

// Move-only RAII listening socket.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }

  ListenSocket(ListenSocket&& other) noexcept : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
    other.port_ = 0;
  }
  ListenSocket& operator=(ListenSocket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
      other.port_ = 0;
    }
    return *this;
  }
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  // Binds host:port and listens. port 0 binds an ephemeral port; the
  // actual port is reported by port().
  static StatusOr<ListenSocket> Listen(const std::string& host, int port,
                                       int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int port() const { return port_; }

  // Waits for a pending connection (or wake_fd / timeout, as
  // Socket::WaitReadable) and accepts it.
  StatusOr<Socket::WaitResult> WaitAcceptable(int timeout_ms, int wake_fd = -1);
  StatusOr<Socket> Accept();

  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

// Level-triggered shutdown latch built on a pipe: Signal() writes one
// byte that is never drained, so every poll() on read_fd() — the accept
// loop and all connection loops — reports readable from then on. Safe to
// Signal() from a signal handler (write(2) is async-signal-safe).
class SelfPipe {
 public:
  SelfPipe() = default;
  ~SelfPipe();

  SelfPipe(const SelfPipe&) = delete;
  SelfPipe& operator=(const SelfPipe&) = delete;

  Status OpenPipe();
  void Signal();
  int read_fd() const { return read_fd_; }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

}  // namespace net
}  // namespace autoindex
