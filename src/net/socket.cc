#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "util/string_util.h"

namespace autoindex {
namespace net {
namespace {

Status ErrnoStatus(const char* op) {
  return Status::Internal(StrCat(op, " failed: ", strerror(errno)));
}

// poll() one or two fds for readability. Returns the WaitResult; retries
// EINTR with the remaining budget unadjusted (timeouts are advisory
// bounds, not deadlines — the caller's loop re-arms them).
StatusOr<Socket::WaitResult> PollReadable(int fd, int timeout_ms,
                                          int wake_fd) {
  struct pollfd fds[2];
  fds[0].fd = fd;
  fds[0].events = POLLIN;
  fds[0].revents = 0;
  nfds_t nfds = 1;
  if (wake_fd >= 0) {
    fds[1].fd = wake_fd;
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    nfds = 2;
  }
  for (;;) {
    const int rc = poll(fds, nfds, timeout_ms <= 0 ? -1 : timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("poll");
    }
    if (rc == 0) return Socket::WaitResult::kTimeout;
    // The wake pipe outranks pending data: a draining server must stop
    // picking up new requests even when the socket has bytes queued.
    if (nfds == 2 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      return Socket::WaitResult::kWake;
    }
    return Socket::WaitResult::kReadable;
  }
}

Status SetNonBlocking(int fd, bool enable) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, want) < 0) return ErrnoStatus("fcntl(F_SETFL)");
  return Status::Ok();
}

Status ParseAddr(const std::string& host, int port, sockaddr_in* addr) {
  memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument(
        StrCat("bad IPv4 address '", host, "' (hostnames not supported)"));
  }
  return Status::Ok();
}

}  // namespace

Status ParseHostPort(const std::string& spec, std::string* host, int* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument(
        StrCat("expected host:port, got '", spec, "'"));
  }
  const std::string port_str = spec.substr(colon + 1);
  char* end = nullptr;
  const long p = strtol(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || p < 1 || p > 65535) {
    return Status::InvalidArgument(StrCat("bad port '", port_str, "'"));
  }
  *host = spec.substr(0, colon);
  *port = static_cast<int>(p);
  return Status::Ok();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Socket> Socket::ConnectTcp(const std::string& host, int port,
                                    int timeout_ms) {
  sockaddr_in addr;
  Status parsed = ParseAddr(host, port, &addr);
  if (!parsed.ok()) return parsed;

  Socket sock(socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return ErrnoStatus("socket");

  // Non-blocking connect so the wait is bounded by poll, then back to
  // blocking mode for the framed request/response traffic.
  Status s = SetNonBlocking(sock.fd(), true);
  if (!s.ok()) return s;
  if (connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) return ErrnoStatus("connect");
    struct pollfd pfd;
    pfd.fd = sock.fd();
    pfd.events = POLLOUT;
    pfd.revents = 0;
    int rc;
    do {
      rc = poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) return ErrnoStatus("poll(connect)");
    if (rc == 0) {
      return Status::OutOfRange(
          StrCat("connect to ", host, ":", port, " timed out"));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return ErrnoStatus("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::Internal(
          StrCat("connect to ", host, ":", port, " failed: ", strerror(err)));
    }
  }
  s = SetNonBlocking(sock.fd(), false);
  if (!s.ok()) return s;
  const int one = 1;
  // Best-effort: Nagle only costs latency, it never breaks correctness.
  (void)setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Status Socket::SendAll(const void* data, size_t len, int timeout_ms) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      int rc;
      do {
        rc = poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) return ErrnoStatus("poll(send)");
      if (rc == 0) return Status::OutOfRange("send timed out");
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::NotFound("connection closed by peer");
    }
    return ErrnoStatus("send");
  }
  return Status::Ok();
}

Status Socket::RecvAll(void* data, size_t len, int timeout_ms) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    StatusOr<WaitResult> wait = WaitReadable(timeout_ms);
    if (!wait.ok()) return wait.status();
    if (*wait == WaitResult::kTimeout) {
      return Status::OutOfRange("recv timed out");
    }
    const ssize_t n = recv(fd_, p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return Status::NotFound("connection closed by peer");
      return Status::Internal("connection closed mid-frame");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return ErrnoStatus("recv");
  }
  return Status::Ok();
}

StatusOr<Socket::WaitResult> Socket::WaitReadable(int timeout_ms,
                                                  int wake_fd) {
  return PollReadable(fd_, timeout_ms, wake_fd);
}

void Socket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

StatusOr<ListenSocket> ListenSocket::Listen(const std::string& host, int port,
                                          int backlog) {
  sockaddr_in addr;
  Status parsed = ParseAddr(host, port, &addr);
  if (!parsed.ok()) return parsed;

  ListenSocket sock;
  sock.fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (sock.fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  (void)setsockopt(sock.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(sock.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoStatus("bind");
  }
  if (listen(sock.fd_, backlog) < 0) return ErrnoStatus("listen");

  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(sock.fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    return ErrnoStatus("getsockname");
  }
  sock.port_ = ntohs(bound.sin_port);
  return sock;
}

StatusOr<Socket::WaitResult> ListenSocket::WaitAcceptable(int timeout_ms,
                                                          int wake_fd) {
  return PollReadable(fd_, timeout_ms, wake_fd);
}

StatusOr<Socket> ListenSocket::Accept() {
  for (;;) {
    const int fd = accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket sock(fd);
      const int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return sock;
    }
    if (errno == EINTR) continue;
    return ErrnoStatus("accept");
  }
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

SelfPipe::~SelfPipe() {
  if (read_fd_ >= 0) close(read_fd_);
  if (write_fd_ >= 0) close(write_fd_);
}

Status SelfPipe::OpenPipe() {
  int fds[2];
  if (pipe(fds) < 0) return ErrnoStatus("pipe");
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  // Non-blocking write end: Signal() from a signal handler must never
  // block, and a full pipe means the latch is already set anyway.
  return SetNonBlocking(write_fd_, true);
}

void SelfPipe::Signal() {
  if (write_fd_ < 0) return;
  const char byte = 1;
  // The byte is intentionally never drained (level-triggered latch);
  // EAGAIN just means a previous Signal already latched it.
  ssize_t rc;
  do {
    rc = write(write_fd_, &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

}  // namespace net
}  // namespace autoindex
