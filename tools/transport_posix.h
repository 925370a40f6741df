// POSIX socket plumbing for the refgend protocol front ends.
//
// The api::protocol layer is transport-agnostic (LineTransport); this
// header supplies the OS-specific half the tools need: a LineTransport
// over a file descriptor, a localhost TCP listener, and a client dial.
// Tools-only on purpose — src/ stays free of platform headers.
#pragma once

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "api/protocol.h"
#include "support/fault_injection.h"

namespace symref::tools {

/// LineTransport over a socket fd. Owns the fd (closed on destruction).
/// Writes use MSG_NOSIGNAL so a vanished peer surfaces as a false return,
/// not SIGPIPE.
class FdTransport : public api::protocol::LineTransport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool read_line(std::string* line) override {
    for (;;) {
      // Resume the newline search where the previous one stopped, so a
      // multi-MB line costs one pass over its bytes, not one per recv.
      const std::size_t newline = pending_.find('\n', scanned_);
      if (newline != std::string::npos) {
        line->assign(pending_, 0, newline);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        pending_.erase(0, newline + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = pending_.size();
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        pending_.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // EOF (or error): hand out a trailing unterminated line once.
      if (!pending_.empty()) {
        line->swap(pending_);
        pending_.clear();
        scanned_ = 0;
        return true;
      }
      return false;
    }
  }

  bool write_line(const std::string& line) override {
    // Fault site "socket_io": a dropped write looks exactly like a vanished
    // peer, exercising the client's reconnect/retry path in chaos runs.
    if (support::fault("socket_io")) return false;
    std::string out = line;
    out.push_back('\n');
    const char* data = out.data();
    std::size_t left = out.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, data, left, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string pending_;
  std::size_t scanned_ = 0;  // pending_[0, scanned_) holds no newline
};

/// Listening socket on 127.0.0.1:`port` (0 = ephemeral). Returns the fd and
/// stores the bound port in *bound_port; -1 on failure (*error explains).
inline int listen_on(int port, int* bound_port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  socklen_t length = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length);
  *bound_port = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

/// Accept with a timeout so the caller can poll a shutdown flag. Returns the
/// client fd, or -1 when the timeout elapsed / accept failed. On -1,
/// *error_number (when given) is 0 for a plain timeout and the errno of the
/// failed poll/accept otherwise — so the caller can tell "nothing arrived"
/// from a transient accept error worth logging and retrying.
inline int accept_client(int listen_fd, int timeout_ms, int* error_number = nullptr) {
  if (error_number != nullptr) *error_number = 0;
  pollfd waiter{listen_fd, POLLIN, 0};
  const int ready = ::poll(&waiter, 1, timeout_ms);
  if (ready == 0) return -1;
  if (ready < 0) {
    if (error_number != nullptr) *error_number = errno;
    return -1;
  }
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0 && error_number != nullptr) *error_number = errno;
  return fd;
}

/// Connect to "host:port" (host defaults to 127.0.0.1 when the token is
/// just a port). Returns the fd, or -1 (*error explains).
inline int dial(const std::string& target, std::string* error) {
  std::string host = "127.0.0.1";
  std::string port = target;
  const std::size_t colon = target.rfind(':');
  if (colon != std::string::npos) {
    host = target.substr(0, colon);
    port = target.substr(colon + 1);
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int status = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &found);
  if (status != 0) {
    *error = "cannot resolve '" + target + "': " + gai_strerror(status);
    return -1;
  }
  int fd = -1;
  for (addrinfo* info = found; info != nullptr; info = info->ai_next) {
    fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, info->ai_addr, info->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) *error = "cannot connect to '" + target + "': " + std::strerror(errno);
  return fd;
}

}  // namespace symref::tools
