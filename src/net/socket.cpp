#include "net/socket.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>

namespace ffsm::net {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw NetError(what + " (" + std::strerror(errno) + ")");
}

void set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail("fcntl(F_GETFL)");
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (flags != want && ::fcntl(fd, F_SETFL, want) < 0) fail("fcntl(F_SETFL)");
}

}  // namespace

bool parse_port(std::string_view text, std::uint16_t& port) {
  // Digits only — no strtol leniencies (leading whitespace, '+'/'-').
  if (text.empty()) return false;
  for (const char c : text)
    if (c < '0' || c > '9') return false;
  const std::string copy(text);  // strtol needs a terminator
  errno = 0;
  const long value = std::strtol(copy.c_str(), nullptr, 10);
  if (errno != 0 || value > 65535) return false;
  port = static_cast<std::uint16_t>(value);
  return true;
}

bool parse_host_port(std::string_view spec, std::string& host,
                     std::uint16_t& port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  if (!parse_port(spec.substr(colon + 1), port) || port == 0) return false;
  host.assign(spec.substr(0, colon));
  return true;
}

std::string to_string(const Endpoint& endpoint) {
  return endpoint.host + ':' + std::to_string(endpoint.port);
}

bool parse_host_port_list(std::string_view spec,
                          std::vector<Endpoint>& out) {
  out.clear();
  if (spec.empty()) return false;
  for (;;) {
    const auto comma = spec.find(',');
    Endpoint endpoint;
    // An empty item (",x", "x,,y", trailing ",") fails parse_host_port.
    if (!parse_host_port(spec.substr(0, comma), endpoint.host,
                         endpoint.port))
      return false;
    if (std::find(out.begin(), out.end(), endpoint) != out.end())
      return false;  // a duplicated replica is a typo, not redundancy
    out.push_back(std::move(endpoint));
    if (comma == std::string_view::npos) return true;
    spec.remove_prefix(comma + 1);
  }
}

void send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  bool use_send = true;  // sockets first; pipes/ttys fall back to write()
  while (off < data.size()) {
    ssize_t n;
    if (use_send) {
      // MSG_NOSIGNAL: a dead peer must surface as EPIPE here, never as a
      // process-wide SIGPIPE.
      n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        use_send = false;
        continue;
      }
    } else {
      n = ::write(fd, data.data() + off, data.size() - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send failed (peer died?)");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::size_t recv_some(int fd, char* buf, std::size_t len) {
  for (;;) {
    // read() works on sockets and pipes alike; EOF is data, not an error.
    const ssize_t n = ::read(fd, buf, len);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    fail("recv failed");
  }
}

std::size_t recv_some(int fd, char* buf, std::size_t len,
                      Deadline deadline) {
  for (;;) {
    // Wait for readability only until the deadline, re-deriving the
    // budget after every EINTR (same discipline as connect's poll loop).
    pollfd pfd = {fd, POLLIN, 0};
    int ready;
    for (;;) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      // Clamp both ways: negative (deadline passed) must not read as
      // poll's block-forever -1, and a far-future deadline must not
      // overflow int into one.
      ready = ::poll(&pfd, 1,
                     static_cast<int>(std::clamp<long long>(
                         remaining.count(), 0, INT_MAX)));
      if (ready >= 0) break;
      if (errno != EINTR) fail("poll during recv");
    }
    if (ready == 0)
      throw NetError("read deadline expired (peer silent or half-open)");
    // POLLIN, POLLHUP and POLLERR all mean read() returns without
    // blocking — data, EOF or the error itself.
    const ssize_t n = ::read(fd, buf, len);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    fail("recv failed");
  }
}

void Socket::enable_keepalive(int idle_s, int interval_s, int probes) const {
  FFSM_EXPECTS(valid());
  FFSM_EXPECTS(idle_s > 0 && interval_s > 0 && probes > 0);
  const int on = 1;
  if (::setsockopt(fd_, SOL_SOCKET, SO_KEEPALIVE, &on, sizeof(on)) != 0)
    fail("setsockopt(SO_KEEPALIVE)");
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_KEEPIDLE, &idle_s,
                   sizeof(idle_s)) != 0)
    fail("setsockopt(TCP_KEEPIDLE)");
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_KEEPINTVL, &interval_s,
                   sizeof(interval_s)) != 0)
    fail("setsockopt(TCP_KEEPINTVL)");
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_KEEPCNT, &probes,
                   sizeof(probes)) != 0)
    fail("setsockopt(TCP_KEEPCNT)");
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_rw() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::send_all(std::string_view data) const {
  FFSM_EXPECTS(valid());
  net::send_all(fd_, data);
}

std::size_t Socket::recv_some(char* buf, std::size_t len) const {
  FFSM_EXPECTS(valid());
  return net::recv_some(fd_, buf, len);
}

std::size_t Socket::recv_some(char* buf, std::size_t len,
                              Deadline deadline) const {
  FFSM_EXPECTS(valid());
  return net::recv_some(fd_, buf, len, deadline);
}

Socket Socket::connect(const std::string& host, std::uint16_t port,
                       std::chrono::milliseconds timeout) {
  addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc =
          ::getaddrinfo(host.c_str(), service.c_str(), &hints, &results);
      rc != 0)
    throw NetError("cannot resolve '" + host + "': " + ::gai_strerror(rc));

  std::string last_error = "no addresses for '" + host + "'";
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    Socket socket(::socket(ai->ai_family,
                           ai->ai_socktype | SOCK_CLOEXEC,  // see
                           // wire_backend's spawn: a concurrent fork must
                           // not inherit this fd and mask the peer's EOF.
                           ai->ai_protocol));
    if (!socket.valid()) {
      last_error = std::string("socket() failed (") + std::strerror(errno) +
                   ")";
      continue;
    }
    try {
      // Non-blocking connect + poll: bounded wait instead of the kernel's
      // default SYN-retry timeout (minutes against a black-holed host).
      set_nonblocking(socket.fd(), true);
      if (::connect(socket.fd(), ai->ai_addr, ai->ai_addrlen) != 0) {
        if (errno != EINPROGRESS) fail("connect to " + host + ':' + service);
        // Resume EINTR like every other loop in net/, re-deriving the
        // remaining budget so signals cannot stretch the timeout.
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        pollfd pfd = {socket.fd(), POLLOUT, 0};
        int ready;
        for (;;) {
          const auto remaining =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now());
          ready = ::poll(&pfd, 1,
                         static_cast<int>(std::max<long long>(
                             0, remaining.count())));
          if (ready >= 0) break;
          if (errno != EINTR) fail("poll during connect");
        }
        if (ready == 0)
          throw NetError("connect to " + host + ':' + service + " timed out");
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &so_error,
                         &len) != 0)
          fail("getsockopt(SO_ERROR)");
        if (so_error != 0) {
          errno = so_error;
          fail("connect to " + host + ':' + service);
        }
      }
      set_nonblocking(socket.fd(), false);
      int nodelay = 1;
      // Best effort: some test doubles are not TCP sockets.
      (void)::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         sizeof(nodelay));
      ::freeaddrinfo(results);
      return socket;
    } catch (const NetError& error) {
      last_error = error.what();
      if (last_error.rfind("net: ", 0) == 0)
        last_error.erase(0, 5);  // the rethrow below re-adds the prefix
    }
  }
  ::freeaddrinfo(results);
  throw NetError(last_error);
}

}  // namespace ffsm::net
