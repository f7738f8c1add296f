#include "net/listener.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace ffsm::net {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw NetError(what + " (" + std::strerror(errno) + ")");
}

}  // namespace

Listener::Listener(std::uint16_t port, int backlog)
    : socket_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
  if (!socket_.valid()) fail("socket() for listener");
  int reuse = 1;
  if (::setsockopt(socket_.fd(), SOL_SOCKET, SO_REUSEADDR, &reuse,
                   sizeof(reuse)) != 0)
    fail("setsockopt(SO_REUSEADDR)");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(socket_.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    fail(std::string("bind to port ").append(std::to_string(port)));
  if (::listen(socket_.fd(), backlog) != 0) fail("listen");
  // Report the actual port (the kernel's pick when port was 0).
  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(socket_.fd(), reinterpret_cast<sockaddr*>(&bound),
                    &len) != 0)
    fail("getsockname");
  port_ = ntohs(bound.sin_port);
}

Socket Listener::accept() {
  for (;;) {
    const int fd = ::accept4(socket_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      int nodelay = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         sizeof(nodelay));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    fail("accept");
  }
}

}  // namespace ffsm::net
