#include "net/exposition_server.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace ffsm::net {

namespace {

/// Reads from `socket` until a blank line ends the request head (or the
/// peer closes / `limit` bytes arrive — scrapers send tiny requests, so a
/// runaway head is a misbehaving peer and parsing just stops).
std::string read_request_head(const Socket& socket) {
  constexpr std::size_t kLimit = 16 * 1024;
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos && head.size() < kLimit) {
    const std::size_t n = socket.recv_some(buf, sizeof(buf));
    if (n == 0) break;
    head.append(buf, n);
  }
  return head;
}

/// Path of a `GET <path> HTTP/x.y` request line; "" when malformed.
std::string_view request_path(std::string_view head) {
  const std::size_t line_end = head.find_first_of("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (line.substr(0, 4) != "GET ") return {};
  line.remove_prefix(4);
  const std::size_t space = line.find(' ');
  if (space == std::string_view::npos) return {};
  return line.substr(0, space);
}

std::string http_response(int status, std::string_view reason,
                          std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

ExpositionServer::ExpositionServer(std::uint16_t port, Handler handler)
    : listener_(port), handler_(std::move(handler)) {
  FFSM_EXPECTS(handler_ != nullptr);
  thread_ = std::thread([this] { serve_loop(); });
}

void ExpositionServer::stop() {
  listener_.close();  // Fails over a blocked accept() on the thread.
  if (thread_.joinable()) thread_.join();
}

void ExpositionServer::serve_loop() {
  for (;;) {
    Socket peer;
    try {
      peer = listener_.accept();
    } catch (const NetError&) {
      return;  // Listener closed (stop()) or unrecoverable accept error.
    }
    try {
      const std::string head = read_request_head(peer);
      const std::string_view path = request_path(head);
      std::string body;
      if (!path.empty()) body = handler_(path);
      if (body.empty()) {
        peer.send_all(
            http_response(404, "Not Found", "text/plain", "not found\n"));
      } else {
        // version=0.0.4 is the Prometheus text exposition content type;
        // harmless for the /health one-liner.
        peer.send_all(http_response(
            200, "OK", "text/plain; version=0.0.4; charset=utf-8", body));
      }
    } catch (const ContractViolation&) {
      // A torn scrape (peer vanished mid-reply, handler failure) must not
      // take the endpoint down; drop the connection and keep serving.
    }
  }
}

std::string scrape_exposition(const std::string& host, std::uint16_t port,
                              const std::string& path) {
  const Socket socket = Socket::connect(host, port);
  socket.send_all("GET " + path + " HTTP/1.0\r\nHost: " + host +
                  "\r\n\r\n");
  std::string reply;
  char buf[4096];
  for (;;) {
    const std::size_t n = socket.recv_some(buf, sizeof(buf));
    if (n == 0) break;
    reply.append(buf, n);
  }
  const std::size_t head_end = reply.find("\r\n\r\n");
  if (head_end == std::string::npos)
    throw ContractViolation("exposition scrape: malformed reply");
  if (reply.find("HTTP/1.0 200") != 0 && reply.find("HTTP/1.1 200") != 0)
    throw ContractViolation("exposition scrape: non-200 status: " +
                            reply.substr(0, reply.find_first_of("\r\n")));
  return reply.substr(head_end + 4);
}

}  // namespace ffsm::net
