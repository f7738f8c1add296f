// Buffered reads and full-buffer sends over a byte stream.
//
// The wire protocol (sim/messages.hpp) opens every connection with one
// text line each way and then speaks length-prefixed binary frames.
// LineChannel is the transport half of that — line reads for the hello
// (and the health probe's ping), exact-length reads for frames, and
// full-buffer sends — over either an owned Socket (TCP connection,
// socketpair) or a borrowed read/write fd pair (the worker's stdin/stdout
// bridge). It never looks inside a frame; decoding stays in sim/messages.
//
// Reads take whatever has arrived, up to a 64 KiB chunk, and keep the
// surplus for the next read, so a burst of frames costs one receive
// rather than two per frame. A payload of a chunk or more is read straight
// into its destination.
//
// All failures throw NetError: a clean EOF at a line or frame boundary is
// the one non-error outcome (read_line / read_exact return false), EOF
// inside a line or a frame is a torn message and throws.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "net/socket.hpp"

namespace ffsm::net {

class LineChannel {
 public:
  /// An unconnected channel; valid() is false, I/O is a precondition error.
  LineChannel() = default;

  /// Owns `socket`; reads and writes both go through it.
  explicit LineChannel(Socket socket) noexcept
      : owned_(std::move(socket)),
        read_fd_(owned_.fd()),
        write_fd_(owned_.fd()) {}

  /// Borrows an fd pair (e.g. STDIN_FILENO/STDOUT_FILENO); the caller
  /// keeps ownership and lifetime.
  LineChannel(int read_fd, int write_fd) noexcept
      : read_fd_(read_fd), write_fd_(write_fd) {}

  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;
  // Explicit moves: the raw fd mirrors must be reset in the source (the
  // implicit move would copy them, leaving a moved-from channel that
  // claims valid() and does I/O on the destination's socket).
  LineChannel(LineChannel&& other) noexcept
      : owned_(std::move(other.owned_)),
        read_fd_(other.read_fd_),
        write_fd_(other.write_fd_),
        buffer_(std::move(other.buffer_)),
        capacity_(other.capacity_),
        begin_(other.begin_),
        end_(other.end_) {
    other.read_fd_ = -1;
    other.write_fd_ = -1;
    other.drop_buffer();
  }
  LineChannel& operator=(LineChannel&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      read_fd_ = other.read_fd_;
      write_fd_ = other.write_fd_;
      buffer_ = std::move(other.buffer_);
      capacity_ = other.capacity_;
      begin_ = other.begin_;
      end_ = other.end_;
      other.read_fd_ = -1;
      other.write_fd_ = -1;
      other.drop_buffer();
    }
    return *this;
  }

  [[nodiscard]] bool valid() const noexcept { return read_fd_ >= 0; }

  /// Closes an owned socket and resets; borrowed fds are left open.
  void close() noexcept {
    owned_.close();
    read_fd_ = -1;
    write_fd_ = -1;
    drop_buffer();
  }

  /// Half-dead the underlying socket (::shutdown SHUT_RDWR) without
  /// closing the fd: a reader blocked in recv on another thread wakes with
  /// EOF instead of racing a close() that could recycle the fd under it.
  /// No-op on non-sockets (the stdio bridge) and invalid channels.
  void shutdown_io() noexcept;

  /// Sends all bytes (SIGPIPE-safe, partial writes retried). Throws
  /// NetError when the peer is gone.
  void send(std::string_view data) const {
    FFSM_EXPECTS(valid());
    send_all(write_fd_, data);
  }

  /// Reads the next '\n'-terminated line (terminator stripped). Returns
  /// false on clean EOF at a line boundary; throws NetError on a read
  /// error or on EOF in the middle of a line (a torn message).
  bool read_line(std::string& line);
  /// Deadline-bounded read_line: additionally throws NetError once
  /// `deadline` passes with the line still incomplete — the opt-in for
  /// reads that must fail in bounded time against a silent or half-open
  /// peer (health probes); already-buffered lines return regardless.
  bool read_line(std::string& line, Deadline deadline);

  /// read_line that treats EOF as an error; `context` names the exchange
  /// for the NetError message.
  [[nodiscard]] std::string expect_line(const char* context);
  [[nodiscard]] std::string expect_line(const char* context,
                                        Deadline deadline);

  /// Reads exactly `count` bytes into `dst` — the wire's header and
  /// payload reads. Returns false on clean EOF before the first byte; EOF
  /// mid-read is a torn message and throws NetError, as do read errors.
  /// Already-buffered bytes (e.g. what followed the hello line, or the
  /// rest of a burst) are consumed first. The deadline overload
  /// additionally throws NetError once `deadline` passes with bytes still
  /// missing. A failed read does not resume: the bytes it already got stay
  /// in `dst` and are gone from the channel, so the stream is mid-frame and
  /// the caller must tear the connection down (the worker does on that
  /// NetError).
  bool read_exact(char* dst, std::size_t count);
  bool read_exact(char* dst, std::size_t count, Deadline deadline);

 private:
  bool read_exact_until(char* dst, std::size_t count,
                        const Deadline* deadline);
  /// Copies up to `count` buffered bytes to `dst`; returns how many.
  std::size_t take(char* dst, std::size_t count) noexcept;
  /// One receive of whatever has arrived into the buffer, after the bytes
  /// not yet returned; returns the count, 0 on EOF.
  std::size_t receive(const Deadline* deadline);
  void drop_buffer() noexcept {
    buffer_.reset();
    capacity_ = 0;
    begin_ = 0;
    end_ = 0;
  }
  bool read_line_until(std::string& line, const Deadline* deadline);
  [[nodiscard]] std::string expect_line_until(const char* context,
                                              const Deadline* deadline);

  Socket owned_;
  int read_fd_ = -1;
  int write_fd_ = -1;
  // Bytes received but not yet returned: buffer_[begin_, end_) of a
  // capacity_-byte block, allocated by the first receive.
  std::unique_ptr<char[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

}  // namespace ffsm::net
