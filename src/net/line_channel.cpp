#include "net/line_channel.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cstring>

namespace ffsm::net {

namespace {

/// The most one buffered receive asks for. A payload at least this long
/// skips the buffer and is read straight into its destination.
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

void LineChannel::shutdown_io() noexcept {
  // ENOTSOCK on pipes/ttys is fine — only socket channels need the wakeup.
  if (read_fd_ >= 0) ::shutdown(read_fd_, SHUT_RDWR);
  if (write_fd_ >= 0 && write_fd_ != read_fd_)
    ::shutdown(write_fd_, SHUT_RDWR);
}

std::size_t LineChannel::take(char* dst, std::size_t count) noexcept {
  const std::size_t n = std::min(count, end_ - begin_);
  if (n > 0) std::memcpy(dst, buffer_.get() + begin_, n);
  begin_ += n;
  return n;
}

std::size_t LineChannel::receive(const Deadline* deadline) {
  // Slide the bytes not yet returned (a partial line) to the front; grow
  // only when they fill the block.
  if (begin_ > 0) {
    std::memmove(buffer_.get(), buffer_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == capacity_) {
    const std::size_t grown = std::max(kReadChunk, 2 * capacity_);
    auto bigger = std::make_unique_for_overwrite<char[]>(grown);
    if (end_ > 0) std::memcpy(bigger.get(), buffer_.get(), end_);
    buffer_ = std::move(bigger);
    capacity_ = grown;
  }
  char* const room = buffer_.get() + end_;
  const std::size_t n =
      deadline != nullptr
          ? recv_some(read_fd_, room, capacity_ - end_, *deadline)
          : recv_some(read_fd_, room, capacity_ - end_);
  end_ += n;
  return n;
}

bool LineChannel::read_exact_until(char* dst, std::size_t count,
                                   const Deadline* deadline) {
  FFSM_EXPECTS(valid());
  std::size_t have = take(dst, count);
  while (have < count) {
    // The buffer is empty here. A long remainder goes straight to `dst`;
    // a short one takes a chunk and keeps what follows it.
    const std::size_t missing = count - have;
    std::size_t n = 0;
    if (missing >= kReadChunk) {
      n = deadline != nullptr
              ? recv_some(read_fd_, dst + have, missing, *deadline)
              : recv_some(read_fd_, dst + have, missing);
    } else if (receive(deadline) > 0) {
      n = take(dst + have, missing);
    }
    if (n == 0) {
      if (have > 0)
        throw NetError("peer closed the stream mid-read (torn message)");
      return false;  // clean EOF before the first byte
    }
    have += n;
  }
  return true;
}

bool LineChannel::read_exact(char* dst, std::size_t count) {
  return read_exact_until(dst, count, nullptr);
}

bool LineChannel::read_exact(char* dst, std::size_t count,
                             Deadline deadline) {
  return read_exact_until(dst, count, &deadline);
}

bool LineChannel::read_line_until(std::string& line,
                                  const Deadline* deadline) {
  FFSM_EXPECTS(valid());
  for (;;) {
    const std::size_t size = end_ - begin_;
    if (size > 0) {
      const char* const unread = buffer_.get() + begin_;
      const auto* const newline =
          static_cast<const char*>(std::memchr(unread, '\n', size));
      if (newline != nullptr) {
        line.assign(unread, newline);
        begin_ += static_cast<std::size_t>(newline - unread) + 1;
        return true;
      }
    }
    if (receive(deadline) == 0) {
      if (begin_ != end_)
        throw NetError("peer closed the stream mid-line (torn message)");
      return false;  // clean EOF at a line boundary
    }
  }
}

bool LineChannel::read_line(std::string& line) {
  return read_line_until(line, nullptr);
}

bool LineChannel::read_line(std::string& line, Deadline deadline) {
  return read_line_until(line, &deadline);
}

std::string LineChannel::expect_line_until(const char* context,
                                           const Deadline* deadline) {
  std::string line;
  if (!read_line_until(line, deadline))
    throw NetError(std::string("peer closed the stream during ") + context);
  return line;
}

std::string LineChannel::expect_line(const char* context) {
  return expect_line_until(context, nullptr);
}

std::string LineChannel::expect_line(const char* context, Deadline deadline) {
  return expect_line_until(context, &deadline);
}

}  // namespace ffsm::net
