// net transport primitives: listener/connect round trips on loopback,
// full-buffer sends and exact-length reads of payloads far beyond one
// syscall, and the failure surface — refused connections, torn streams,
// trickling and dead peers all as NetError, never a crash or a SIGPIPE.
#include "net/line_channel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/listener.hpp"
#include "net/socket.hpp"

namespace ffsm::net {
namespace {

using std::chrono::milliseconds;

TEST(NetParse, PortAndHostPortAreStrict) {
  std::uint16_t port = 1;
  EXPECT_TRUE(parse_port("0", port));  // ephemeral is a valid bind port
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(parse_port("65535", port));
  EXPECT_EQ(port, 65535);
  // What atol would silently accept must be rejected.
  for (const char* bad : {"", "abc", "70o1", "7001 ", " 7001", "-1",
                          "65536", "0x10", "7001junk"})
    EXPECT_FALSE(parse_port(bad, port)) << bad;

  std::string host;
  ASSERT_TRUE(parse_host_port("worker-3:7001", host, port));
  EXPECT_EQ(host, "worker-3");
  EXPECT_EQ(port, 7001);
  // A connect target needs a real host and a nonzero, clean port.
  for (const char* bad :
       {"worker-3", ":7001", "worker-3:", "worker-3:0", "worker-3:70o1"})
    EXPECT_FALSE(parse_host_port(bad, host, port)) << bad;
}

TEST(NetParse, HostPortListIsStrict) {
  std::vector<Endpoint> endpoints;
  ASSERT_TRUE(parse_host_port_list("a:1", endpoints));
  ASSERT_EQ(endpoints.size(), 1u);
  EXPECT_EQ(to_string(endpoints[0]), "a:1");

  ASSERT_TRUE(parse_host_port_list("a:7001,b:7001,a:7002", endpoints));
  ASSERT_EQ(endpoints.size(), 3u);
  EXPECT_EQ(endpoints[0], (Endpoint{"a", 7001}));
  EXPECT_EQ(endpoints[1], (Endpoint{"b", 7001}));
  EXPECT_EQ(endpoints[2], (Endpoint{"a", 7002}));

  // Empty list, empty items (leading/trailing/double commas), malformed
  // items, and duplicated endpoints — a typo'd replica seed list must
  // fail whole, never half-parse.
  for (const char* bad :
       {"", ",", "a:1,", ",a:1", "a:1,,b:2", "a:1,b", "a:1,b:70o1",
        "a:1,b:0", "a:1,a:1", "a:1,b:2,a:1"})
    EXPECT_FALSE(parse_host_port_list(bad, endpoints)) << bad;
}

TEST(NetListener, EphemeralPortAcceptsLoopbackConnections) {
  Listener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all("hello from client\nsecond line\n");
  });
  LineChannel channel(listener.accept());
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "hello from client");
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "second line");
  EXPECT_FALSE(channel.read_line(line));  // clean EOF after the client exits
  client.join();
}

TEST(NetChannel, LargeFramesCrossInFullBothWays) {
  // A payload far beyond one send/recv syscall: the full-buffer send and
  // read_exact loops are what the wire's frames (many KB of machine text
  // and partitions) depend on.
  std::string frame(1 << 20, 'x');
  frame += "|tail";

  Listener listener(0);
  std::thread echo([&listener, size = frame.size()] {
    LineChannel channel(listener.accept());
    std::string got(size, '\0');
    ASSERT_TRUE(channel.read_exact(got.data(), got.size()));
    channel.send(got);  // echo the whole frame back
  });

  LineChannel channel(
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000)));
  channel.send(frame);
  std::string back(frame.size(), '\0');
  ASSERT_TRUE(channel.read_exact(back.data(), back.size()));
  EXPECT_EQ(back, frame);
  echo.join();
}

TEST(NetChannel, MidLineEofIsATornMessageNotACleanEnd) {
  Listener listener(0);
  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all("complete line\nincomplete");  // no trailing newline
  });
  LineChannel channel(listener.accept());
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "complete line");
  // The peer is gone with half a line buffered: that is a torn message.
  EXPECT_THROW((void)channel.read_line(line), NetError);
  client.join();
}

TEST(NetChannel, EofInsideAReadExactIsATornMessage) {
  Listener listener(0);
  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all("0123456789");  // ten of the sixteen bytes asked for
  });
  LineChannel channel(listener.accept());
  char header[16];
  // The peer is gone with the read begun: a torn frame, not a clean end.
  EXPECT_THROW((void)channel.read_exact(header, sizeof(header)), NetError);
  client.join();
  // At a frame boundary, EOF is the clean end.
  EXPECT_FALSE(channel.read_exact(header, sizeof(header)));
}

/// `count` length-prefixed frames in one buffer: a u32 little-endian
/// length, then that many bytes of the frame's index. Frame 7 is longer
/// than a read chunk, so it starts in a buffered burst and ends in a read
/// straight into its destination.
std::string frame_burst(std::uint32_t count) {
  std::string out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t length = i == 7 ? 100'000 : 1 + i * 13 % 200;
    for (int b = 0; b < 4; ++b)
      out.push_back(static_cast<char>((length >> (8 * b)) & 0xff));
    out.append(length, static_cast<char>('a' + i % 26));
  }
  return out;
}

/// Reads one frame of frame_burst() back; false on clean EOF.
bool read_frame(LineChannel& channel, std::string& payload) {
  unsigned char header[4];
  if (!channel.read_exact(reinterpret_cast<char*>(header), sizeof(header)))
    return false;
  std::uint32_t length = 0;
  for (int b = 3; b >= 0; --b) length = length << 8 | header[b];
  payload.assign(length, '\0');
  if (!channel.read_exact(payload.data(), length))
    throw NetError("peer closed the stream mid-frame");
  return true;
}

TEST(NetChannel, FramesSentInOneWriteComeBackOnePerReadExact) {
  // The sender's one write arrives in bursts of many frames; each
  // read_exact must still return exactly its frame, in order, whatever
  // the burst boundaries.
  constexpr std::uint32_t kFrames = 60;
  Listener listener(0);
  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all(frame_burst(kFrames));
  });
  LineChannel channel(listener.accept());
  std::string payload;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(read_frame(channel, payload)) << i;
    const std::uint32_t length = i == 7 ? 100'000 : 1 + i * 13 % 200;
    ASSERT_EQ(payload, std::string(length, static_cast<char>('a' + i % 26)))
        << i;
  }
  EXPECT_FALSE(read_frame(channel, payload));  // clean EOF after the last
  client.join();
}

TEST(NetChannel, LineThenFramesInOneSegmentKeepByteOrder) {
  // A hello line with binary frames right behind it in the same write:
  // read_line must leave the frames' bytes for read_exact, in order, and
  // a second line after the frames still reads as a line.
  Listener listener(0);
  std::thread client([port = listener.port()] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all("hello 9 bin\n" + frame_burst(3) + "ping\n");
  });
  LineChannel channel(listener.accept());
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "hello 9 bin");
  std::string payload;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(read_frame(channel, payload));
    EXPECT_EQ(payload,
              std::string(1 + i * 13 % 200, static_cast<char>('a' + i)));
  }
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(line, "ping");
  EXPECT_FALSE(channel.read_line(line));
  client.join();
}

TEST(NetChannel, BurstEndingMidFrameIsATornMessage) {
  // Whole frames, then a frame whose payload stops at 20 of its 50 bytes,
  // then EOF: the whole frames read, and the cut one is torn although its
  // first bytes came in the same burst as the frames before it.
  std::string burst = frame_burst(4);
  burst += std::string("\x32\0\0\0", 4) + std::string(20, 'z');
  Listener listener(0);
  std::thread client([port = listener.port(), &burst] {
    Socket socket =
        Socket::connect("127.0.0.1", port, milliseconds(2000));
    socket.send_all(burst);
  });
  LineChannel channel(listener.accept());
  std::string payload;
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_TRUE(read_frame(channel, payload)) << i;
  client.join();
  EXPECT_THROW((void)read_frame(channel, payload), NetError);
}

TEST(NetChannel, DeadlineReadFailsInBoundedTimeOnASilentPeer) {
  // A peer that sends half a line and then goes silent (still connected —
  // keepalive never fires) must fail a deadline read when the deadline
  // passes, not wedge the reader: the health prober and the worker's
  // frame reads depend on exactly this.
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  LineChannel channel(listener.accept());
  client.send_all("torn without a newline");

  const auto start = std::chrono::steady_clock::now();
  std::string line;
  EXPECT_THROW(
      (void)channel.read_line(line, start + milliseconds(100)), NetError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(5000));

  // The connection survives a missed deadline; bytes that were already
  // buffered stay buffered, so completing the line later succeeds.
  client.send_all(" but finished later\n");
  ASSERT_TRUE(channel.read_line(
      line, std::chrono::steady_clock::now() + milliseconds(2000)));
  EXPECT_EQ(line, "torn without a newline but finished later");
}

TEST(NetChannel, DeadlineBoundsATrickledReadExact) {
  // A peer that keeps the read alive one byte at a time, never reaching
  // the count: one deadline covers the whole read_exact, so trickling
  // cannot stretch it byte by byte. A timed-out read keeps what it got in
  // `dst` and does not resume — the worker tears the connection down.
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  LineChannel channel(listener.accept());
  client.send_all("x");  // buffered before the read begins
  std::atomic<bool> stop{false};
  std::thread trickle([&] {
    while (!stop.load()) {
      client.send_all("x");
      std::this_thread::sleep_for(milliseconds(20));
    }
  });

  const auto start = std::chrono::steady_clock::now();
  std::vector<char> dst(1 << 16);
  const Deadline deadline = start + milliseconds(300);
  EXPECT_THROW((void)channel.read_exact(dst.data(), dst.size(), deadline),
               NetError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(5000));
  stop.store(true);
  trickle.join();
  EXPECT_EQ(dst[0], 'x');  // what it got before the deadline stays put
}

TEST(NetSocket, ConnectToClosedPortFailsWithNetError) {
  // Grab an ephemeral port, then close the listener: nothing is bound
  // there anymore, so loopback connect gets an immediate refusal.
  std::uint16_t dead_port = 0;
  {
    Listener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW(
      (void)Socket::connect("127.0.0.1", dead_port, milliseconds(500)),
      NetError);
  EXPECT_THROW(
      (void)Socket::connect("no-such-host.invalid", 1, milliseconds(500)),
      NetError);
}

TEST(NetSocket, SendToDeadPeerThrowsInsteadOfKillingTheProcess) {
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  {
    Socket accepted = listener.accept();
  }  // peer closes immediately
  // The first send lands in the kernel buffer and triggers the reset; a
  // bounded number of follow-ups must surface NetError (EPIPE), not
  // SIGPIPE — no signal handler is installed in this test on purpose.
  const std::string chunk(64 * 1024, 'y');
  bool threw = false;
  for (int i = 0; i < 64 && !threw; ++i) {
    try {
      client.send_all(chunk);
    } catch (const NetError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(NetChannel, BorrowedFdPairLeavesOwnershipWithTheCaller) {
  // The worker's stdio bridge: a channel over borrowed fds must not close
  // them. Use a socketpair-backed loopback via listener/connect.
  Listener listener(0);
  Socket client =
      Socket::connect("127.0.0.1", listener.port(), milliseconds(2000));
  Socket server = listener.accept();
  {
    LineChannel borrowed(server.fd(), server.fd());
    client.send_all("ping\n");
    std::string line;
    ASSERT_TRUE(borrowed.read_line(line));
    EXPECT_EQ(line, "ping");
  }  // borrowed channel destroyed; server fd must still be usable
  server.send_all("pong\n");
  LineChannel reader(std::move(client));
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "pong");
}

}  // namespace
}  // namespace ffsm::net
