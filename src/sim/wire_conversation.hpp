// WireConversation: one connection, many interleaved exchanges.
//
// The parent-side half of exchange multiplexing. A conversation owns a
// connected LineChannel whose hello already ran (sim/messages.hpp), and
// hands out Exchange handles — one per request/reply dialogue (a serve
// batch, a stats query, a top registration). Every exchange gets a fresh
// nonzero id: sends are whole-buffer atomic under a send lock, and
// receives cooperate through reader election — whichever exchange thread
// needs a frame while nobody is reading pulls frames off the wire and
// routes each to its exchange's inbox by id, waking the waiters. Drains
// for different tops therefore interleave on a single connection instead
// of queueing behind one another.
//
// Failure model: any transport or protocol error poisons the whole
// conversation — every blocked receive wakes with NetError, subsequent
// opens fail fast, and the socket is shutdown() so a reader blocked in
// recv on another thread wakes too (the fd itself stays open until the
// conversation is destroyed, so no thread can race a recycled fd). The
// owning backend reacts by dropping its shared_ptr and reconnecting; the
// parent-side queues make that lossless as ever.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/line_channel.hpp"
#include "sim/messages.hpp"

namespace ffsm {

class WireConversation {
 public:
  /// Takes a connected channel whose hello already ran (negotiate_wire).
  /// `obs` (optional) times wire encode/decode and per-exchange
  /// round-trips: `wire.encode` — encoding a send buffer; `wire.decode` —
  /// pulling and decoding one frame off the wire (includes time blocked on
  /// the peer); `wire.roundtrip` — an exchange's send to its first reply.
  explicit WireConversation(net::LineChannel channel, obs::Obs* obs = nullptr);
  ~WireConversation();

  WireConversation(const WireConversation&) = delete;
  WireConversation& operator=(const WireConversation&) = delete;

  [[nodiscard]] bool poisoned() const;
  /// Exchanges currently open — fail-back and other connection moves are
  /// only safe at zero, when nothing is in flight on the wire.
  [[nodiscard]] std::size_t active_exchanges() const;

  /// Marks the conversation dead: wakes every waiter with NetError and
  /// shuts the socket down (a blocked reader unblocks with EOF). Safe from
  /// any thread, idempotent.
  void poison(const std::string& reason) noexcept;

  /// Best-effort frame outside any exchange — the shutdown goodbye, which
  /// expects no reply. Send failures are swallowed.
  void send_goodbye(const Frame& frame) noexcept;

  /// One request/reply dialogue. Move-only; closing (destroying) it drops
  /// its inbox — any frame later routed to the closed id poisons the
  /// conversation, because a reply nobody awaits means the stream state is
  /// no longer trustworthy.
  class Exchange {
   public:
    Exchange() = default;
    Exchange(Exchange&& other) noexcept;
    Exchange& operator=(Exchange&& other) noexcept;
    ~Exchange();

    Exchange(const Exchange&) = delete;
    Exchange& operator=(const Exchange&) = delete;

    /// Sends the frames as one buffer, one write — frames of a batch are
    /// contiguous on the wire even while other exchanges interleave
    /// between batches. Tags every frame with this exchange's id. Throws
    /// NetError on a dead conversation.
    void send(std::vector<Frame> frames);
    void send(Frame frame);

    /// Next frame addressed to this exchange; blocks while other
    /// exchanges' frames arrive. Throws NetError once the conversation is
    /// poisoned; rethrows the codec's ContractViolation (after poisoning)
    /// when the stream itself is garbled.
    [[nodiscard]] Frame receive();

   private:
    friend class WireConversation;
    Exchange(std::shared_ptr<WireConversation> conversation, std::uint64_t id);

    void close() noexcept;

    std::shared_ptr<WireConversation> conversation_;
    std::uint64_t id_ = 0;
    /// Obs timestamp of the last send with no reply seen yet (0 = none);
    /// the first receive after it records one wire.roundtrip sample.
    std::uint64_t sent_at_us_ = 0;
  };

  /// Opens a new exchange with a fresh id; never blocks. Throws NetError
  /// when the conversation is poisoned. `self` must own this conversation
  /// — exchanges keep it alive past a backend's drop.
  [[nodiscard]] static Exchange open(
      const std::shared_ptr<WireConversation>& self);

 private:
  Frame receive_for(std::uint64_t id);
  void send_buffer(const std::string& buffer);
  void route_locked(Frame&& frame);
  void poison_locked(const std::string& reason) noexcept;

  net::LineChannel channel_;
  WireCodec codec_;  // decode is the elected reader's alone
  obs::Obs* obs_ = nullptr;

  std::mutex send_mutex_;

  mutable std::mutex state_mutex_;
  std::condition_variable frames_ready_;
  bool reading_ = false;
  bool dead_ = false;
  std::string death_reason_;
  std::uint64_t next_exchange_ = 1;
  std::size_t active_ = 0;
  std::unordered_map<std::uint64_t, std::deque<Frame>> inboxes_;
};

}  // namespace ffsm
