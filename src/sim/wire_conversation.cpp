#include "sim/wire_conversation.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace ffsm {

WireConversation::WireConversation(net::LineChannel channel, obs::Obs* obs)
    : channel_(std::move(channel)), obs_(obs) {
  FFSM_EXPECTS(channel_.valid());
}

WireConversation::~WireConversation() = default;

bool WireConversation::poisoned() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return dead_;
}

std::size_t WireConversation::active_exchanges() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return active_;
}

void WireConversation::poison_locked(const std::string& reason) noexcept {
  if (dead_) return;
  dead_ = true;
  death_reason_ = "wire conversation poisoned: " + reason;
  // Wake a reader blocked in recv on another thread with EOF; the fd
  // itself stays open until destruction, so nobody can race a recycled fd.
  channel_.shutdown_io();
  frames_ready_.notify_all();
}

void WireConversation::poison(const std::string& reason) noexcept {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  poison_locked(reason);
}

void WireConversation::send_goodbye(const Frame& frame) noexcept {
  try {
    std::string buffer;
    codec_.encode(frame, buffer);
    const std::lock_guard<std::mutex> lock(send_mutex_);
    channel_.send(buffer);
  } catch (...) {
    // Goodbye is best-effort: the peer sees EOF either way.
  }
}

void WireConversation::route_locked(Frame&& frame) {
  const auto it = inboxes_.find(frame.exchange);
  if (it == inboxes_.end()) {
    // A reply nobody awaits: some exchange gave up mid-dialogue, so frame
    // boundaries are no longer trustworthy — fail the whole connection
    // and let the backend reconnect from its queues.
    poison_locked("frame for unknown exchange " +
                  std::to_string(frame.exchange));
    return;
  }
  it->second.push_back(std::move(frame));
}

Frame WireConversation::receive_for(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    const auto it = inboxes_.find(id);
    FFSM_EXPECTS(it != inboxes_.end());
    if (!it->second.empty()) {
      Frame frame = std::move(it->second.front());
      it->second.pop_front();
      return frame;
    }
    if (dead_) throw net::NetError(death_reason_);
    if (reading_) {
      // Another exchange is on the wire for all of us; it will route our
      // frame here and wake us.
      frames_ready_.wait(lock);
      continue;
    }
    // Reader election: nobody is reading, so this thread pulls the next
    // frame for whichever exchange it belongs to.
    reading_ = true;
    lock.unlock();
    Frame frame;
    const std::uint64_t decode_start =
        obs_ != nullptr && obs_->enabled() ? obs_->now_us() : 0;
    try {
      frame = codec_.expect(channel_, "conversation");
    } catch (const std::exception& error) {
      lock.lock();
      reading_ = false;
      poison_locked(error.what());
      throw;
    }
    if (obs_ != nullptr && obs_->enabled())
      obs_->record("wire.decode", obs_->now_us() - decode_start);
    lock.lock();
    reading_ = false;
    route_locked(std::move(frame));
    frames_ready_.notify_all();
  }
}

void WireConversation::send_buffer(const std::string& buffer) {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (dead_) throw net::NetError(death_reason_);
  }
  const std::lock_guard<std::mutex> lock(send_mutex_);
  try {
    channel_.send(buffer);
  } catch (const net::NetError& error) {
    poison(error.what());
    throw;
  }
}

WireConversation::Exchange WireConversation::open(
    const std::shared_ptr<WireConversation>& self) {
  FFSM_EXPECTS(self != nullptr);
  const std::lock_guard<std::mutex> lock(self->state_mutex_);
  if (self->dead_) throw net::NetError(self->death_reason_);
  const std::uint64_t id = self->next_exchange_++;
  self->inboxes_.emplace(id, std::deque<Frame>{});
  ++self->active_;
  return Exchange(self, id);
}

// ---------------------------------------------------------------- Exchange

WireConversation::Exchange::Exchange(
    std::shared_ptr<WireConversation> conversation, std::uint64_t id)
    : conversation_(std::move(conversation)), id_(id) {}

WireConversation::Exchange::Exchange(Exchange&& other) noexcept
    : conversation_(std::move(other.conversation_)),
      id_(other.id_),
      sent_at_us_(other.sent_at_us_) {
  other.conversation_.reset();
  other.id_ = 0;
  other.sent_at_us_ = 0;
}

WireConversation::Exchange& WireConversation::Exchange::operator=(
    Exchange&& other) noexcept {
  if (this != &other) {
    close();
    conversation_ = std::move(other.conversation_);
    id_ = other.id_;
    sent_at_us_ = other.sent_at_us_;
    other.conversation_.reset();
    other.id_ = 0;
    other.sent_at_us_ = 0;
  }
  return *this;
}

WireConversation::Exchange::~Exchange() { close(); }

void WireConversation::Exchange::close() noexcept {
  if (!conversation_) return;
  {
    const std::lock_guard<std::mutex> lock(conversation_->state_mutex_);
    const auto it = conversation_->inboxes_.find(id_);
    if (it != conversation_->inboxes_.end()) {
      // Frames nobody consumed mean the dialogue was abandoned mid-way;
      // the stream position is unknowable (see route_locked).
      if (!it->second.empty())
        conversation_->poison_locked("exchange closed with pending frames");
      conversation_->inboxes_.erase(it);
    }
    --conversation_->active_;
  }
  conversation_.reset();
}

void WireConversation::Exchange::send(std::vector<Frame> frames) {
  FFSM_EXPECTS(conversation_ != nullptr);
  obs::Obs* obs = conversation_->obs_;
  const bool timed = obs != nullptr && obs->enabled();
  const std::uint64_t encode_start = timed ? obs->now_us() : 0;
  std::string buffer;
  for (Frame& frame : frames) {
    frame.exchange = id_;
    conversation_->codec_.encode(frame, buffer);
  }
  if (timed) obs->record("wire.encode", obs->now_us() - encode_start);
  conversation_->send_buffer(buffer);
  if (timed) sent_at_us_ = obs->now_us();
}

void WireConversation::Exchange::send(Frame frame) {
  FFSM_EXPECTS(conversation_ != nullptr);
  obs::Obs* obs = conversation_->obs_;
  const bool timed = obs != nullptr && obs->enabled();
  const std::uint64_t encode_start = timed ? obs->now_us() : 0;
  frame.exchange = id_;
  std::string buffer;
  conversation_->codec_.encode(frame, buffer);
  if (timed) obs->record("wire.encode", obs->now_us() - encode_start);
  conversation_->send_buffer(buffer);
  if (timed) sent_at_us_ = obs->now_us();
}

Frame WireConversation::Exchange::receive() {
  FFSM_EXPECTS(conversation_ != nullptr);
  Frame frame = conversation_->receive_for(id_);
  if (sent_at_us_ != 0) {
    // Send-to-first-reply: later frames of a streamed reply (serving /
    // response / done) extend the same dialogue, so only the first one
    // closes the round-trip sample.
    conversation_->obs_->span_since("wire.roundtrip", sent_at_us_,
                                    {.exchange = id_});
    sent_at_us_ = 0;
  }
  return frame;
}

}  // namespace ffsm
