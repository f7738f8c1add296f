#include "sim/backend.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "fsm/serialize.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace ffsm {

std::vector<FusionResponse> ShardBackend::drain(const std::string& key) {
  TopDrain top;
  top.key = key;
  top.obs_parent = obs::current_span_id();
  drain_tops({&top, 1});
  if (top.error) std::rethrow_exception(top.error);
  return std::move(top.responses);
}

// ---------------------------------------------------- QueuedWireBackend

namespace {

/// Reply side of one serve window: takes the worker's frames for it in
/// order — serving, one response per request, a cachewarm snapshot (only
/// on a window that allowed one), done.
class ServeReply {
 public:
  ServeReply(std::uint64_t expected, bool warm)
      : expected_(expected), warm_(warm) {}

  /// Takes the window's next frame; true once its dialogue is over: done
  /// arrived, or the worker answered error instead of serving (failure()
  /// then holds the detail, and the stream is still in sync). Throws
  /// ContractViolation on a frame out of order — the stream can no longer
  /// be trusted.
  bool accept(Frame frame) {
    const auto out_of_order = [&frame](const char* expected) {
      throw ContractViolation(std::string("expected ") + expected +
                              ", got '" + frame_type_name(frame.type) + "'");
    };
    if (!serving_) {
      if (frame.type == FrameType::kError) {
        failure_ = std::move(frame.text);
        return true;
      }
      if (frame.type != FrameType::kServing || frame.count != expected_)
        out_of_order("'serving' for the whole window");
      serving_ = true;
      responses.reserve(expected_);
      return false;
    }
    if (responses.size() < expected_) {
      if (frame.type != FrameType::kResponse) out_of_order("a response");
      responses.push_back(std::move(frame.response));
      return false;
    }
    if (warm_ && !snapshot && frame.type == FrameType::kCacheWarm) {
      snapshot = std::move(frame.entries);
      return false;
    }
    if (frame.type != FrameType::kDone) out_of_order("'done'");
    return true;
  }

  [[nodiscard]] const std::optional<std::string>& failure() const noexcept {
    return failure_;
  }

  std::vector<FusionResponse> responses;
  std::optional<std::vector<WarmCacheEntry>> snapshot;

 private:
  std::uint64_t expected_;
  bool warm_;
  bool serving_ = false;
  std::optional<std::string> failure_;
};

/// One window as frames: the serve command for `key` (trace parent, warm
/// flag) followed by one request frame per entry of `requests`.
std::vector<Frame> serve_frames(const std::string& key, std::uint64_t parent,
                                bool warm,
                                std::span<const WireRequest> requests) {
  std::vector<Frame> frames;
  frames.reserve(requests.size() + 1);
  Frame& serve = frames.emplace_back(FrameType::kServe);
  serve.key = key;
  serve.count = requests.size();
  serve.parent = parent;
  serve.warm = warm;
  for (const WireRequest& request : requests)
    frames.emplace_back(FrameType::kRequest).request = request;
  return frames;
}

}  // namespace

std::vector<QueuedWireBackend::Batch> QueuedWireBackend::batches_locked(
    std::span<TopDrain* const> tops) {
  std::vector<Batch> batches;
  for (TopDrain* drain : tops) {
    const TopState& top = top_of(drain->key);
    if (top.queue.empty()) continue;
    Batch& batch = batches.emplace_back();
    batch.drain = drain;
    // Copy, don't move: the queue stays authoritative until every
    // response of the batch has arrived.
    batch.requests = top.queue;
  }
  return batches;
}

void QueuedWireBackend::serve_round(
    const std::shared_ptr<WireConversation>& conversation,
    std::span<Batch* const> batches, std::size_t window, obs::Obs* obs) {
  window = std::max<std::size_t>(1, window);
  for (;;) {
    // One wave: the next window of every batch still being served. The
    // window bounds each batch's request frames on the wire before its
    // responses are awaited, so a wedged worker stalls the drain with one
    // window per top buffered instead of the whole backlog.
    std::vector<Batch*> wave;
    for (Batch* batch : batches)
      if (!batch->finished && wave.size() < kMaxPipelinedBatches)
        wave.push_back(batch);
    if (wave.empty()) return;
    if (obs != nullptr) obs->record("wire.pipeline_depth", wave.size());
    std::vector<WireConversation::Exchange> exchanges;
    std::vector<ServeReply> replies;
    for (const Batch* batch : wave) {
      const std::size_t count =
          std::min(window, batch->requests.size() - batch->served.size());
      // Only the window that completes the batch may bring a snapshot.
      const bool last = batch->served.size() + count == batch->requests.size();
      exchanges.push_back(WireConversation::open(conversation));
      // Trace stitching: the top's cluster.serve_top becomes the parent of
      // the worker's gen.* spans for this window.
      exchanges.back().send(serve_frames(
          batch->drain->key, batch->drain->obs_parent, last,
          std::span(batch->requests).subspan(batch->served.size(), count)));
      replies.emplace_back(count, last);
    }
    for (std::size_t k = 0; k < wave.size(); ++k) {
      try {
        while (!replies[k].accept(exchanges[k].receive())) {
        }
      } catch (const net::NetError&) {
        throw;
      } catch (const ContractViolation& error) {
        conversation->poison(error.what());
        throw;
      }
      Batch& batch = *wave[k];
      if (const auto& failure = replies[k].failure()) {
        // The worker is alive and in sync — the batch itself failed (the
        // analogue of generate_fusion_batch throwing in-process). Its
        // requests stay queued for the cluster's retry path.
        batch.finished = true;
        batch.drain->error = std::make_exception_ptr(ContractViolation(
            "worker failed to serve '" + batch.drain->key + "': " + *failure));
        continue;
      }
      for (FusionResponse& response : replies[k].responses)
        batch.served.push_back(std::move(response));
      if (replies[k].snapshot) {
        batch.snapshot = std::move(replies[k].snapshot);
        if (obs != nullptr) obs->count("wire.warm_snapshot");
      }
      batch.finished = batch.served.size() == batch.requests.size();
    }
  }
}

void QueuedWireBackend::deliver_locked(std::span<Batch* const> round) {
  for (Batch* batch : round) {
    if (!batch->finished || batch->drain->error) continue;
    TopState& top = top_of(batch->drain->key);
    std::unordered_set<std::uint64_t> served;
    served.reserve(batch->requests.size());
    for (const WireRequest& request : batch->requests)
      served.insert(request.ticket);
    std::erase_if(top.queue, [&](const WireRequest& request) {
      return served.contains(request.ticket);
    });
    batch->drain->responses = std::move(batch->served);
    batch->requests.clear();
    if (batch->snapshot) top.warm = std::move(*batch->snapshot);
  }
}

QueuedWireBackend::TopState& QueuedWireBackend::top_of(
    const std::string& key) {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

const QueuedWireBackend::TopState& QueuedWireBackend::top_of(
    const std::string& key) const {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

Frame QueuedWireBackend::exchange(
    const std::shared_ptr<WireConversation>& conversation, Frame command) {
  WireConversation::Exchange exchange = WireConversation::open(conversation);
  exchange.send(std::move(command));
  return exchange.receive();
}

void QueuedWireBackend::expect_ok(
    const std::shared_ptr<WireConversation>& conversation, Frame command,
    const std::string& what) {
  const Frame reply = exchange(conversation, std::move(command));
  if (reply.type == FrameType::kOk) return;
  if (reply.type == FrameType::kError)
    throw ContractViolation(what + ": " + reply.text);
  conversation->poison("unexpected reply");
  throw ContractViolation(what + ": unexpected '" +
                          frame_type_name(reply.type) + "' reply");
}

void QueuedWireBackend::register_top_locked(
    const std::shared_ptr<WireConversation>& conversation,
    const std::string& key, const std::string& peer) {
  Frame top(FrameType::kTop);
  top.key = key;
  top.text = top_of(key).machine_text;
  expect_ok(conversation, std::move(top),
            "worker " + peer + " rejected top '" + key + "'");
}

void QueuedWireBackend::handshake_locked(
    const std::shared_ptr<WireConversation>& conversation,
    const ShardServiceConfig& config, const std::string& peer) {
  Frame configure(FrameType::kConfig);
  configure.config = config;
  expect_ok(
      conversation, std::move(configure),
      "worker " + peer + " rejected config (is it an ffsm_shard_worker?)");
  for (const std::string& key : top_order_)
    register_top_locked(conversation, key, peer);
  for (const std::string& key : top_order_) {
    const TopState& top = top_of(key);
    if (top.warm.empty()) continue;
    Frame warm(FrameType::kCacheWarm);
    warm.key = key;
    warm.entries = top.warm;
    expect_ok(conversation, std::move(warm),
              "worker " + peer + " rejected warm cache for '" + key + "'");
  }
}

void QueuedWireBackend::add_top(const std::string& key, const Dfsm& top) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FFSM_EXPECTS(!tops_.contains(key));
  TopState state;
  state.machine_text = to_text(top);  // self-contained: alphabet header
  state.top_size = top.size();
  tops_.emplace(key, std::move(state));
  top_order_.push_back(key);
  // Roll our entry back on failure — the cluster rolls its own back too,
  // and a key the cluster denies must not linger here blocking
  // re-registration.
  try {
    register_added_top_locked(key);
  } catch (...) {
    tops_.erase(key);
    top_order_.pop_back();
    throw;
  }
}

void QueuedWireBackend::validate(const std::string& key,
                                 const FusionRequest& request) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const TopState& top = top_of(key);
  for (const Partition& p : request.originals)
    FFSM_EXPECTS(p.size() == top.top_size);
}

std::uint64_t QueuedWireBackend::submit(const std::string& key,
                                        std::string client,
                                        FusionRequest request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::uint64_t ticket = next_ticket_++;
  top.queue.push_back({ticket, std::move(client), std::move(request)});
  return ticket;
}

std::size_t QueuedWireBackend::pending(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return top_of(key).queue.size();
}

std::size_t QueuedWireBackend::discard_pending(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::size_t count = top.queue.size();
  top.queue.clear();
  return count;
}

// ----------------------------------------------------- InProcessBackend

InProcessBackend::InProcessBackend(FusionServiceOptions options)
    : options_(options) {}

FusionService& InProcessBackend::service_of(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(key);
  FFSM_EXPECTS(it != services_.end());
  return *it->second;
}

void InProcessBackend::add_top(const std::string& key, const Dfsm& top) {
  // Each service tags its spans with its serving key, so one shared Obs
  // still tells the tops apart.
  FusionServiceOptions per_top = options_;
  per_top.obs_top = key;
  auto service = std::make_unique<FusionService>(top, per_top);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = services_.try_emplace(key, std::move(service));
  FFSM_EXPECTS(inserted);
}

void InProcessBackend::validate(const std::string& key,
                                const FusionRequest& request) const {
  service_of(key).validate(request);
}

std::uint64_t InProcessBackend::submit(const std::string& key,
                                       std::string client,
                                       FusionRequest request) {
  return service_of(key).submit(std::move(client), std::move(request));
}

std::size_t InProcessBackend::pending(const std::string& key) const {
  return service_of(key).pending();
}

std::size_t InProcessBackend::discard_pending(const std::string& key) {
  return service_of(key).discard_pending();
}

void InProcessBackend::drain_tops(std::span<TopDrain> tops) {
  const auto drain_one = [&](std::size_t i) {
    TopDrain& top = tops[i];
    try {
      top.responses = service_of(top.key).drain(top.obs_parent);
    } catch (...) {
      top.error = std::current_exception();
    }
  };
  if (options_.parallel) {
    ParallelOptions popt;
    popt.pool = options_.pool;
    popt.serial_threshold = 2;  // a whole batch per iteration
    parallel_for(0, tops.size(), drain_one, popt);
  } else {
    for (std::size_t i = 0; i < tops.size(); ++i) drain_one(i);
  }
}

ServiceStats InProcessBackend::stats(const std::string& key) const {
  return service_of(key).stats();
}

const FusionService& InProcessBackend::service(const std::string& key) const {
  return service_of(key);
}

}  // namespace ffsm
