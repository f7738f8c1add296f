// Wire protocol codec: random requests/responses/stats/configs and every
// frame type survive encode -> decode -> encode byte-identically, field
// for field; machine texts are self-contained; and damaged or hostile
// payloads — truncations, corruptions, duplicate metric names,
// out-of-range buckets and enum bytes — are rejected rather than
// half-read.
#include "sim/messages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fsm/serialize.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;

/// Client names that stress string fields: spaces, '%', newlines, control
/// bytes, UTF-8, and the empty string.
const char* const kNastyClients[] = {
    "alice", "", "two words", "percent%sign", "tab\tchar", "new\nline",
    "  lead-and-trail  ", "uni\xc3\xa9ode", "%", "%%25", "a\x01b\x7f",
};

Partition random_partition(std::uint32_t n, Xoshiro256& rng) {
  std::vector<std::uint32_t> assignment(n);
  const std::uint32_t blocks = 1 + static_cast<std::uint32_t>(
                                       rng.below(n == 0 ? 1 : n));
  for (std::uint32_t i = 0; i < n; ++i)
    assignment[i] = static_cast<std::uint32_t>(rng.below(blocks));
  return Partition(std::move(assignment));
}

/// Every field of two frames, compared one by one.
void expect_same_frame(const Frame& back, const Frame& sent) {
  SCOPED_TRACE(frame_type_name(sent.type));
  EXPECT_EQ(back.type, sent.type);
  EXPECT_EQ(back.exchange, sent.exchange);
  EXPECT_EQ(back.key, sent.key);
  EXPECT_EQ(back.count, sent.count);
  EXPECT_EQ(back.parent, sent.parent);
  EXPECT_EQ(back.warm, sent.warm);
  EXPECT_EQ(back.text, sent.text);
  EXPECT_EQ(back.request.ticket, sent.request.ticket);
  EXPECT_EQ(back.request.client, sent.request.client);
  EXPECT_EQ(back.request.request.f, sent.request.request.f);
  EXPECT_EQ(back.request.request.policy, sent.request.request.policy);
  EXPECT_EQ(back.request.request.originals, sent.request.request.originals);
  EXPECT_EQ(back.response.ticket, sent.response.ticket);
  EXPECT_EQ(back.response.client, sent.response.client);
  EXPECT_EQ(back.response.result.partitions, sent.response.result.partitions);
  const GenerateStats& b = back.response.result.stats;
  const GenerateStats& s = sent.response.result.stats;
  EXPECT_EQ(b.machines_added, s.machines_added);
  EXPECT_EQ(b.descent_steps, s.descent_steps);
  EXPECT_EQ(b.candidates_examined, s.candidates_examined);
  EXPECT_EQ(b.closures_evaluated, s.closures_evaluated);
  EXPECT_EQ(b.cover_cache_hits, s.cover_cache_hits);
  EXPECT_EQ(b.dmin_before, s.dmin_before);
  EXPECT_EQ(b.dmin_after, s.dmin_after);
#define FFSM_EXPECT_STAT(name, agg) \
  EXPECT_EQ(back.stats.name, sent.stats.name) << #name;
  FFSM_SERVICE_STATS_COUNTERS(FFSM_EXPECT_STAT)
#undef FFSM_EXPECT_STAT
  EXPECT_EQ(back.config.parallel, sent.config.parallel);
  EXPECT_EQ(back.config.threads, sent.config.threads);
  EXPECT_EQ(back.config.cache_capacity, sent.config.cache_capacity);
  ASSERT_EQ(back.entries.size(), sent.entries.size());
  for (std::size_t i = 0; i < sent.entries.size(); ++i) {
    EXPECT_EQ(back.entries[i].key, sent.entries[i].key) << i;
    EXPECT_EQ(back.entries[i].cover, sent.entries[i].cover) << i;
  }
  EXPECT_EQ(back.obs, sent.obs);  // every metric, span for span
}

/// encode -> decode -> encode: the decoded frame matches `frame` field for
/// field and re-encodes to the same bytes.
void expect_round_trip(const Frame& frame) {
  WireCodec codec;
  const std::string bytes = codec.encode(frame);
  const Frame back = codec.decode(bytes);
  expect_same_frame(back, frame);
  EXPECT_EQ(codec.encode(back), bytes) << frame_type_name(frame.type);
}

TEST(WireCodec, OnlyTheBinaryCodecIsMade) {
  EXPECT_NE(make_wire_codec(true), nullptr);
  EXPECT_THROW((void)make_wire_codec(false), ContractViolation);
}

// Random requests (random partition catalogs, f in {1,2}, every policy,
// nasty clients) survive encode -> decode -> encode byte-identically,
// field for field.
TEST(WireRequestCodec, RandomRequestsRoundTripByteIdentically) {
  Xoshiro256 rng(2024);
  const DescentPolicy policies[] = {DescentPolicy::kFirstFound,
                                    DescentPolicy::kFewestBlocks,
                                    DescentPolicy::kMostBlocks};
  for (int iter = 0; iter < 200; ++iter) {
    Frame frame(FrameType::kRequest);
    frame.exchange = rng();
    WireRequest& request = frame.request;
    request.ticket = rng();
    request.client = kNastyClients[rng.below(std::size(kNastyClients))];
    request.request.f = 1 + static_cast<std::uint32_t>(rng.below(2));
    request.request.policy = policies[iter % 3];
    const std::uint32_t states =
        2 + static_cast<std::uint32_t>(rng.below(30));
    const std::size_t originals = rng.below(5);
    for (std::size_t i = 0; i < originals; ++i)
      request.request.originals.push_back(random_partition(states, rng));
    expect_round_trip(frame);
  }
}

TEST(WireResponseCodec, RandomResponsesRoundTripByteIdentically) {
  Xoshiro256 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    Frame frame(FrameType::kResponse);
    frame.exchange = rng();
    FusionResponse& response = frame.response;
    response.ticket = rng();
    response.client = kNastyClients[rng.below(std::size(kNastyClients))];
    const std::uint32_t states =
        2 + static_cast<std::uint32_t>(rng.below(30));
    const std::size_t machines = rng.below(4);
    for (std::size_t i = 0; i < machines; ++i)
      response.result.partitions.push_back(random_partition(states, rng));
    GenerateStats& s = response.result.stats;
    s.machines_added = static_cast<std::uint32_t>(rng());
    s.descent_steps = static_cast<std::uint32_t>(rng());
    s.candidates_examined = rng();
    s.closures_evaluated = rng();
    s.cover_cache_hits = rng();
    s.dmin_before = static_cast<std::uint32_t>(rng());
    s.dmin_after = static_cast<std::uint32_t>(rng());
    expect_round_trip(frame);
  }
}

TEST(WireResponseCodec, RealGeneratedFusionRoundTrips) {
  // Not synthetic: an actual Algorithm 2 result over a catalog product.
  const CrossProduct product = counter_pair_product(4);
  const std::vector<Partition> originals = component_partitions(product);
  GenerateOptions options;
  options.f = 2;
  options.parallel = false;
  const FusionResult result =
      generate_fusion(product.top, originals, options);
  ASSERT_FALSE(result.partitions.empty());

  Frame frame(FrameType::kResponse);
  frame.response = {42, "tenant 0", result};
  expect_round_trip(frame);
}

TEST(WireStatsCodec, RandomStatsRoundTripByteIdentically) {
  Xoshiro256 rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    Frame frame(FrameType::kStats);
    // Every counter, full 64-bit range where the field holds it.
#define FFSM_RANDOM_STAT(name, agg) \
  frame.stats.name = static_cast<decltype(frame.stats.name)>(rng());
    FFSM_SERVICE_STATS_COUNTERS(FFSM_RANDOM_STAT)
#undef FFSM_RANDOM_STAT
    expect_round_trip(frame);
  }
}

TEST(WireConfigCodec, ConfigsRoundTripByteIdentically) {
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{17}, LowerCoverCache::kDefaultCapacity})
    for (const bool parallel : {false, true}) {
      Frame frame(FrameType::kConfig);
      frame.config.parallel = parallel;
      frame.config.threads = parallel ? kMaxWireThreads : 0;
      frame.config.cache_capacity = capacity;
      expect_round_trip(frame);
    }
}

/// One sample Frame per FrameType, every meaningful field populated and a
/// distinct nonzero exchange id — the corpus for the binary-framing
/// robustness properties below.
std::vector<Frame> binary_sample_frames(Xoshiro256& rng) {
  std::vector<Frame> frames;
  std::uint64_t exchange = 0x1000;
  const auto add = [&](FrameType type) -> Frame& {
    Frame frame;
    frame.type = type;
    frame.exchange = ++exchange;
    frames.push_back(std::move(frame));
    return frames.back();
  };
  add(FrameType::kOk);
  add(FrameType::kError).text = "worker failed: two words\nand a newline";
  {
    Frame& config = add(FrameType::kConfig);
    config.config.threads = 8;
    config.config.cache_capacity = 9;
  }
  {
    Frame& top = add(FrameType::kTop);
    top.key = "counters-10";
    top.text = "machine with\nmany lines\nand % signs\n";
  }
  {
    Frame& serve = add(FrameType::kServe);
    serve.key = "counters-10";
    serve.count = 3;
    serve.parent = 0xfeed'beef;  // the v5 cross-process stitching id
    serve.warm = true;  // v6: ask for the warm snapshot
  }
  {
    Frame& request = add(FrameType::kRequest);
    request.request.ticket = 77;
    request.request.client = "uni\xc3\xa9ode client";
    request.request.request.f = 2;
    request.request.request.policy = DescentPolicy::kMostBlocks;
    request.request.request.originals.push_back(random_partition(6, rng));
    request.request.request.originals.push_back(random_partition(6, rng));
  }
  add(FrameType::kServing).count = 3;
  {
    Frame& response = add(FrameType::kResponse);
    response.response.ticket = 78;
    response.response.client = "  lead-and-trail  ";
    response.response.result.partitions.push_back(random_partition(6, rng));
    response.response.result.stats.machines_added = 2;
    response.response.result.stats.dmin_after = 3;
  }
  add(FrameType::kDone);
  add(FrameType::kStatsQuery).key = "counters-10";
  {
    Frame& stats = add(FrameType::kStats);
    stats.stats.requests_served = 5;
    stats.stats.restarts = 1;
    stats.stats.failovers = 2;
    stats.stats.health_probes_failed = 3;
    stats.stats.cache_bytes = 4096;
  }
  {
    // The warm handoff frame empty (a cache with nothing resident) and
    // with two entries, one cover empty.
    add(FrameType::kCacheWarm).key = "counters-10";
    Frame& warm = add(FrameType::kCacheWarm);
    warm.key = "counters-10";
    WarmCacheEntry first;
    first.key = random_partition(6, rng);
    first.cover.push_back(random_partition(6, rng));
    first.cover.push_back(random_partition(6, rng));
    warm.entries.push_back(std::move(first));
    WarmCacheEntry second;
    second.key = random_partition(6, rng);
    warm.entries.push_back(std::move(second));
  }
  {
    // Both halves of the obs exchange: the query (empty snapshot) and a
    // populated reply — counters, a sparse histogram and spans whose tag
    // strings need escaping (or are empty, the "%" token).
    add(FrameType::kObs);
    Frame& obs = add(FrameType::kObs);
    obs.obs.counters["requests"] = 12;
    obs.obs.counters["two words"] = 1;
    obs.obs.gauges["worker.live_connections"] = 2;
    obs.obs.gauges["queue depth"] = -7;  // gauges are signed, names escape
    obs::HistogramSnapshot h;
    h.sum = 12345;
    h.buckets[0] = 3;
    h.buckets[7] = 40;
    h.buckets[63] = 1;
    obs.obs.histograms["gen.request"] = h;
    obs::TraceSpan span;
    span.name = "cluster.serve_top";
    span.source = "shard1";
    span.shard = "127.0.0.1:7001";
    span.top = "counters 10";
    span.start_us = 10;
    span.duration_us = 20;
    span.id = 3;
    span.parent = 2;
    span.exchange = 9;
    obs.obs.spans.push_back(std::move(span));
    obs::TraceSpan failover;
    failover.name = "replica.failover";
    failover.id = 4;
    failover.instant = true;
    obs.obs.spans.push_back(std::move(failover));
  }
  add(FrameType::kPing);
  add(FrameType::kPong);
  add(FrameType::kShutdown);
  add(FrameType::kBye);
  return frames;
}

// The binary framing's round-trip property: every frame type survives
// encode -> decode -> encode byte-identically, exchange tag included —
// the bit-identity half of what the bench asserts end to end.
TEST(WireCodecRobustness, BinaryFramesRoundTripByteIdentically) {
  Xoshiro256 rng(99);
  for (const Frame& frame : binary_sample_frames(rng)) expect_round_trip(frame);
}

// The binary trust boundary, mirroring the text-codec property above:
// decode of damaged bytes must throw a clean ContractViolation or decode
// to a frame that re-encodes — never crash, never escape a foreign
// exception. Binary is stricter than text: EVERY truncation throws (the
// length prefix makes "complete" unambiguous), as do trailing garbage,
// nonzero reserved header bytes and unknown frame types. (Runs under
// ASan in CI, so "never crash" is load-bearing.)
TEST(WireCodecRobustness, BinaryTruncationsAndCorruptionsAreClean) {
  Xoshiro256 rng(4243);
  const std::unique_ptr<WireCodec> codec = make_wire_codec(true);

  const auto survives = [&](const Frame& frame,
                            const std::string& damaged) -> bool {
    try {
      const Frame decoded = codec->decode(damaged);
      (void)codec->encode(decoded);  // whatever decodes must re-encode
      return false;
    } catch (const ContractViolation&) {
      return true;  // the clean parse error
    } catch (const std::exception& error) {
      ADD_FAILURE() << frame_type_name(frame.type) << ": foreign exception '"
                    << error.what() << "'";
      return true;
    }
  };

  for (const Frame& frame : binary_sample_frames(rng)) {
    const std::string bytes = codec->encode(frame);
    // Every strict prefix throws: the 16-byte header carries the payload
    // length, so a short buffer is always detectably incomplete.
    for (std::size_t len = 0; len < bytes.size(); ++len)
      EXPECT_TRUE(survives(frame, bytes.substr(0, len)))
          << frame_type_name(frame.type) << " truncated to " << len
          << " bytes decoded as if complete";
    // Trailing garbage is a framing violation, not ignorable padding.
    EXPECT_TRUE(survives(frame, bytes + '\0'));
    EXPECT_TRUE(survives(frame, bytes + "junk"));
    // Reserved header bytes (offsets 5..7) must be zero on the wire.
    for (std::size_t reserved = 5; reserved < 8; ++reserved) {
      std::string damaged = bytes;
      damaged[reserved] = 1;
      EXPECT_TRUE(survives(frame, damaged))
          << frame_type_name(frame.type) << " accepted nonzero reserved byte "
          << reserved;
    }
    // An unknown frame type must throw, whatever the payload says.
    // (18 is the first id past kObs, the newest frame type.)
    for (const unsigned char type : {0u, 18u, 0xffu}) {
      std::string damaged = bytes;
      damaged[4] = static_cast<char>(type);
      EXPECT_TRUE(survives(frame, damaged))
          << frame_type_name(frame.type) << " accepted frame type "
          << static_cast<unsigned>(type);
    }
    // Random single-byte corruption: 300 trials of flip-one-byte. Some
    // corruptions still parse (a flipped bit inside a counter value); the
    // property is that none crashes or escapes a foreign exception.
    for (int trial = 0; trial < 300; ++trial) {
      std::string corrupted = bytes;
      const std::size_t pos = rng.below(corrupted.size());
      const char byte = static_cast<char>(rng.below(256));
      if (corrupted[pos] == byte) continue;
      corrupted[pos] = byte;
      (void)survives(frame, corrupted);
    }
  }
}

// The same field in the binary encoding: it survives a round trip, and a
// payload cut where the v5 serve frame ended is truncated, not a v6 frame.
TEST(WireServeCodec, BinaryFrameCarriesWarmFlag) {
  const std::unique_ptr<WireCodec> codec = make_wire_codec(true);
  Frame serve;
  serve.type = FrameType::kServe;
  serve.exchange = 3;
  serve.key = "k";
  serve.count = 2;
  serve.parent = 9;
  serve.warm = true;
  const std::string bytes = codec->encode(serve);
  const Frame back = codec->decode(bytes);
  EXPECT_TRUE(back.warm);
  EXPECT_EQ(back.parent, serve.parent);
  EXPECT_EQ(codec->encode(back), bytes);

  std::string v5 = bytes.substr(0, bytes.size() - 1);
  const std::uint32_t payload = static_cast<std::uint32_t>(v5.size() - 16);
  for (int i = 0; i < 4; ++i)
    v5[i] = static_cast<char>((payload >> (8 * i)) & 0xff);
  EXPECT_THROW((void)codec->decode(v5), ContractViolation);
}

// The binary header's payload bound: a length field past kMaxBinPayload
// (256 MiB) is rejected from the 16 header bytes alone — a corrupted or
// hostile peer cannot make the decoder try to buffer gigabytes.
TEST(WireCacheWarmCodec, BinaryOversizedPayloadLengthIsRejected) {
  const std::unique_ptr<WireCodec> codec = make_wire_codec(true);
  Frame warm;
  warm.type = FrameType::kCacheWarm;
  warm.key = "k";
  warm.exchange = 9;
  std::string bytes = codec->encode(warm);
  // Little-endian payload_len in header bytes 0..3: claim 256 MiB + 1.
  bytes[0] = '\x01';
  bytes[1] = '\x00';
  bytes[2] = '\x00';
  bytes[3] = '\x10';
  EXPECT_THROW((void)codec->decode(bytes), ContractViolation);
}

/// Little-endian payload builder for handcrafted frames — what a hostile
/// or broken peer could put on the wire, field by field.
class Payload {
 public:
  Payload& u8(std::uint8_t v) {
    bytes_.push_back(static_cast<char>(v));
    return *this;
  }
  Payload& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Payload& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Payload& str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
    return *this;
  }

  /// The whole frame: u32 payload length, u8 type, three zero bytes, u64
  /// exchange 1, then the payload.
  [[nodiscard]] std::string frame(FrameType type) const {
    Payload header;
    header.u32(static_cast<std::uint32_t>(bytes_.size()));
    header.u8(static_cast<std::uint8_t>(type)).u8(0).u8(0).u8(0).u64(1);
    return header.bytes_ + bytes_;
  }

 private:
  std::string bytes_;
};

/// Decoding `bytes` must throw ContractViolation for `reason` — checked
/// against the message, so a rejection for some other cause (a truncation
/// further on) does not pass for the guard under test.
void expect_rejected(const std::string& bytes, const std::string& reason) {
  WireCodec codec;
  try {
    (void)codec.decode(bytes);
    ADD_FAILURE() << "decoded despite " << reason;
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find(reason), std::string::npos)
        << "wanted '" << reason << "', got: " << error.what();
  }
}

constexpr auto kBuckets = static_cast<std::uint8_t>(obs::kHistogramBuckets);

/// An obs frame holding one histogram, "a", whose bucket list (count,
/// then index/count pairs) `buckets` appends.
template <typename Buckets>
std::string one_histogram(Buckets buckets) {
  Payload payload;
  payload.u32(0).u32(0).u32(1).str("a").u64(0);
  buckets(payload);
  payload.u32(0);  // no spans
  return payload.frame(FrameType::kObs);
}

// The obs frame's trust boundary, payload by payload: duplicate metric
// names, histogram bucket indices past the fixed array, more buckets than
// exist, zero bucket counts and a bucket listed twice must all be
// rejected, not silently merged.
TEST(WireObsCodec, MalformedBinaryPayloadsThrow) {
  // The control: the builder lays out a frame the codec accepts.
  Payload good;
  good.u32(1).str("a").u64(5);
  good.u32(1).str("g").u64(static_cast<std::uint64_t>(-3));
  good.u32(1).str("h").u64(9).u32(1).u8(3).u64(2);
  good.u32(0);
  WireCodec codec;
  const Frame frame = codec.decode(good.frame(FrameType::kObs));
  EXPECT_EQ(frame.obs.counters.at("a"), 5u);
  EXPECT_EQ(frame.obs.gauges.at("g"), -3);
  EXPECT_EQ(frame.obs.histograms.at("h").sum, 9u);
  EXPECT_EQ(frame.obs.histograms.at("h").buckets[3], 2u);

  Payload counters;
  counters.u32(2).str("a").u64(1).str("a").u64(2);
  counters.u32(0).u32(0).u32(0);
  expect_rejected(counters.frame(FrameType::kObs), "duplicate counter");

  Payload gauges;
  gauges.u32(0);
  gauges.u32(2).str("a").u64(1).str("a").u64(2);
  gauges.u32(0).u32(0);
  expect_rejected(gauges.frame(FrameType::kObs), "duplicate gauge");

  Payload histograms;
  histograms.u32(0).u32(0);
  histograms.u32(2).str("a").u64(0).u32(0).str("a").u64(0).u32(0);
  histograms.u32(0);
  expect_rejected(histograms.frame(FrameType::kObs), "duplicate histogram");

  const auto past_the_array = [](Payload& p) { p.u32(1).u8(kBuckets).u64(1); };
  expect_rejected(one_histogram(past_the_array), "bucket index out of range");
  // One more bucket than the array holds, every index distinct as far as
  // the array goes.
  const auto too_many = [](Payload& p) {
    p.u32(kBuckets + 1);
    for (std::uint32_t i = 0; i <= kBuckets; ++i)
      p.u8(static_cast<std::uint8_t>(i % kBuckets)).u64(1);
  };
  expect_rejected(one_histogram(too_many), "bucket count out of range");
  const auto zero_count = [](Payload& p) { p.u32(1).u8(3).u64(0); };
  expect_rejected(one_histogram(zero_count), "malformed histogram bucket");
  const auto twice = [](Payload& p) { p.u32(2).u8(3).u64(1).u8(3).u64(1); };
  expect_rejected(one_histogram(twice), "malformed histogram bucket");
}

/// A config frame: parallel byte, thread count, cache capacity.
std::string config_frame(std::uint8_t parallel, std::uint64_t threads = 4,
                         std::uint64_t capacity = 17) {
  Payload payload;
  payload.u8(parallel).u64(threads).u64(capacity);
  return payload.frame(FrameType::kConfig);
}

/// A request frame with no originals and the given policy byte.
std::string request_frame(std::uint8_t policy) {
  Payload payload;
  payload.u64(7).str("client").u32(1).u8(policy).u32(0);
  return payload.frame(FrameType::kRequest);
}

// Enum bytes past the last policy: the decoder must reject them, never
// cast them into an enum value nothing handles.
TEST(WireCodec, OutOfRangePolicyBytesThrow) {
  WireCodec codec;
  EXPECT_TRUE(codec.decode(config_frame(1)).config.parallel);  // the control
  expect_rejected(config_frame(2), "expected a 0/1 byte");
  EXPECT_EQ(codec.decode(request_frame(2)).request.request.policy,
            DescentPolicy::kMostBlocks);  // the control
  expect_rejected(request_frame(3), "unknown descent policy byte");
}

// Any peer may send a config frame, and the worker starts a pool thread per
// requested thread and builds its caches from it. A thread count past
// kMaxWireThreads and a cache capacity of 0 are refused at decode, before
// anything is built from them, and at encode. Only the codec runs here: no
// pool.
TEST(WireCodec, OutOfBoundsConfigValuesThrow) {
  WireCodec codec;
  const Frame at_bound = codec.decode(config_frame(1, kMaxWireThreads, 1));
  EXPECT_EQ(at_bound.config.threads, kMaxWireThreads);  // the controls
  EXPECT_EQ(at_bound.config.cache_capacity, 1u);
  EXPECT_EQ(codec.decode(config_frame(0, 0)).config.threads, 0u);
  const std::string limit = std::to_string(kMaxWireThreads);
  const std::string too_many = "more than " + limit + " threads";
  expect_rejected(config_frame(1, kMaxWireThreads + 1), too_many);
  expect_rejected(config_frame(1, ~std::uint64_t{0}), too_many);
  expect_rejected(config_frame(1, 4, 0), "cache capacity 0");

  Frame config(FrameType::kConfig);
  config.config.threads = kMaxWireThreads + 1;
  EXPECT_THROW((void)codec.encode(config), ContractViolation);
  config.config.threads = 0;
  config.config.cache_capacity = 0;
  EXPECT_THROW((void)codec.encode(config), ContractViolation);
}

// The worker's trust boundary: a partition's tags arrive as any 32-bit
// values, so no tag may size an allocation in the normalizer. Tags up to
// 0xFFFFFFFF must decode to the partitions small tags give.
TEST(WireRequestCodec, HugePartitionTagsDecodeToNormalizedPartitions) {
  Payload payload;
  payload.u64(7).str("client").u32(1).u8(0).u32(3);
  payload.u32(4).u32(0xFFFFFFFFu).u32(3).u32(0xFFFFFFFFu).u32(0);
  payload.u32(3).u32(0xFFFFFFFFu).u32(0xFFFFFFFFu).u32(0xFFFFFFFFu);
  payload.u32(3).u32(0).u32(0xFFFFFFFFu).u32(0x80000000u);
  WireCodec codec;
  const Frame frame = codec.decode(payload.frame(FrameType::kRequest));
  const std::vector<Partition>& originals = frame.request.request.originals;
  ASSERT_EQ(originals.size(), 3u);
  EXPECT_EQ(originals[0], testing::pt({0, 1, 0, 2}));
  EXPECT_EQ(originals[0].block_count(), 3u);
  EXPECT_EQ(originals[1], Partition::single_block(3));
  EXPECT_EQ(originals[2], Partition::identity(3));
}

TEST(WireMachines, SelfContainedTextReproducesEventIds) {
  // The wire depends on fsm/serialize's alphabet header: a standalone
  // parse must reproduce the sender's EventId assignment (and with it the
  // subscribed-event order and transition-table layout), even when the
  // sender's alphabet held unrelated events interned first.
  auto alphabet = Alphabet::create();
  alphabet->intern("noise_a");
  alphabet->intern("noise_b");
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", 3, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", 3, "1"));
  const CrossProduct product = reachable_cross_product(machines);
  const Dfsm& top = product.top;
  ASSERT_GT(top.events()[0], 0u);  // the noise really shifted the ids

  const std::string text = to_text(top);
  const Dfsm back = from_text(text);  // fresh process: no shared alphabet
  EXPECT_TRUE(top.same_structure(back));
  ASSERT_EQ(back.events().size(), top.events().size());
  for (std::size_t i = 0; i < top.events().size(); ++i)
    EXPECT_EQ(back.events()[i], top.events()[i]);  // ids, not just names
  EXPECT_EQ(to_text(back), text);  // byte-exact re-encode
}

}  // namespace
}  // namespace ffsm
