// Wire protocol codec: random requests/responses/stats/configs survive
// encode -> decode -> encode byte-identically, machine texts are
// self-contained, tokens escape losslessly, and malformed frames are
// rejected rather than half-read.
#include "sim/messages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
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

/// Client names that stress the token escaping: spaces, '%', newlines,
/// control bytes, UTF-8, and the empty string.
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

TEST(WireTokens, EscapeRoundTripsNastyStrings) {
  for (const char* raw : kNastyClients) {
    const std::string token = escape_token(raw);
    EXPECT_EQ(token.find(' '), std::string::npos) << token;
    EXPECT_EQ(token.find('\n'), std::string::npos) << token;
    EXPECT_EQ(token.find('\t'), std::string::npos) << token;
    EXPECT_EQ(unescape_token(token), std::string(raw));
  }
}

TEST(WireTokens, MalformedEscapesThrow) {
  EXPECT_THROW((void)unescape_token(""), ContractViolation);
  EXPECT_THROW((void)unescape_token("%2"), ContractViolation);
  EXPECT_THROW((void)unescape_token("a%zz"), ContractViolation);
  EXPECT_THROW((void)unescape_token("trailing%"), ContractViolation);
}

TEST(WireEnums, NamesRoundTrip) {
  for (const DescentPolicy p :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks})
    EXPECT_EQ(policy_from_name(policy_name(p)), p);
  for (const CacheEvictionPolicy p :
       {CacheEvictionPolicy::kLru, CacheEvictionPolicy::kEpoch,
        CacheEvictionPolicy::kUnbounded, CacheEvictionPolicy::kLfuAdmit})
    EXPECT_EQ(cache_policy_from_name(cache_policy_name(p)), p);
  EXPECT_THROW((void)policy_from_name("bogus"), ContractViolation);
  EXPECT_THROW((void)cache_policy_from_name("bogus"), ContractViolation);
}

// The satellite property: random requests (random partition catalogs,
// f in {1,2}, every policy, nasty clients) survive encode -> decode ->
// encode byte-identically, field-for-field.
TEST(WireRequestCodec, RandomRequestsRoundTripByteIdentically) {
  Xoshiro256 rng(2024);
  const DescentPolicy policies[] = {DescentPolicy::kFirstFound,
                                    DescentPolicy::kFewestBlocks,
                                    DescentPolicy::kMostBlocks};
  for (int iter = 0; iter < 200; ++iter) {
    WireRequest original;
    original.ticket = rng();
    original.client =
        kNastyClients[rng.below(std::size(kNastyClients))];
    original.request.f = 1 + static_cast<std::uint32_t>(rng.below(2));
    original.request.policy = policies[rng.below(3)];
    const std::uint32_t states =
        2 + static_cast<std::uint32_t>(rng.below(30));
    const std::size_t originals = rng.below(5);
    for (std::size_t i = 0; i < originals; ++i)
      original.request.originals.push_back(random_partition(states, rng));

    const std::string text = encode_request(original);
    const WireRequest back = decode_request(text);
    EXPECT_EQ(back.ticket, original.ticket);
    EXPECT_EQ(back.client, original.client);
    EXPECT_EQ(back.request.f, original.request.f);
    EXPECT_EQ(back.request.policy, original.request.policy);
    EXPECT_EQ(back.request.originals, original.request.originals);
    EXPECT_EQ(encode_request(back), text) << text;
  }
}

TEST(WireResponseCodec, RandomResponsesRoundTripByteIdentically) {
  Xoshiro256 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    FusionResponse original;
    original.ticket = rng();
    original.client =
        kNastyClients[rng.below(std::size(kNastyClients))];
    const std::uint32_t states =
        2 + static_cast<std::uint32_t>(rng.below(30));
    const std::size_t machines = rng.below(4);
    for (std::size_t i = 0; i < machines; ++i)
      original.result.partitions.push_back(random_partition(states, rng));
    GenerateStats& s = original.result.stats;
    s.machines_added = static_cast<std::uint32_t>(rng.below(100));
    s.descent_steps = static_cast<std::uint32_t>(rng.below(100));
    s.candidates_examined = rng();
    s.closures_evaluated = rng();
    s.cover_cache_hits = rng();
    s.graph_edges_examined = rng();
    s.dmin_before = static_cast<std::uint32_t>(rng.below(10));
    s.dmin_after = static_cast<std::uint32_t>(rng.below(10));

    const std::string text = encode_response(original);
    const FusionResponse back = decode_response(text);
    EXPECT_EQ(back.ticket, original.ticket);
    EXPECT_EQ(back.client, original.client);
    EXPECT_EQ(back.result.partitions, original.result.partitions);
    EXPECT_EQ(back.result.stats.machines_added, s.machines_added);
    EXPECT_EQ(back.result.stats.candidates_examined, s.candidates_examined);
    EXPECT_EQ(back.result.stats.dmin_after, s.dmin_after);
    EXPECT_EQ(encode_response(back), text) << text;
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

  FusionResponse response{42, "tenant 0", result};
  const std::string text = encode_response(response);
  const FusionResponse back = decode_response(text);
  EXPECT_EQ(back.result.partitions, result.partitions);
  EXPECT_EQ(back.result.stats.machines_added, result.stats.machines_added);
  EXPECT_EQ(encode_response(back), text);
}

TEST(WireStatsCodec, RandomStatsRoundTripByteIdentically) {
  Xoshiro256 rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    ServiceStats original;
    original.requests_submitted = rng();
    original.requests_served = rng();
    original.batches_served = rng();
    original.restarts = rng();
    original.failovers = rng();
    original.health_probes_failed = rng();
    original.cache_hits = rng();
    original.cache_cold_misses = rng();
    original.cache_eviction_misses = rng();
    original.cache_evictions = rng();
    original.cache_entries = static_cast<std::size_t>(rng.below(1 << 20));
    original.cache_bytes = static_cast<std::size_t>(rng.below(1 << 30));
    original.cache_admission_rejects = rng();
    original.cache_sketch_bytes = static_cast<std::size_t>(rng.below(1 << 20));

    const std::string text = encode_stats(original);
    const ServiceStats back = decode_stats(text);
    EXPECT_EQ(back.requests_submitted, original.requests_submitted);
    EXPECT_EQ(back.restarts, original.restarts);
    EXPECT_EQ(back.failovers, original.failovers);
    EXPECT_EQ(back.health_probes_failed, original.health_probes_failed);
    EXPECT_EQ(back.cache_eviction_misses, original.cache_eviction_misses);
    EXPECT_EQ(back.cache_bytes, original.cache_bytes);
    EXPECT_EQ(back.cache_admission_rejects, original.cache_admission_rejects);
    EXPECT_EQ(back.cache_sketch_bytes, original.cache_sketch_bytes);
    EXPECT_EQ(encode_stats(back), text);
  }
}

TEST(WireConfigCodec, AllCachePoliciesRoundTripByteIdentically) {
  for (const CacheEvictionPolicy policy :
       {CacheEvictionPolicy::kLru, CacheEvictionPolicy::kEpoch,
        CacheEvictionPolicy::kUnbounded, CacheEvictionPolicy::kLfuAdmit})
    for (const bool parallel : {false, true}) {
      ShardServiceConfig original;
      original.parallel = parallel;
      original.threads = parallel ? 4 : 0;
      original.cache_config = {policy, 17};
      const std::string text = encode_config(original);
      const ShardServiceConfig back = decode_config(text);
      EXPECT_EQ(back.parallel, original.parallel);
      EXPECT_EQ(back.threads, original.threads);
      EXPECT_EQ(back.cache_config.policy, original.cache_config.policy);
      EXPECT_EQ(back.cache_config.capacity, original.cache_config.capacity);
      EXPECT_EQ(encode_config(back), text);
    }
}

TEST(WireCodec, MalformedFramesThrow) {
  const WireRequest request{1, "c", {{Partition::identity(3)}, 1}};
  const std::string good = encode_request(request);
  // Truncation (no 'end'), trailing garbage, unknown directives, missing
  // mandatory fields.
  EXPECT_THROW((void)decode_request(good.substr(0, good.size() - 4)),
               ContractViolation);
  EXPECT_THROW((void)decode_request(good + "junk\n"), ContractViolation);
  EXPECT_THROW((void)decode_request("bogus 1 c\nend\n"), ContractViolation);
  EXPECT_THROW((void)decode_request("request 1 c\npolicy fewest_blocks\nend\n"),
               ContractViolation);
  EXPECT_THROW((void)decode_request("request 1 c\nf 1\nend\n"),
               ContractViolation);
  EXPECT_THROW((void)decode_request(""), ContractViolation);

  FusionResponse response{1, "c", {}};
  const std::string good_response = encode_response(response);
  EXPECT_THROW((void)decode_response("response 1 c\nend\n"),
               ContractViolation);  // missing stats
  EXPECT_THROW(
      (void)decode_response(good_response.substr(0, good_response.size() - 4)),
      ContractViolation);

  EXPECT_THROW((void)decode_stats("stats\nend\n"), ContractViolation);
  EXPECT_THROW((void)decode_config("config\nparallel 2\nend\n"),
               ContractViolation);
  EXPECT_THROW((void)decode_config("config\nend\n"), ContractViolation);

  // A duplicated counter must not mask a missing one: replacing the
  // cache_bytes line of a valid stats frame with a second restarts line
  // keeps the line count right but must still throw.
  const std::string stats_text = encode_stats(ServiceStats{});
  const auto bytes_at = stats_text.find("cache_bytes 0\n");
  ASSERT_NE(bytes_at, std::string::npos);
  std::string duplicated = stats_text;
  duplicated.replace(bytes_at, std::strlen("cache_bytes 0"), "restarts 0");
  EXPECT_THROW((void)decode_stats(duplicated), ContractViolation);
  // And for the admission counters added with the cache tentpole: a
  // duplicated rejects line standing in for the sketch-bytes line keeps
  // the line count right but must still throw.
  const auto sketch_at = stats_text.find("cache_sketch_bytes 0\n");
  ASSERT_NE(sketch_at, std::string::npos);
  std::string dup_admit = stats_text;
  dup_admit.replace(sketch_at, std::strlen("cache_sketch_bytes 0"),
                    "cache_admission_rejects 0");
  EXPECT_THROW((void)decode_stats(dup_admit), ContractViolation);
  const std::string config_text = encode_config(ShardServiceConfig{});
  std::string duplicated_config = config_text;
  const auto threads_at = duplicated_config.find("threads 0\n");
  ASSERT_NE(threads_at, std::string::npos);
  duplicated_config.replace(threads_at, std::strlen("threads 0"),
                            "parallel 1");
  EXPECT_THROW((void)decode_config(duplicated_config), ContractViolation);
}

// The trust boundary once frames arrive from the network: decode of a
// damaged encoding must either throw a clean ContractViolation or decode
// to a message whose re-encode is well-formed — never crash, never
// half-apply, never escape a foreign exception type. Exercised for every
// frame type, under every truncation point and under random single-byte
// corruption. (Runs under ASan in CI, so "never crash" is load-bearing.)
TEST(WireCodecRobustness, TruncationsAndCorruptionsOfEveryFrameTypeAreClean) {
  Xoshiro256 rng(4242);

  WireRequest request;
  request.ticket = 77;
  request.client = "two words";  // escaped token on the wire
  request.request.f = 2;
  request.request.policy = DescentPolicy::kMostBlocks;
  request.request.originals.push_back(random_partition(6, rng));
  request.request.originals.push_back(random_partition(6, rng));

  FusionResponse response;
  response.ticket = 78;
  response.client = "uni\xc3\xa9ode";
  response.result.partitions.push_back(random_partition(6, rng));
  response.result.stats.machines_added = 2;
  response.result.stats.dmin_after = 3;

  ServiceStats stats;
  stats.requests_served = 5;
  stats.restarts = 1;
  stats.failovers = 2;
  stats.health_probes_failed = 3;
  stats.cache_bytes = 4096;

  ShardServiceConfig config;
  config.threads = 8;
  config.cache_config = {CacheEvictionPolicy::kEpoch, 9};

  struct FrameType {
    const char* name;
    std::string text;
    std::function<void(std::string_view)> decode;
  };
  const FrameType frames[] = {
      {"request", encode_request(request),
       [](std::string_view t) { (void)decode_request(t); }},
      {"response", encode_response(response),
       [](std::string_view t) { (void)decode_response(t); }},
      {"stats", encode_stats(stats),
       [](std::string_view t) { (void)decode_stats(t); }},
      {"config", encode_config(config),
       [](std::string_view t) { (void)decode_config(t); }},
  };

  // `damaged` must throw ContractViolation or decode cleanly; returns
  // whether it threw, and fails the test on any other outcome.
  const auto survives = [](const FrameType& frame,
                           const std::string& damaged) -> bool {
    try {
      frame.decode(damaged);
      return false;
    } catch (const ContractViolation&) {
      return true;  // the clean parse error
    } catch (const std::exception& error) {
      ADD_FAILURE() << frame.name << ": foreign exception '" << error.what()
                    << "' for input:\n"
                    << damaged;
      return true;
    }
  };

  for (const FrameType& frame : frames) {
    // Every strict prefix: the only acceptable non-throwing case is the
    // one that merely lost the trailing newline of the `end` line (the
    // message is still complete); everything shorter must throw.
    for (std::size_t len = 0; len < frame.text.size(); ++len) {
      const std::string prefix = frame.text.substr(0, len);
      const bool threw = survives(frame, prefix);
      if (len + 1 < frame.text.size()) {
        EXPECT_TRUE(threw) << frame.name << " truncated to " << len
                           << " bytes decoded as if complete";
      }
    }
    // Random single-byte corruption: 300 trials of flip-one-byte. Many
    // corruptions still parse (a digit changed inside a counter); the
    // property is that none crashes or escapes a foreign exception.
    for (int trial = 0; trial < 300; ++trial) {
      std::string corrupted = frame.text;
      const std::size_t pos = rng.below(corrupted.size());
      const char byte = static_cast<char>(rng.below(256));
      if (corrupted[pos] == byte) continue;
      corrupted[pos] = byte;
      (void)survives(frame, corrupted);
    }
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
    config.config.cache_config = {CacheEvictionPolicy::kEpoch, 9};
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
    stats.stats.cache_admission_rejects = 11;
    stats.stats.cache_sketch_bytes = 128;
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
  const std::unique_ptr<WireCodec> codec = make_wire_codec(true);
  EXPECT_STREQ(codec->name(), "bin");
  EXPECT_TRUE(codec->multiplexed());
  for (const Frame& frame : binary_sample_frames(rng)) {
    const std::string bytes = codec->encode(frame);
    const Frame back = codec->decode(bytes);
    EXPECT_EQ(back.type, frame.type) << frame_type_name(frame.type);
    EXPECT_EQ(back.exchange, frame.exchange) << frame_type_name(frame.type);
    EXPECT_EQ(codec->encode(back), bytes) << frame_type_name(frame.type);
  }
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

// The text codec through the same WireCodec interface: no exchange ids
// (encoding a tagged frame is a contract violation — the caller must not
// silently lose the tag), canonical re-encode, and the deprecated free
// functions delegate to it byte-identically.
TEST(WireCodecRobustness, TextCodecMatchesFreeFunctions) {
  const std::unique_ptr<WireCodec> codec = make_wire_codec(false);
  EXPECT_STREQ(codec->name(), "text");
  EXPECT_FALSE(codec->multiplexed());

  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request.ticket = 12;
  frame.request.client = "two words";
  frame.request.request.f = 1;
  frame.request.request.originals.push_back(Partition::identity(4));
  EXPECT_EQ(codec->encode(frame), encode_request(frame.request));

  frame.exchange = 7;  // text cannot carry the tag
  EXPECT_THROW((void)codec->encode(frame), ContractViolation);
}

// The serve frame on the text wire: v5 grew the parent span id (the
// cross-process trace stitching handle) and v6 the warm flag, so the line
// is now `serve <key> <count> <parent> <warm>` — it must round-trip, and
// the older shapes must throw rather than decode with defaults.
TEST(WireServeCodec, TextFrameCarriesParentSpanIdAndWarmFlag) {
  const std::unique_ptr<WireCodec> codec = make_wire_codec(false);
  Frame serve;
  serve.type = FrameType::kServe;
  serve.key = "two words";  // escaped token on the wire
  serve.count = 5;
  serve.parent = 0xfeed;
  serve.warm = true;
  const std::string text = codec->encode(serve);
  EXPECT_EQ(text, "serve two%20words 5 65261 1\n");
  const Frame back = codec->decode(text);
  EXPECT_EQ(back.type, FrameType::kServe);
  EXPECT_EQ(back.key, serve.key);
  EXPECT_EQ(back.count, serve.count);
  EXPECT_EQ(back.parent, serve.parent);
  EXPECT_TRUE(back.warm);
  EXPECT_EQ(codec->encode(back), text);
  EXPECT_THROW((void)codec->decode("serve k 3\n"), ContractViolation);
  EXPECT_THROW((void)codec->decode("serve k 3 7\n"), ContractViolation);
  EXPECT_THROW((void)codec->decode("serve k 3 7 2\n"), ContractViolation);
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

// The warm-handoff frame on the text wire: empty and populated snapshots
// round-trip byte-identically through the codec interface (there is no
// deprecated free-function pair for this frame type).
TEST(WireCacheWarmCodec, TextFramesRoundTripByteIdentically) {
  Xoshiro256 rng(7);
  const std::unique_ptr<WireCodec> codec = make_wire_codec(false);

  Frame empty;
  empty.type = FrameType::kCacheWarm;
  empty.key = "two words";  // escaped token on the wire
  const std::string empty_text = codec->encode(empty);
  EXPECT_EQ(empty_text, "cachewarm two%20words\nend\n");
  const Frame empty_back = codec->decode(empty_text);
  EXPECT_EQ(empty_back.type, FrameType::kCacheWarm);
  EXPECT_EQ(empty_back.key, empty.key);
  EXPECT_TRUE(empty_back.entries.empty());
  EXPECT_EQ(codec->encode(empty_back), empty_text);

  Frame warm;
  warm.type = FrameType::kCacheWarm;
  warm.key = "counters-10";
  for (int i = 0; i < 2; ++i) {
    WarmCacheEntry entry;
    entry.key = random_partition(6, rng);
    for (int c = 0; c <= i; ++c)
      entry.cover.push_back(random_partition(6, rng));
    warm.entries.push_back(std::move(entry));
  }
  const std::string warm_text = codec->encode(warm);
  const Frame warm_back = codec->decode(warm_text);
  ASSERT_EQ(warm_back.entries.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(warm_back.entries[i].key, warm.entries[i].key) << i;
    EXPECT_EQ(warm_back.entries[i].cover, warm.entries[i].cover) << i;
  }
  EXPECT_EQ(codec->encode(warm_back), warm_text);
}

// The warm-handoff frame's text trust boundary: truncations, a cover line
// with no open entry, and unknown body directives all throw cleanly.
TEST(WireCacheWarmCodec, MalformedTextFramesThrow) {
  Xoshiro256 rng(8);
  const std::unique_ptr<WireCodec> codec = make_wire_codec(false);
  Frame warm;
  warm.type = FrameType::kCacheWarm;
  warm.key = "k";
  WarmCacheEntry entry;
  entry.key = random_partition(4, rng);
  entry.cover.push_back(random_partition(4, rng));
  warm.entries.push_back(std::move(entry));
  const std::string good = codec->encode(warm);

  // Every strict prefix throws, except the one that merely lost the
  // trailing newline of the `end` line.
  for (std::size_t len = 0; len + 2 < good.size(); ++len)
    EXPECT_THROW((void)codec->decode(good.substr(0, len)), ContractViolation)
        << "truncated to " << len << " bytes decoded as if complete";
  EXPECT_THROW((void)codec->decode("cachewarm\nend\n"), ContractViolation);
  EXPECT_THROW((void)codec->decode("cachewarm k 1\nend\n"),
               ContractViolation);  // the v5 shape: a count
  EXPECT_THROW((void)codec->decode("cachewarm k\ncover 0 1\nend\n"),
               ContractViolation);  // 'cover' before any 'entry'
  EXPECT_THROW((void)codec->decode("cachewarm k\nbogus 0 1\nend\n"),
               ContractViolation);  // unknown body directive
  EXPECT_THROW((void)codec->decode(good + "junk\n"), ContractViolation);
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

TEST(WireObsCodec, TextFramesRoundTripByteIdentically) {
  const std::unique_ptr<WireCodec> codec = make_wire_codec(false);

  // The query form: a bare obs frame with an empty snapshot.
  Frame query;
  query.type = FrameType::kObs;
  const std::string query_text = codec->encode(query);
  const Frame query_back = codec->decode(query_text);
  EXPECT_EQ(query_back.type, FrameType::kObs);
  EXPECT_TRUE(query_back.obs.empty());
  EXPECT_EQ(codec->encode(query_back), query_text);

  // The reply form: counters, a sparse histogram, and spans with tag
  // strings that need escaping (spaces, newline, empty -> "%").
  Frame reply;
  reply.type = FrameType::kObs;
  reply.obs.counters["requests"] = 12;
  reply.obs.counters["two words"] = 3;
  reply.obs.gauges["cluster.queue_depth"] = 4;
  reply.obs.gauges["net sent"] = -2;  // signed: a window delta can shrink
  obs::HistogramSnapshot h;
  h.sum = 999;
  h.buckets[0] = 2;
  h.buckets[5] = 7;
  h.buckets[63] = 1;
  reply.obs.histograms["cluster.drain"] = h;
  obs::TraceSpan span;
  span.name = "gen.request";
  span.source = "conn1";
  span.top = "nasty\ntop key";
  span.start_us = 100;
  span.duration_us = 50;
  span.id = 2;
  span.parent = 1;
  reply.obs.spans.push_back(std::move(span));
  obs::TraceSpan failover;
  failover.name = "replica.failover";
  failover.shard = "127.0.0.1:7001";
  failover.id = 3;
  failover.instant = true;
  reply.obs.spans.push_back(std::move(failover));

  const std::string reply_text = codec->encode(reply);
  const Frame reply_back = codec->decode(reply_text);
  EXPECT_EQ(reply_back.type, FrameType::kObs);
  EXPECT_EQ(reply_back.obs, reply.obs);  // every field, span for span
  EXPECT_EQ(codec->encode(reply_back), reply_text);
}

// The obs frame's text trust boundary: truncations and every malformed
// body line throw cleanly — duplicate metric names, histogram bucket
// indices past the fixed array, zero bucket counts and unknown
// directives must all be rejected, not silently merged.
TEST(WireObsCodec, MalformedTextFramesThrow) {
  const std::unique_ptr<WireCodec> codec = make_wire_codec(false);
  Frame frame;
  frame.type = FrameType::kObs;
  frame.obs.counters["requests"] = 12;
  obs::HistogramSnapshot h;
  h.sum = 9;
  h.buckets[3] = 2;
  frame.obs.histograms["cluster.drain"] = h;
  obs::TraceSpan span;
  span.name = "gen.request";
  span.id = 1;
  frame.obs.spans.push_back(std::move(span));
  const std::string good = codec->encode(frame);

  // Every strict prefix throws, except the one that merely lost the
  // trailing newline of the `end` line.
  for (std::size_t len = 0; len + 2 < good.size(); ++len)
    EXPECT_THROW((void)codec->decode(good.substr(0, len)), ContractViolation)
        << "truncated to " << len << " bytes decoded as if complete";
  EXPECT_THROW((void)codec->decode(good + "junk\n"), ContractViolation);
  EXPECT_THROW(
      (void)codec->decode("obs\ncounter a 1\ncounter a 2\nend\n"),
      ContractViolation);  // duplicate counter
  EXPECT_THROW((void)codec->decode("obs\ngauge a 1\ngauge a 2\nend\n"),
               ContractViolation);  // duplicate gauge
  EXPECT_THROW((void)codec->decode("obs\nhist a 1 1\nhist a 1 1\nend\n"),
               ContractViolation);  // duplicate histogram (also short line)
  EXPECT_THROW((void)codec->decode("obs\nhist a 0 1 64 1\nend\n"),
               ContractViolation);  // bucket index out of range
  EXPECT_THROW((void)codec->decode("obs\nhist a 0 65\nend\n"),
               ContractViolation);  // more buckets than exist
  EXPECT_THROW((void)codec->decode("obs\nhist a 0 1 3 0\nend\n"),
               ContractViolation);  // zero count for a "nonzero" bucket
  EXPECT_THROW((void)codec->decode("obs\nhist a 0 2 3 1 3 1\nend\n"),
               ContractViolation);  // the same bucket listed twice
  EXPECT_THROW((void)codec->decode("obs\nspan a % % %\nend\n"),
               ContractViolation);  // span missing its numeric fields
  EXPECT_THROW((void)codec->decode("obs\nbogus 1\nend\n"),
               ContractViolation);  // unknown body directive
  EXPECT_THROW((void)codec->decode("obs trailing\nend\n"), ContractViolation);
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
