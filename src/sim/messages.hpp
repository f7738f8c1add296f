// Wire protocol of the serving stack.
//
// A shard of the FusionCluster is a backend behind a message boundary (see
// sim/backend.hpp); this header defines the messages that cross it and
// their exact round-tripping text codec. Frames are line-oriented in the
// fsm/serialize style — a directive line opens the frame, key/value lines
// follow, and a lone `end` line closes it — so machines (to_text, which is
// self-contained via its alphabet header), requests, responses, stats and
// configs all travel the same way over any byte stream.
//
//   request <ticket> <client>             response <ticket> <client>
//   f <f>                                 fusion <b0> <b1> ...   (per machine)
//   policy <fewest_blocks|...>            stats <8 counters, fixed order>
//   original <b0> <b1> ...  (per orig)    end
//   end
//
//   stats                                 config
//   requests_submitted <n>                parallel <0|1>
//   ... (one counter per line)            threads <n>
//   end                                   cache_policy <lru|epoch|...>
//                                         cache_capacity <n>
//                                         end
//
// Tokens that may contain arbitrary bytes (client names, top keys) are
// percent-escaped (escape_token); partitions travel as their normalized
// block assignments, so decode(encode(x)) == x and, for canonical frames,
// encode(decode(text)) == text byte for byte.
//
// Since PR 6 the text protocol above is one of two interchangeable
// encodings behind the WireCodec interface. The negotiated alternative is
// a length-prefixed binary framing (BinaryWireCodec) whose frames carry an
// exchange id, letting several serve exchanges interleave on one
// connection. See the WireCodec section below and README "Wire format".
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fusion/generator.hpp"
#include "net/line_channel.hpp"
#include "obs/obs.hpp"

namespace ffsm {

/// One served request crossing a backend boundary. FusionService::Response
/// is an alias of this — the in-process and wire representations are the
/// same type.
struct FusionResponse {
  std::uint64_t ticket = 0;
  std::string client;
  FusionResult result;
};

// The single source of truth for the ServiceStats counter set: one X(name,
// aggregation) row per counter, in wire order. Everything that enumerates
// the counters expands this table — the text codec's encode/decode lines,
// the binary codec's fixed-order u64 list, the duplicate/missing seen-bit
// bookkeeping, and FusionCluster::stats() aggregation — so adding a counter
// is one row here plus one struct field below (a mismatch between the two
// fails to compile). Appending a row changes the negotiated payload shape:
// bump the hello version (kHelloVersion in messages.cpp).
//
// The second column is the cluster aggregation rule:
//   kPerTop     — the counter is per-service; per-top values add up.
//   kPerBackend — the counter is backend-level and repeats identically for
//                 every top a backend hosts; FusionCluster::stats() takes
//                 the max across a shard's tops, then sums across shards.
#define FFSM_SERVICE_STATS_COUNTERS(X)          \
  X(requests_submitted, kPerTop)                \
  X(requests_served, kPerTop)                   \
  X(batches_served, kPerTop)                    \
  X(restarts, kPerBackend)                      \
  X(failovers, kPerBackend)                     \
  X(health_probes_failed, kPerBackend)          \
  X(cache_hits, kPerTop)                        \
  X(cache_cold_misses, kPerTop)                 \
  X(cache_eviction_misses, kPerTop)             \
  X(cache_evictions, kPerTop)                   \
  X(cache_entries, kPerTop)                     \
  X(cache_bytes, kPerTop)                       \
  X(cache_admission_rejects, kPerTop)           \
  X(cache_sketch_bytes, kPerTop)

/// The second X-macro column as a real type, so aggregation code can
/// branch on it with `if constexpr (StatsAgg::agg == ...)` instead of
/// re-listing counter names (see FusionCluster::stats()).
enum class StatsAgg { kPerTop, kPerBackend };

/// Number of rows in FFSM_SERVICE_STATS_COUNTERS.
inline constexpr std::size_t kServiceStatsCounters = []() {
  std::size_t n = 0;
#define FFSM_STATS_COUNT(name, agg) ++n;
  FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_COUNT)
#undef FFSM_STATS_COUNT
  return n;
}();

/// Lifetime counters of one serving backend — a FusionService or the shard
/// worker wrapping one. The cache_* fields snapshot the persistent closure
/// cache; eviction misses are broken out from cold misses so a bounded
/// cache under pressure does not masquerade as a cold workload
/// (cache_hits + cache_cold_misses + cache_eviction_misses == lookups).
/// The field set is mirrored by FFSM_SERVICE_STATS_COUNTERS above, which
/// drives both codecs and the cluster aggregation.
struct ServiceStats {
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t batches_served = 0;
  /// Worker restarts this serving state survived: respawned processes
  /// (SubprocessBackend), re-established connections (TcpBackend). Always
  /// 0 from the serving side itself — the backend that owns the restart
  /// policy fills it, since the restarted worker cannot count its own
  /// deaths.
  std::uint64_t restarts = 0;
  /// Times the serving endpoint moved to a different replica (failover on
  /// a dead primary, fail-back to a revived one). Filled parent-side by
  /// replica-set backends, 0 everywhere else — like restarts, the worker
  /// cannot observe its own replacement.
  std::uint64_t failovers = 0;
  /// Failed health probes across this backend's replica endpoints, from
  /// the HealthMonitor watching them; 0 without one.
  std::uint64_t health_probes_failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_cold_misses = 0;
  std::uint64_t cache_eviction_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  /// Inserts rejected by the TinyLFU admission filter (kLfuAdmit only).
  std::uint64_t cache_admission_rejects = 0;
  /// Bytes held by the admission frequency sketch (kLfuAdmit only).
  std::size_t cache_sketch_bytes = 0;
};

/// The FusionServiceOptions subset that can cross a process boundary
/// (ThreadPool pointers cannot): cache bound and the worker-side
/// parallelism switch.
struct ShardServiceConfig {
  /// Fan the worker's batches across its own pool.
  bool parallel = true;
  /// Worker pool size; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Bound + eviction policy for each worker service's closure cache.
  LowerCoverCacheConfig cache_config = {};
};

/// A FusionRequest in its wire envelope: the backend ticket identifying
/// the eventual response, plus the submitting client.
struct WireRequest {
  std::uint64_t ticket = 0;
  std::string client;
  FusionRequest request;
};

// ----------------------------------------------------- free-function codec
//
// Every decode throws ContractViolation on malformed input (unknown
// directive, missing field, trailing garbage) — a truncated or corrupted
// frame must fail loudly at the boundary, never produce a half-read
// message.
//
// DEPRECATED: these free functions are thin wrappers over the *text*
// encoding and are kept so existing callers compile unchanged. New code
// should speak Frame through a WireCodec (below), which also supports the
// negotiated binary framing; these wrappers will be removed once
// out-of-tree callers have migrated.

[[nodiscard]] std::string encode_request(const WireRequest& request);
[[nodiscard]] WireRequest decode_request(std::string_view text);

[[nodiscard]] std::string encode_response(const FusionResponse& response);
[[nodiscard]] FusionResponse decode_response(std::string_view text);

[[nodiscard]] std::string encode_stats(const ServiceStats& stats);
[[nodiscard]] ServiceStats decode_stats(std::string_view text);

[[nodiscard]] std::string encode_config(const ShardServiceConfig& config);
[[nodiscard]] ShardServiceConfig decode_config(std::string_view text);

// ----------------------------------------------------------------- tokens

/// Percent-escapes a byte string into a whitespace-free token ('%', ASCII
/// whitespace and control bytes become %XX; the empty string becomes the
/// lone marker "%", which no escape of a non-empty string produces).
[[nodiscard]] std::string escape_token(std::string_view raw);

/// Inverse of escape_token; throws ContractViolation on malformed escapes.
[[nodiscard]] std::string unescape_token(std::string_view token);

/// Wire names of the enums (stable — they are protocol, not display).
[[nodiscard]] const char* policy_name(DescentPolicy policy);
[[nodiscard]] DescentPolicy policy_from_name(std::string_view name);
[[nodiscard]] const char* cache_policy_name(CacheEvictionPolicy policy);
[[nodiscard]] CacheEvictionPolicy cache_policy_from_name(
    std::string_view name);

// ------------------------------------------------------------- wire codec

/// Which encoding a peer speaks (or is willing to negotiate).
///   kAuto   — offer the binary framing, fall back to text when the peer
///             does not negotiate (old workers). The default everywhere.
///   kText   — speak the line-oriented text protocol, no hello at all;
///             byte-identical to the pre-negotiation wire.
///   kBinary — require the binary framing; a peer that cannot negotiate it
///             fails the connection instead of falling back.
enum class WireMode { kAuto, kText, kBinary };

[[nodiscard]] const char* wire_mode_name(WireMode mode);
/// Strict parse of "text" / "bin" / "auto" (the --wire flag values);
/// returns false on anything else, leaving `out` untouched.
[[nodiscard]] bool parse_wire_mode(std::string_view name, WireMode& out);

/// Everything that crosses a backend boundary, as a tagged variant. One
/// type for both directions: commands (kConfig, kTop, kServe + kRequest*,
/// kStatsQuery, kPing, kShutdown) and replies (kOk, kError, kServing +
/// kResponse* + kDone, kStats, kPong, kBye).
enum class FrameType : std::uint8_t {
  kOk = 1,
  kError = 2,       // text = human-readable detail
  kConfig = 3,      // config
  kTop = 4,         // key + text (self-contained machine text)
  // key + count + parent span id + warm flag, then `count` kRequests
  kServe = 5,
  kRequest = 6,     // request
  // count, followed by `count` kResponse frames, an optional kCacheWarm
  // snapshot (only when the serve frame set `warm`), then kDone
  kServing = 7,
  kResponse = 8,    // response
  kDone = 9,
  kStatsQuery = 10,  // key
  kStats = 11,       // stats
  kPing = 12,
  kPong = 13,
  kShutdown = 14,
  kBye = 15,
  // key + entries: the warm cache handoff. A serve reply carries one (the
  // top's kWarmSnapshotEntries hottest cache entries) between its
  // responses and its kDone when the serve frame set `warm` and those
  // entries' keys differ from the last snapshot shipped on the connection;
  // sent as a command, it imports its entries into the worker's cache —
  // answered by kOk.
  kCacheWarm = 16,
  // obs (an obs::ObsSnapshot). Dual-purpose: an *empty* snapshot queries
  // the worker for its connection-local metrics + spans — answered by a
  // kObs carrying them; the parent merges the reply into the cluster-wide
  // view tagged with the shard it came from.
  kObs = 17,
};

[[nodiscard]] const char* frame_type_name(FrameType type);

/// Entries a worker puts in the warm snapshot it attaches to a serve reply
/// (and so the most a respawn or failover handshake replays). Covers are a
/// few hundred bytes each, so a snapshot stays well under a single network
/// read even at the default cache capacity.
inline constexpr std::uint64_t kWarmSnapshotEntries = 64;

/// Serve batches a binary-wire worker runs at once on one connection; at
/// the bound its reader waits for one to finish before it reads on. A
/// parent pipelining more batches than this in one wave would stall its
/// own wave until replies it has not started reading come back.
inline constexpr std::size_t kMaxServeBatchesInFlight = 64;

/// One decoded wire frame. Which fields are meaningful depends on `type`
/// (see FrameType); the rest stay default-constructed. `exchange` is the
/// multiplexing tag of the binary framing — replies echo the exchange id
/// of their command, so several exchanges can interleave on one
/// connection. The text encoding cannot carry it (always 0).
struct Frame {
  FrameType type = FrameType::kOk;
  std::uint64_t exchange = 0;
  std::string key;           // kTop, kServe, kStatsQuery, kCacheWarm
  std::uint64_t count = 0;   // kServe, kServing
  // kServe: id of the parent-side span (cluster.serve_top) this batch is
  // served under, 0 = unlinked. The worker parents its gen.* spans on it,
  // so the merged trace nests worker work under the originating drain —
  // cross-process trace stitching (hello v5).
  std::uint64_t parent = 0;
  // kServe: the reply may carry the top's warm cache snapshot (see
  // kCacheWarm). A parent sets it on the window that completes a batch, so
  // a batch served in several windows ships at most one (hello v6).
  bool warm = false;
  std::string text;          // kTop (machine text), kError (detail)
  WireRequest request;       // kRequest
  FusionResponse response;   // kResponse
  ServiceStats stats;        // kStats
  ShardServiceConfig config; // kConfig
  std::vector<WarmCacheEntry> entries;  // kCacheWarm
  obs::ObsSnapshot obs;      // kObs
};

/// Mark/restore bump allocator backing binary frame decode: the payload of
/// every incoming frame is staged in one arena block (no per-frame buffer
/// allocation in steady state — restore() keeps the memory) and parsed in
/// place. Chunked so a mark survives growth; an allocation larger than the
/// chunk size gets a dedicated chunk.
class WireArena {
 public:
  explicit WireArena(std::size_t chunk_size = 64 * 1024)
      : chunk_size_(chunk_size) {}

  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Mark mark() const noexcept { return {current_, used_}; }
  /// Rewinds to `mark`; memory is retained for reuse, never freed.
  void restore(const Mark& mark) noexcept {
    current_ = mark.chunk;
    used_ = mark.used;
  }
  [[nodiscard]] char* allocate(std::size_t bytes);
  /// Total bytes owned (capacity, not live) — observability for tests.
  [[nodiscard]] std::size_t capacity() const noexcept;

 private:
  std::size_t chunk_size_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::size_t> sizes_;
  std::size_t current_ = 0;  // chunk cursor
  std::size_t used_ = 0;     // bytes used in chunks_[current_]
};

/// One wire encoding: how a Frame becomes bytes and back. Both directions
/// of every backend (QueuedWireBackend subclasses parent-side, the shard
/// worker on the other end) speak Frame through this interface and never
/// touch encoding details. Implementations may keep decode scratch state
/// (the binary codec's arena), so decode/read are non-const; one codec
/// instance must not be shared by concurrent readers.
class WireCodec {
 public:
  virtual ~WireCodec() = default;

  /// Stable wire name: "text" or "bin" (also the negotiation token).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Whether frames carry exchange ids (binary only) — the precondition
  /// for interleaving exchanges on one connection.
  [[nodiscard]] virtual bool multiplexed() const noexcept = 0;

  /// Appends `frame`'s wire bytes to `out`.
  virtual void encode(const Frame& frame, std::string& out) const = 0;
  [[nodiscard]] std::string encode(const Frame& frame) const {
    std::string out;
    encode(frame, out);
    return out;
  }

  /// Decodes exactly one frame from a complete buffer. Strict: truncated
  /// input and trailing bytes both throw ContractViolation, as does any
  /// malformed content. (The unit-testable surface; transport reads below
  /// share its parsing.)
  [[nodiscard]] virtual Frame decode(std::string_view bytes) = 0;

  /// Reads one frame off the channel, blocking as long as it takes (the
  /// parent side: serve replies legitimately take minutes, TCP keepalive
  /// bounds a dead peer). EOF — even mid-frame — and transport errors
  /// throw NetError; malformed content throws ContractViolation with the
  /// stream position unknowable.
  [[nodiscard]] virtual Frame expect(net::LineChannel& channel,
                                     const char* context) = 0;

  /// Reads one command frame (the worker side): returns std::nullopt on
  /// clean EOF before the frame begins; once it has begun, the rest must
  /// arrive within `frame_budget` or the read fails with NetError. A
  /// ContractViolation means the frame was malformed; for the text codec
  /// the line(s) were fully consumed and the stream is still in sync (the
  /// error-reply-and-continue path old workers rely on); for the binary
  /// codec the stream must be torn down.
  [[nodiscard]] virtual std::optional<Frame> read_command(
      net::LineChannel& channel, std::chrono::milliseconds frame_budget) = 0;
};

/// The codec for one negotiated wire: "bin" or "text".
[[nodiscard]] std::unique_ptr<WireCodec> make_wire_codec(bool binary);

// ------------------------------------------------------------ negotiation
//
// A parent that wants the binary wire opens every connection with a hello
// line — `hello <version> <offer>[,<offer>...]` — listing the encodings
// it accepts, best first. A negotiating worker answers
// `hello <version> <choice>` and both sides switch; a worker that
// predates negotiation (or runs --wire=text) answers
// `error unknown%20command...` like for any unknown directive and keeps
// listening, so the parent falls back to text with the stream still in
// sync. No hello means text, byte-identical to the old wire.
//
// The version is a single integer both sides must match exactly; it is
// bumped whenever a negotiated payload changes shape in either encoding
// (current: 7 — see kHelloVersion in messages.cpp for the history). A
// worker seeing an unsupported version answers
// `error unsupported%20hello%20version...`; the parent recognizes that
// reply and fails the connection in every mode — no text fallback, since
// the text payloads differ across versions too.

/// The parent's opening line (trailing '\n' included). kText sends no
/// hello — calling this with kText is a contract violation.
[[nodiscard]] std::string client_hello(WireMode mode);

/// Parses a worker-received `hello` line. Returns false when `line` is
/// not a hello at all; throws ContractViolation on a hello with an
/// unsupported version. Unknown offer tokens are ignored (future codecs
/// degrade gracefully).
[[nodiscard]] bool parse_client_hello(std::string_view line,
                                      bool& offers_binary, bool& offers_text);

/// The worker's answer line for `binary` (trailing '\n' included).
[[nodiscard]] std::string worker_hello(bool binary);

/// Client-side negotiation on a fresh connection: sends the hello for
/// `mode` (none for kText), reads the worker's answer, and returns the
/// agreed codec. An `error` answer mentioning the hello means a version
/// mismatch and throws in every mode; any other `error` means a
/// non-negotiating worker: kAuto falls back to text, kBinary throws
/// ContractViolation. Any other answer is a protocol violation (throws;
/// the caller drops the connection).
[[nodiscard]] std::unique_ptr<WireCodec> negotiate_wire(
    net::LineChannel& channel, WireMode mode);

}  // namespace ffsm
