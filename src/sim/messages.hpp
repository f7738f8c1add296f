// Wire protocol of the serving stack.
//
// A shard of the FusionCluster is a backend behind a message boundary (see
// sim/backend.hpp); this header defines the messages that cross it and
// their one encoding. A connection opens with a one-line text hello each
// way (see "negotiation" below); everything after it is length-prefixed
// binary frames (WireCodec), each carrying an exchange id so several
// exchanges interleave on one connection. Machines travel inside the kTop
// frame as self-contained fsm/serialize text (alphabet header included),
// and partitions as their normalized block assignments, so
// decode(encode(x)) == x and encode(decode(bytes)) == bytes byte for byte.
// See README "Wire format".
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
// the counters expands this table — the codec's fixed-order u64 list and
// FusionCluster::stats() aggregation — so adding a counter is one row here
// plus one struct field below (a mismatch between the two fails to
// compile). Appending a row changes the stats payload shape:
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
  X(cache_bytes, kPerTop)

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
/// drives the codec and the cluster aggregation.
struct ServiceStats {
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t batches_served = 0;
  /// Worker restarts this serving state survived: respawned processes and
  /// re-established connections (WireBackend). Always 0 from the serving
  /// side itself — the backend that owns the restart policy fills it,
  /// since the restarted worker cannot count its own deaths.
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
};

/// The FusionServiceOptions subset that can cross a process boundary
/// (ThreadPool pointers cannot): cache capacity and the worker-side
/// parallelism switch.
struct ShardServiceConfig {
  /// Fan the worker's batches across its own pool.
  bool parallel = true;
  /// Worker pool size; 0 = hardware concurrency. The codec refuses more
  /// than kMaxWireThreads.
  std::size_t threads = 0;
  /// Capacity of each worker service's closure cache (>= 1).
  std::size_t cache_capacity = LowerCoverCache::kDefaultCapacity;
};

/// Largest worker pool size a kConfig frame may ask for: well above any
/// host's core count, and far below a thread count that could exhaust the
/// worker's process table.
inline constexpr std::uint64_t kMaxWireThreads = 256;

/// A FusionRequest in its wire envelope: the backend ticket identifying
/// the eventual response, plus the submitting client.
struct WireRequest {
  std::uint64_t ticket = 0;
  std::string client;
  FusionRequest request;
};

// ------------------------------------------------------------- wire codec

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

/// Serve batches a worker runs at once on one connection; at the bound its
/// reader waits for one to finish before it reads on. A parent pipelining
/// more batches than this in one wave would stall its own wave until
/// replies it has not started reading come back.
inline constexpr std::size_t kMaxServeBatchesInFlight = 64;

/// One decoded wire frame. Which fields are meaningful depends on `type`
/// (see FrameType); the rest stay default-constructed. `exchange` is the
/// multiplexing tag — replies echo the exchange id of their command, so
/// several exchanges can interleave on one connection.
struct Frame {
  Frame() = default;
  explicit Frame(FrameType frame_type) : type(frame_type) {}

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

/// Mark/restore bump allocator backing frame decode: the payload of
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

/// The wire encoding: how a Frame becomes bytes and back. Both directions
/// (WireBackend parent-side, the shard worker on the other end) speak
/// Frame through this class and never touch encoding details. Decoding
/// stages payloads in the codec's arena, so decode/expect/read_command are
/// non-const and one codec must not be shared by concurrent readers;
/// encode is const and may be.
class WireCodec {
 public:
  /// Appends `frame`'s wire bytes to `out`.
  void encode(const Frame& frame, std::string& out) const;
  [[nodiscard]] std::string encode(const Frame& frame) const {
    std::string out;
    encode(frame, out);
    return out;
  }

  /// Decodes exactly one frame from a complete buffer. Strict: truncated
  /// input and trailing bytes both throw ContractViolation, as does any
  /// malformed content. (The unit-testable surface; transport reads below
  /// share its parsing.)
  [[nodiscard]] Frame decode(std::string_view bytes);

  /// Reads one frame off the channel, blocking as long as it takes (the
  /// parent side: serve replies legitimately take minutes, TCP keepalive
  /// bounds a dead peer). EOF — even mid-frame — and transport errors
  /// throw NetError; malformed content throws ContractViolation with the
  /// stream position unknowable.
  [[nodiscard]] Frame expect(net::LineChannel& channel, const char* context);

  /// Reads one command frame (the worker side): returns std::nullopt on
  /// clean EOF before the frame begins; once it has begun, the rest must
  /// arrive within `frame_budget` or the read fails with NetError. Either
  /// failure — NetError, or ContractViolation for a malformed frame —
  /// leaves the stream mid-frame: tear the connection down.
  [[nodiscard]] std::optional<Frame> read_command(
      net::LineChannel& channel, std::chrono::milliseconds frame_budget);

 private:
  Frame read_payload(net::LineChannel& channel, const char* header_bytes,
                     const net::Deadline* deadline);

  WireArena arena_;
};

/// A heap-allocated codec. `binary` must be true — the binary framing is
/// the only encoding; the flag predates the text codec's removal.
[[nodiscard]] std::unique_ptr<WireCodec> make_wire_codec(bool binary);

// ------------------------------------------------------------ negotiation
//
// Every connection opens with one text line each way before any frame:
// the parent sends `hello <version> bin`, the worker answers `hello
// <version> bin`, and both switch to binary frames. The version is a
// single integer both sides must match exactly; it is bumped whenever a
// payload changes shape (current: 9 — see kHelloVersion in messages.cpp
// for the history). A worker that cannot accept the opening line — another
// version, no `bin` among the offers, or no hello at all — answers
// `error <detail>` and closes, and the parent fails the connection with a
// ContractViolation. The one other opening line a worker answers is a
// bare `ping` (net::HealthMonitor's probe): `pong`, then close.

/// The opening line (trailing '\n' included). The parent's offer and the
/// worker's acceptance are the same line.
[[nodiscard]] std::string wire_hello();

/// Parses a worker-received opening line. Returns false when `line` is
/// not a hello at all; throws ContractViolation on a hello the worker
/// cannot accept (another version, or no `bin` offer). Unknown offer
/// tokens are ignored.
[[nodiscard]] bool parse_client_hello(std::string_view line);

/// The parent's half of the hello on a fresh connection: sends
/// wire_hello() and reads the worker's answer. Returns once the worker
/// agreed; any other answer — an `error` line included — throws
/// ContractViolation, and EOF throws NetError. Either way the caller drops
/// the connection.
void negotiate_wire(net::LineChannel& channel);

}  // namespace ffsm
