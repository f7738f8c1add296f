#include "sim/messages.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace ffsm {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw ContractViolation("wire: " + what);
}

/// True for bytes that must be escaped inside a whitespace-delimited token.
bool needs_escape(unsigned char c) {
  return c == '%' || c <= 0x20 || c == 0x7f;
}

char hex_digit(unsigned v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void expect_line_end(std::istringstream& words, const char* what) {
  std::string extra;
  if (words >> extra)
    bad(std::string(what) + ": trailing token '" + extra + "'");
}

template <typename Unsigned>
Unsigned parse_unsigned(std::istringstream& words, const char* what) {
  Unsigned value{};
  if (!(words >> value)) bad(std::string(what) + ": expected a number");
  return value;
}

template <typename Signed>
Signed parse_signed(std::istringstream& words, const char* what) {
  Signed value{};
  if (!(words >> value)) bad(std::string(what) + ": expected a number");
  return value;
}

bool parse_bool(std::istringstream& words, const char* what) {
  std::string token;
  if (!(words >> token) || (token != "0" && token != "1"))
    bad(std::string(what) + ": expected 0 or 1");
  return token == "1";
}

/// Remaining words of a line as a normalized block assignment.
Partition parse_partition(std::istringstream& words, const char* what) {
  std::vector<std::uint32_t> assignment;
  std::uint32_t v = 0;
  while (words >> v) assignment.push_back(v);
  if (!words.eof()) bad(std::string(what) + ": malformed block assignment");
  return Partition(std::move(assignment));
}

void append_partition(std::ostringstream& out, const char* directive,
                      const Partition& p) {
  out << directive;
  for (const std::uint32_t v : p.assignment()) out << ' ' << v;
  out << '\n';
}

}  // namespace

std::string escape_token(std::string_view raw) {
  if (raw.empty()) return "%";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (needs_escape(u)) {
      out += '%';
      out += hex_digit(u >> 4);
      out += hex_digit(u & 0xf);
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_token(std::string_view token) {
  if (token.empty()) bad("empty token");
  if (token == "%") return "";
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size() || hex_value(token[i + 1]) < 0 ||
        hex_value(token[i + 2]) < 0)
      bad("malformed %-escape in token '" + std::string(token) + "'");
    out += static_cast<char>(hex_value(token[i + 1]) * 16 +
                             hex_value(token[i + 2]));
    i += 2;
  }
  return out;
}

const char* policy_name(DescentPolicy policy) {
  switch (policy) {
    case DescentPolicy::kFirstFound:
      return "first_found";
    case DescentPolicy::kFewestBlocks:
      return "fewest_blocks";
    case DescentPolicy::kMostBlocks:
      return "most_blocks";
  }
  bad("unknown DescentPolicy");
}

DescentPolicy policy_from_name(std::string_view name) {
  if (name == "first_found") return DescentPolicy::kFirstFound;
  if (name == "fewest_blocks") return DescentPolicy::kFewestBlocks;
  if (name == "most_blocks") return DescentPolicy::kMostBlocks;
  bad("unknown descent policy '" + std::string(name) + "'");
}

const char* cache_policy_name(CacheEvictionPolicy policy) {
  switch (policy) {
    case CacheEvictionPolicy::kLru:
      return "lru";
    case CacheEvictionPolicy::kEpoch:
      return "epoch";
    case CacheEvictionPolicy::kUnbounded:
      return "unbounded";
    case CacheEvictionPolicy::kLfuAdmit:
      return "lfu_admit";
  }
  bad("unknown CacheEvictionPolicy");
}

CacheEvictionPolicy cache_policy_from_name(std::string_view name) {
  if (name == "lru") return CacheEvictionPolicy::kLru;
  if (name == "epoch") return CacheEvictionPolicy::kEpoch;
  if (name == "unbounded") return CacheEvictionPolicy::kUnbounded;
  if (name == "lfu_admit") return CacheEvictionPolicy::kLfuAdmit;
  bad("unknown cache policy '" + std::string(name) + "'");
}

// ---------------------------------------------------------------- request

std::string encode_request(const WireRequest& request) {
  std::ostringstream out;
  out << "request " << request.ticket << ' ' << escape_token(request.client)
      << '\n';
  out << "f " << request.request.f << '\n';
  out << "policy " << policy_name(request.request.policy) << '\n';
  for (const Partition& p : request.request.originals)
    append_partition(out, "original", p);
  out << "end\n";
  return out.str();
}

WireRequest decode_request(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  WireRequest out;
  bool have_header = false;
  bool have_f = false;
  bool have_policy = false;
  bool ended = false;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string directive;
    if (!(words >> directive)) continue;  // blank line
    if (ended) bad("request: content after 'end'");
    if (directive == "request") {
      if (have_header) bad("request: duplicate header");
      std::string client;
      if (!(words >> out.ticket >> client))
        bad("request: header requires <ticket> <client>");
      expect_line_end(words, "request header");
      out.client = unescape_token(client);
      have_header = true;
      continue;
    }
    if (!have_header) bad("request: expected 'request <ticket> <client>'");
    if (directive == "f") {
      out.request.f = parse_unsigned<std::uint32_t>(words, "request f");
      expect_line_end(words, "request f");
      have_f = true;
    } else if (directive == "policy") {
      std::string name;
      if (!(words >> name)) bad("request: 'policy' requires a name");
      expect_line_end(words, "request policy");
      out.request.policy = policy_from_name(name);
      have_policy = true;
    } else if (directive == "original") {
      out.request.originals.push_back(
          parse_partition(words, "request original"));
    } else if (directive == "end") {
      expect_line_end(words, "request end");
      ended = true;
    } else {
      bad("request: unknown directive '" + directive + "'");
    }
  }
  if (!have_header) bad("request: empty input");
  if (!ended) bad("request: missing 'end'");
  if (!have_f || !have_policy) bad("request: missing 'f' or 'policy'");
  return out;
}

// --------------------------------------------------------------- response

std::string encode_response(const FusionResponse& response) {
  std::ostringstream out;
  out << "response " << response.ticket << ' '
      << escape_token(response.client) << '\n';
  for (const Partition& p : response.result.partitions)
    append_partition(out, "fusion", p);
  const GenerateStats& s = response.result.stats;
  out << "stats " << s.machines_added << ' ' << s.descent_steps << ' '
      << s.candidates_examined << ' ' << s.closures_evaluated << ' '
      << s.cover_cache_hits << ' ' << s.graph_edges_examined << ' '
      << s.dmin_before << ' ' << s.dmin_after << '\n';
  out << "end\n";
  return out.str();
}

FusionResponse decode_response(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  FusionResponse out;
  bool have_header = false;
  bool have_stats = false;
  bool ended = false;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string directive;
    if (!(words >> directive)) continue;
    if (ended) bad("response: content after 'end'");
    if (directive == "response") {
      if (have_header) bad("response: duplicate header");
      std::string client;
      if (!(words >> out.ticket >> client))
        bad("response: header requires <ticket> <client>");
      expect_line_end(words, "response header");
      out.client = unescape_token(client);
      have_header = true;
      continue;
    }
    if (!have_header) bad("response: expected 'response <ticket> <client>'");
    if (directive == "fusion") {
      out.result.partitions.push_back(
          parse_partition(words, "response fusion"));
    } else if (directive == "stats") {
      GenerateStats& s = out.result.stats;
      s.machines_added =
          parse_unsigned<std::uint32_t>(words, "response stats");
      s.descent_steps = parse_unsigned<std::uint32_t>(words, "response stats");
      s.candidates_examined =
          parse_unsigned<std::uint64_t>(words, "response stats");
      s.closures_evaluated =
          parse_unsigned<std::uint64_t>(words, "response stats");
      s.cover_cache_hits =
          parse_unsigned<std::uint64_t>(words, "response stats");
      s.graph_edges_examined =
          parse_unsigned<std::uint64_t>(words, "response stats");
      s.dmin_before = parse_unsigned<std::uint32_t>(words, "response stats");
      s.dmin_after = parse_unsigned<std::uint32_t>(words, "response stats");
      expect_line_end(words, "response stats");
      have_stats = true;
    } else if (directive == "end") {
      expect_line_end(words, "response end");
      ended = true;
    } else {
      bad("response: unknown directive '" + directive + "'");
    }
  }
  if (!have_header) bad("response: empty input");
  if (!ended) bad("response: missing 'end'");
  if (!have_stats) bad("response: missing 'stats'");
  return out;
}

// ------------------------------------------------------------------ stats

std::string encode_stats(const ServiceStats& stats) {
  std::ostringstream out;
  out << "stats\n";
#define FFSM_STATS_ENCODE_LINE(name, agg) \
  out << #name " " << stats.name << '\n';
  FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_ENCODE_LINE)
#undef FFSM_STATS_ENCODE_LINE
  out << "end\n";
  return out.str();
}

ServiceStats decode_stats(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  ServiceStats out;
  bool have_header = false;
  bool ended = false;
  // One bit per counter: a duplicated directive must not mask a missing
  // one (counting lines alone would let "restarts" twice and no
  // "cache_bytes" decode as a silently defaulted stats frame).
  std::uint32_t seen = 0;
  const auto mark = [&](std::uint32_t bit) {
    if ((seen & (1u << bit)) != 0) bad("stats: duplicate counter");
    seen |= 1u << bit;
  };
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string directive;
    if (!(words >> directive)) continue;
    if (ended) bad("stats: content after 'end'");
    if (directive == "stats") {
      if (have_header) bad("stats: duplicate header");
      expect_line_end(words, "stats header");
      have_header = true;
      continue;
    }
    if (!have_header) bad("stats: expected 'stats' first");
    if (directive == "end") {
      expect_line_end(words, "stats end");
      ended = true;
      continue;
    }
    bool matched = false;
    std::uint32_t bit = 0;
#define FFSM_STATS_DECODE_LINE(name, agg)               \
  if (!matched && directive == #name) {                 \
    mark(bit);                                          \
    out.name = static_cast<decltype(out.name)>(         \
        parse_unsigned<std::uint64_t>(words, "stats")); \
    matched = true;                                     \
  }                                                     \
  ++bit;
    FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_DECODE_LINE)
#undef FFSM_STATS_DECODE_LINE
    if (!matched) bad("stats: unknown counter '" + directive + "'");
    expect_line_end(words, "stats counter");
  }
  if (!have_header) bad("stats: empty input");
  if (!ended) bad("stats: missing 'end'");
  if (seen != (1u << kServiceStatsCounters) - 1) bad("stats: missing counter");
  return out;
}

// ----------------------------------------------------------------- config

std::string encode_config(const ShardServiceConfig& config) {
  std::ostringstream out;
  out << "config\n";
  out << "parallel " << (config.parallel ? 1 : 0) << '\n';
  out << "threads " << config.threads << '\n';
  out << "cache_policy " << cache_policy_name(config.cache_config.policy)
      << '\n';
  out << "cache_capacity " << config.cache_config.capacity << '\n';
  out << "end\n";
  return out.str();
}

ShardServiceConfig decode_config(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  ShardServiceConfig out;
  bool have_header = false;
  bool ended = false;
  // One bit per field: duplicates must not mask a missing field (see
  // decode_stats).
  std::uint32_t seen = 0;
  const auto mark = [&](std::uint32_t bit) {
    if ((seen & (1u << bit)) != 0) bad("config: duplicate field");
    seen |= 1u << bit;
  };
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string directive;
    if (!(words >> directive)) continue;
    if (ended) bad("config: content after 'end'");
    if (directive == "config") {
      if (have_header) bad("config: duplicate header");
      expect_line_end(words, "config header");
      have_header = true;
      continue;
    }
    if (!have_header) bad("config: expected 'config' first");
    if (directive == "end") {
      expect_line_end(words, "config end");
      ended = true;
      continue;
    }
    if (directive == "parallel") {
      mark(0);
      out.parallel = parse_bool(words, "config parallel");
    } else if (directive == "threads") {
      mark(1);
      out.threads = parse_unsigned<std::size_t>(words, "config threads");
    } else if (directive == "cache_policy") {
      mark(2);
      std::string name;
      if (!(words >> name)) bad("config: 'cache_policy' requires a name");
      out.cache_config.policy = cache_policy_from_name(name);
    } else if (directive == "cache_capacity") {
      mark(3);
      out.cache_config.capacity =
          parse_unsigned<std::size_t>(words, "config cache_capacity");
    } else {
      bad("config: unknown field '" + directive + "'");
    }
    expect_line_end(words, "config field");
  }
  if (!have_header) bad("config: empty input");
  if (!ended) bad("config: missing 'end'");
  if (seen != (1u << 4) - 1) bad("config: missing field");
  return out;
}

// ------------------------------------------------------------- wire modes

const char* wire_mode_name(WireMode mode) {
  switch (mode) {
    case WireMode::kAuto:
      return "auto";
    case WireMode::kText:
      return "text";
    case WireMode::kBinary:
      return "bin";
  }
  bad("unknown WireMode");
}

bool parse_wire_mode(std::string_view name, WireMode& out) {
  if (name == "auto") {
    out = WireMode::kAuto;
  } else if (name == "text") {
    out = WireMode::kText;
  } else if (name == "bin") {
    out = WireMode::kBinary;
  } else {
    return false;
  }
  return true;
}

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kOk:
      return "ok";
    case FrameType::kError:
      return "error";
    case FrameType::kConfig:
      return "config";
    case FrameType::kTop:
      return "top";
    case FrameType::kServe:
      return "serve";
    case FrameType::kRequest:
      return "request";
    case FrameType::kServing:
      return "serving";
    case FrameType::kResponse:
      return "response";
    case FrameType::kDone:
      return "done";
    case FrameType::kStatsQuery:
      return "stats-query";
    case FrameType::kStats:
      return "stats";
    case FrameType::kPing:
      return "ping";
    case FrameType::kPong:
      return "pong";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kBye:
      return "bye";
    case FrameType::kCacheWarm:
      return "cachewarm";
    case FrameType::kObs:
      return "obs";
  }
  bad("unknown FrameType");
}

// -------------------------------------------------------------- WireArena

char* WireArena::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;  // distinct non-null pointers, simpler marks
  while (current_ < chunks_.size()) {
    if (sizes_[current_] - used_ >= bytes) {
      char* out = chunks_[current_].get() + used_;
      used_ += bytes;
      return out;
    }
    ++current_;
    used_ = 0;
  }
  const std::size_t capacity = std::max(chunk_size_, bytes);
  chunks_.push_back(std::make_unique<char[]>(capacity));
  sizes_.push_back(capacity);
  current_ = chunks_.size() - 1;
  used_ = bytes;
  return chunks_[current_].get();
}

std::size_t WireArena::capacity() const noexcept {
  std::size_t total = 0;
  for (const std::size_t size : sizes_) total += size;
  return total;
}

// ------------------------------------------------------------- text codec

namespace {

/// Pulls the next input line; false only at a clean end of input (which
/// mid-frame means truncation). Channel-backed sources never return false
/// — they throw NetError via expect_line instead.
using LineSource = std::function<bool(std::string&)>;

bool blank_line(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

std::string next_or_truncated(const LineSource& next, const char* what) {
  std::string line;
  if (!next(line)) bad(std::string(what) + ": truncated frame");
  return line;
}

/// Lines up to and including the lone `end` terminator, newlines restored
/// — the body collector behind every multi-line text frame.
std::string collect_text_frame(std::string first, const LineSource& next,
                               const char* what) {
  std::string frame = std::move(first);
  frame += '\n';
  for (;;) {
    const std::string line = next_or_truncated(next, what);
    frame += line;
    frame += '\n';
    if (line == "end") return frame;
  }
}

/// One text frame starting at `first` (a non-blank command/reply line),
/// pulling body lines from `next` as the type requires.
Frame parse_text_frame(const std::string& first, const LineSource& next) {
  std::istringstream words(first);
  std::string directive;
  words >> directive;  // caller guarantees a non-blank line
  Frame frame;
  const auto line_end = [&](const char* what) { expect_line_end(words, what); };
  if (directive == "ok") {
    frame.type = FrameType::kOk;
    line_end("ok");
  } else if (directive == "error") {
    frame.type = FrameType::kError;
    std::string token;
    if (words >> token) {
      // Lenient like the historical error_detail: a garbled escape in an
      // error message must not mask the error itself.
      try {
        frame.text = unescape_token(token);
      } catch (const ContractViolation&) {
        frame.text = token;
      }
    }
    line_end("error");
  } else if (directive == "done") {
    frame.type = FrameType::kDone;
    line_end("done");
  } else if (directive == "ping") {
    frame.type = FrameType::kPing;
    line_end("ping");
  } else if (directive == "pong") {
    frame.type = FrameType::kPong;
    line_end("pong");
  } else if (directive == "shutdown") {
    frame.type = FrameType::kShutdown;
    line_end("shutdown");
  } else if (directive == "bye") {
    frame.type = FrameType::kBye;
    line_end("bye");
  } else if (directive == "serving") {
    frame.type = FrameType::kServing;
    frame.count = parse_unsigned<std::uint64_t>(words, "serving");
    line_end("serving");
  } else if (directive == "serve") {
    frame.type = FrameType::kServe;
    std::string token;
    if (!(words >> token))
      bad("'serve' requires <key> <count> <parent> <warm>");
    frame.key = unescape_token(token);
    frame.count = parse_unsigned<std::uint64_t>(words, "serve count");
    frame.parent = parse_unsigned<std::uint64_t>(words, "serve parent");
    frame.warm = parse_bool(words, "serve warm");
    line_end("serve");
  } else if (directive == "cachewarm") {
    frame.type = FrameType::kCacheWarm;
    std::string token;
    if (!(words >> token)) bad("'cachewarm' requires <key>");
    frame.key = unescape_token(token);
    line_end("cachewarm");
    // Body: `entry` opens one cache entry (its key partition), `cover`
    // lines add that entry's cover partitions, a lone `end` closes the
    // frame.
    for (;;) {
      const std::string line = next_or_truncated(next, "cachewarm");
      std::istringstream body(line);
      std::string what;
      if (!(body >> what)) continue;  // blank line
      if (what == "end") {
        expect_line_end(body, "cachewarm end");
        break;
      }
      if (what == "entry") {
        WarmCacheEntry entry;
        entry.key = parse_partition(body, "cachewarm entry");
        frame.entries.push_back(std::move(entry));
      } else if (what == "cover") {
        if (frame.entries.empty())
          bad("cachewarm: 'cover' before any 'entry'");
        frame.entries.back().cover.push_back(
            parse_partition(body, "cachewarm cover"));
      } else {
        bad("cachewarm: unknown directive '" + what + "'");
      }
    }
  } else if (directive == "obs") {
    frame.type = FrameType::kObs;
    line_end("obs");
    // Body: `counter`, `gauge`, `hist` and `span` lines in any order, a
    // lone `end` closes the frame. An empty body is the query form.
    for (;;) {
      const std::string line = next_or_truncated(next, "obs");
      std::istringstream body(line);
      std::string what;
      if (!(body >> what)) continue;  // blank line
      if (what == "end") {
        expect_line_end(body, "obs end");
        break;
      }
      if (what == "counter") {
        std::string token;
        if (!(body >> token)) bad("obs: 'counter' requires <name> <value>");
        const std::uint64_t value =
            parse_unsigned<std::uint64_t>(body, "obs counter");
        expect_line_end(body, "obs counter");
        if (!frame.obs.counters.emplace(unescape_token(token), value).second)
          bad("obs: duplicate counter");
      } else if (what == "gauge") {
        std::string token;
        if (!(body >> token)) bad("obs: 'gauge' requires <name> <value>");
        const std::int64_t value =
            parse_signed<std::int64_t>(body, "obs gauge");
        expect_line_end(body, "obs gauge");
        if (!frame.obs.gauges.emplace(unescape_token(token), value).second)
          bad("obs: duplicate gauge");
      } else if (what == "hist") {
        std::string token;
        if (!(body >> token))
          bad("obs: 'hist' requires <name> <sum> <n> [<bucket> <count>]...");
        obs::HistogramSnapshot h;
        h.sum = parse_unsigned<std::uint64_t>(body, "obs hist sum");
        const std::uint32_t nonzero =
            parse_unsigned<std::uint32_t>(body, "obs hist bucket count");
        if (nonzero > obs::kHistogramBuckets)
          bad("obs: histogram bucket count out of range");
        for (std::uint32_t i = 0; i < nonzero; ++i) {
          const std::uint32_t idx =
              parse_unsigned<std::uint32_t>(body, "obs hist bucket");
          if (idx >= obs::kHistogramBuckets)
            bad("obs: histogram bucket index out of range");
          const std::uint64_t count =
              parse_unsigned<std::uint64_t>(body, "obs hist bucket");
          if (count == 0 || h.buckets[idx] != 0)
            bad("obs: malformed histogram bucket");
          h.buckets[idx] = count;
        }
        expect_line_end(body, "obs hist");
        if (!frame.obs.histograms.emplace(unescape_token(token), h).second)
          bad("obs: duplicate histogram");
      } else if (what == "span") {
        std::string name;
        std::string source;
        std::string shard;
        std::string top;
        if (!(body >> name >> source >> shard >> top))
          bad("obs: 'span' requires <name> <source> <shard> <top> + fields");
        obs::TraceSpan s;
        s.name = unescape_token(name);
        s.source = unescape_token(source);
        s.shard = unescape_token(shard);
        s.top = unescape_token(top);
        s.start_us = parse_unsigned<std::uint64_t>(body, "obs span");
        s.duration_us = parse_unsigned<std::uint64_t>(body, "obs span");
        s.id = parse_unsigned<std::uint64_t>(body, "obs span");
        s.parent = parse_unsigned<std::uint64_t>(body, "obs span");
        s.exchange = parse_unsigned<std::uint64_t>(body, "obs span");
        s.instant = parse_bool(body, "obs span instant");
        expect_line_end(body, "obs span");
        frame.obs.spans.push_back(std::move(s));
      } else {
        bad("obs: unknown directive '" + what + "'");
      }
    }
  } else if (directive == "stats") {
    std::string token;
    if (words >> token) {
      // `stats <key>` is the query; a bare `stats` opens the counters
      // frame (the reply).
      frame.type = FrameType::kStatsQuery;
      frame.key = unescape_token(token);
      line_end("stats query");
    } else {
      frame.type = FrameType::kStats;
      frame.stats = decode_stats(collect_text_frame(first, next, "stats"));
    }
  } else if (directive == "config") {
    line_end("config");
    frame.type = FrameType::kConfig;
    frame.config = decode_config(collect_text_frame(first, next, "config"));
  } else if (directive == "top") {
    frame.type = FrameType::kTop;
    std::string token;
    if (!(words >> token)) bad("'top' requires a key");
    frame.key = unescape_token(token);
    line_end("top");
    // The machine text is its own frame: first line through lone `end`.
    frame.text = collect_text_frame(
        next_or_truncated(next, "machine text"), next, "machine text");
  } else if (directive == "request") {
    frame.type = FrameType::kRequest;
    frame.request =
        decode_request(collect_text_frame(first, next, "request"));
  } else if (directive == "response") {
    frame.type = FrameType::kResponse;
    frame.response =
        decode_response(collect_text_frame(first, next, "response"));
  } else {
    bad("unknown command '" + directive + "'");
  }
  return frame;
}

class TextWireCodec final : public WireCodec {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "text"; }
  [[nodiscard]] bool multiplexed() const noexcept override { return false; }

  void encode(const Frame& frame, std::string& out) const override {
    // Exchange ids exist only in the binary framing; silently dropping one
    // here would desynchronize a multiplexing caller.
    if (frame.exchange != 0) bad("text wire cannot carry exchange ids");
    switch (frame.type) {
      case FrameType::kOk:
        out += "ok\n";
        return;
      case FrameType::kError:
        out += "error ";
        out += escape_token(frame.text);
        out += '\n';
        return;
      case FrameType::kConfig:
        out += encode_config(frame.config);
        return;
      case FrameType::kTop:
        out += "top ";
        out += escape_token(frame.key);
        out += '\n';
        out += frame.text;  // self-terminating machine-text frame
        return;
      case FrameType::kServe:
        out += "serve ";
        out += escape_token(frame.key);
        out += ' ';
        out += std::to_string(frame.count);
        out += ' ';
        out += std::to_string(frame.parent);
        out += frame.warm ? " 1\n" : " 0\n";
        return;
      case FrameType::kRequest:
        out += encode_request(frame.request);
        return;
      case FrameType::kServing:
        out += "serving ";
        out += std::to_string(frame.count);
        out += '\n';
        return;
      case FrameType::kResponse:
        out += encode_response(frame.response);
        return;
      case FrameType::kDone:
        out += "done\n";
        return;
      case FrameType::kStatsQuery:
        out += "stats ";
        out += escape_token(frame.key);
        out += '\n';
        return;
      case FrameType::kStats:
        out += encode_stats(frame.stats);
        return;
      case FrameType::kPing:
        out += "ping\n";
        return;
      case FrameType::kPong:
        out += "pong\n";
        return;
      case FrameType::kShutdown:
        out += "shutdown\n";
        return;
      case FrameType::kBye:
        out += "bye\n";
        return;
      case FrameType::kCacheWarm: {
        out += "cachewarm ";
        out += escape_token(frame.key);
        out += '\n';
        std::ostringstream body;
        for (const WarmCacheEntry& entry : frame.entries) {
          append_partition(body, "entry", entry.key);
          for (const Partition& p : entry.cover)
            append_partition(body, "cover", p);
        }
        out += body.str();
        out += "end\n";
        return;
      }
      case FrameType::kObs: {
        out += "obs\n";
        std::ostringstream body;
        for (const auto& [name, value] : frame.obs.counters)
          body << "counter " << escape_token(name) << ' ' << value << '\n';
        for (const auto& [name, value] : frame.obs.gauges)
          body << "gauge " << escape_token(name) << ' ' << value << '\n';
        for (const auto& [name, h] : frame.obs.histograms) {
          std::uint32_t nonzero = 0;
          for (const std::uint64_t c : h.buckets) nonzero += c != 0 ? 1 : 0;
          body << "hist " << escape_token(name) << ' ' << h.sum << ' '
               << nonzero;
          for (std::size_t i = 0; i < h.buckets.size(); ++i)
            if (h.buckets[i] != 0) body << ' ' << i << ' ' << h.buckets[i];
          body << '\n';
        }
        for (const obs::TraceSpan& s : frame.obs.spans)
          body << "span " << escape_token(s.name) << ' '
               << escape_token(s.source) << ' ' << escape_token(s.shard)
               << ' ' << escape_token(s.top) << ' ' << s.start_us << ' '
               << s.duration_us << ' ' << s.id << ' ' << s.parent << ' '
               << s.exchange << ' ' << (s.instant ? 1 : 0) << '\n';
        out += body.str();
        out += "end\n";
        return;
      }
    }
    bad("unknown FrameType");
  }

  [[nodiscard]] Frame decode(std::string_view bytes) override {
    std::string_view rest = bytes;
    const auto next = [&rest](std::string& line) {
      if (rest.empty()) return false;
      const auto pos = rest.find('\n');
      if (pos == std::string_view::npos)
        bad("truncated frame (unterminated line)");
      line.assign(rest.substr(0, pos));
      rest.remove_prefix(pos + 1);
      return true;
    };
    std::string first;
    do {
      if (!next(first)) bad("empty input");
    } while (blank_line(first));
    Frame frame = parse_text_frame(first, next);
    std::string extra;
    while (!rest.empty())
      if (next(extra) && !blank_line(extra))
        bad("trailing bytes after frame");
    return frame;
  }

  [[nodiscard]] Frame expect(net::LineChannel& channel,
                             const char* context) override {
    std::string first;
    do {
      first = channel.expect_line(context);
    } while (blank_line(first));
    return parse_text_frame(first, [&](std::string& line) {
      line = channel.expect_line(context);
      return true;
    });
  }

  [[nodiscard]] std::optional<Frame> read_command(
      net::LineChannel& channel,
      std::chrono::milliseconds frame_budget) override {
    std::string first;
    do {
      if (!channel.read_line(first)) return std::nullopt;
    } while (blank_line(first));
    // The command line may block forever (an idle parent is fine); once a
    // frame has begun, the rest shares one bounded budget.
    const net::Deadline deadline =
        std::chrono::steady_clock::now() + frame_budget;
    return parse_text_frame(first, [&](std::string& line) {
      line = channel.expect_line("command frame", deadline);
      return true;
    });
  }
};

// ----------------------------------------------------------- binary codec
//
// Frame = 16-byte little-endian header + payload:
//
//   u32 payload_len | u8 type | u8 0 | u16 0 | u64 exchange
//
// Reserved header bytes must be zero. Payload layouts (all integers
// little-endian, `str` = u32 length + raw bytes, `partition` = u32 count +
// count x u32 block ids):
//
//   kError       str detail
//   kConfig      u8 parallel, u64 threads, u8 cache_policy,
//                u64 cache_capacity
//   kTop         str key, str machine_text
//   kServe       str key, u64 count, u64 parent (parent-side span id the
//                worker parents its spans under; 0 = unlinked),
//                u8 warm (the reply may carry a warm snapshot)
//   kServing     u64 count
//   kStatsQuery  str key
//   kStats       kServiceStatsCounters x u64
//                (FFSM_SERVICE_STATS_COUNTERS row order)
//   kCacheWarm   str key, u32 n, n x (partition key, u32 m, m x partition)
//   kObs         u32 nc, nc x (str name, u64 value),
//                u32 ng, ng x (str name, u64 value-as-two's-complement),
//                u32 nh, nh x (str name, u64 sum, u32 nb,
//                              nb x (u8 bucket, u64 count)),
//                u32 ns, ns x (str name, str source, str shard, str top,
//                              u64 start_us, u64 duration_us, u64 id,
//                              u64 parent, u64 exchange, u8 instant)
//   kRequest     u64 ticket, str client, u32 f, u8 policy,
//                u32 n, n x partition
//   kResponse    u64 ticket, str client, u32 n, n x partition,
//                u32 machines_added, u32 descent_steps,
//                u64 candidates_examined, u64 closures_evaluated,
//                u64 cover_cache_hits, u64 graph_edges_examined,
//                u32 dmin_before, u32 dmin_after
//   (kOk, kDone, kPing, kPong, kShutdown, kBye: empty payload)

constexpr std::size_t kBinHeaderSize = 16;
/// Machines and batches are at most megabytes; anything close to this is
/// a corrupted length, rejected before it can size an allocation.
constexpr std::uint32_t kMaxBinPayload = 256u << 20;

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xff));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_str(std::string& out, std::string_view s) {
  if (s.size() > kMaxBinPayload) bad("oversized string field");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

void put_partition(std::string& out, const Partition& p) {
  const auto& assignment = p.assignment();
  put_u32(out, static_cast<std::uint32_t>(assignment.size()));
  for (const std::uint32_t v : assignment) put_u32(out, v);
}

std::uint8_t policy_wire(DescentPolicy policy) {
  switch (policy) {
    case DescentPolicy::kFirstFound:
      return 0;
    case DescentPolicy::kFewestBlocks:
      return 1;
    case DescentPolicy::kMostBlocks:
      return 2;
  }
  bad("unknown DescentPolicy");
}

DescentPolicy policy_from_wire(std::uint8_t v) {
  switch (v) {
    case 0:
      return DescentPolicy::kFirstFound;
    case 1:
      return DescentPolicy::kFewestBlocks;
    case 2:
      return DescentPolicy::kMostBlocks;
    default:
      bad("unknown descent policy byte");
  }
}

std::uint8_t cache_policy_wire(CacheEvictionPolicy policy) {
  switch (policy) {
    case CacheEvictionPolicy::kLru:
      return 0;
    case CacheEvictionPolicy::kEpoch:
      return 1;
    case CacheEvictionPolicy::kUnbounded:
      return 2;
    case CacheEvictionPolicy::kLfuAdmit:
      return 3;
  }
  bad("unknown CacheEvictionPolicy");
}

CacheEvictionPolicy cache_policy_from_wire(std::uint8_t v) {
  switch (v) {
    case 0:
      return CacheEvictionPolicy::kLru;
    case 1:
      return CacheEvictionPolicy::kEpoch;
    case 2:
      return CacheEvictionPolicy::kUnbounded;
    case 3:
      return CacheEvictionPolicy::kLfuAdmit;
    default:
      bad("unknown cache policy byte");
  }
}

/// Bounds-checked little-endian cursor over one binary payload.
class BinReader {
 public:
  BinReader(const char* data, std::size_t size)
      : p_(reinterpret_cast<const unsigned char*>(data)), end_(p_ + size) {}

  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

  void require(std::size_t bytes) const {
    if (static_cast<std::size_t>(end_ - p_) < bytes)
      bad("truncated payload");
  }

  std::uint8_t u8() {
    require(1);
    return *p_++;
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p_[i]} << (8 * i);
    p_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p_[i]} << (8 * i);
    p_ += 8;
    return v;
  }

  std::string_view str() {
    const std::uint32_t size = u32();
    require(size);
    const auto* at = reinterpret_cast<const char*>(p_);
    p_ += size;
    return {at, size};
  }

  Partition partition() {
    const std::uint32_t count = u32();
    require(std::size_t{count} * 4);
    std::vector<std::uint32_t> assignment;
    assignment.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) assignment.push_back(u32());
    return Partition(std::move(assignment));
  }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) bad("expected a 0/1 byte");
    return v == 1;
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

void encode_binary_payload(const Frame& frame, std::string& out) {
  switch (frame.type) {
    case FrameType::kOk:
    case FrameType::kDone:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kShutdown:
    case FrameType::kBye:
      return;
    case FrameType::kError:
      put_str(out, frame.text);
      return;
    case FrameType::kConfig:
      put_u8(out, frame.config.parallel ? 1 : 0);
      put_u64(out, frame.config.threads);
      put_u8(out, cache_policy_wire(frame.config.cache_config.policy));
      put_u64(out, frame.config.cache_config.capacity);
      return;
    case FrameType::kTop:
      put_str(out, frame.key);
      put_str(out, frame.text);
      return;
    case FrameType::kServe:
      put_str(out, frame.key);
      put_u64(out, frame.count);
      put_u64(out, frame.parent);
      put_u8(out, frame.warm ? 1 : 0);
      return;
    case FrameType::kServing:
      put_u64(out, frame.count);
      return;
    case FrameType::kStatsQuery:
      put_str(out, frame.key);
      return;
    case FrameType::kStats:
#define FFSM_STATS_PUT(name, agg) put_u64(out, frame.stats.name);
      FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_PUT)
#undef FFSM_STATS_PUT
      return;
    case FrameType::kCacheWarm:
      put_str(out, frame.key);
      put_u32(out, static_cast<std::uint32_t>(frame.entries.size()));
      for (const WarmCacheEntry& entry : frame.entries) {
        put_partition(out, entry.key);
        put_u32(out, static_cast<std::uint32_t>(entry.cover.size()));
        for (const Partition& p : entry.cover) put_partition(out, p);
      }
      return;
    case FrameType::kObs: {
      const obs::ObsSnapshot& o = frame.obs;
      put_u32(out, static_cast<std::uint32_t>(o.counters.size()));
      for (const auto& [name, value] : o.counters) {
        put_str(out, name);
        put_u64(out, value);
      }
      put_u32(out, static_cast<std::uint32_t>(o.gauges.size()));
      for (const auto& [name, value] : o.gauges) {
        put_str(out, name);
        put_u64(out, static_cast<std::uint64_t>(value));
      }
      put_u32(out, static_cast<std::uint32_t>(o.histograms.size()));
      for (const auto& [name, h] : o.histograms) {
        put_str(out, name);
        put_u64(out, h.sum);
        std::uint32_t nonzero = 0;
        for (const std::uint64_t c : h.buckets) nonzero += c != 0 ? 1 : 0;
        put_u32(out, nonzero);
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          if (h.buckets[i] == 0) continue;
          put_u8(out, static_cast<std::uint8_t>(i));
          put_u64(out, h.buckets[i]);
        }
      }
      put_u32(out, static_cast<std::uint32_t>(o.spans.size()));
      for (const obs::TraceSpan& s : o.spans) {
        put_str(out, s.name);
        put_str(out, s.source);
        put_str(out, s.shard);
        put_str(out, s.top);
        put_u64(out, s.start_us);
        put_u64(out, s.duration_us);
        put_u64(out, s.id);
        put_u64(out, s.parent);
        put_u64(out, s.exchange);
        put_u8(out, s.instant ? 1 : 0);
      }
      return;
    }
    case FrameType::kRequest: {
      const WireRequest& r = frame.request;
      put_u64(out, r.ticket);
      put_str(out, r.client);
      put_u32(out, r.request.f);
      put_u8(out, policy_wire(r.request.policy));
      put_u32(out, static_cast<std::uint32_t>(r.request.originals.size()));
      for (const Partition& p : r.request.originals) put_partition(out, p);
      return;
    }
    case FrameType::kResponse: {
      const FusionResponse& r = frame.response;
      put_u64(out, r.ticket);
      put_str(out, r.client);
      put_u32(out, static_cast<std::uint32_t>(r.result.partitions.size()));
      for (const Partition& p : r.result.partitions) put_partition(out, p);
      const GenerateStats& s = r.result.stats;
      put_u32(out, s.machines_added);
      put_u32(out, s.descent_steps);
      put_u64(out, s.candidates_examined);
      put_u64(out, s.closures_evaluated);
      put_u64(out, s.cover_cache_hits);
      put_u64(out, s.graph_edges_examined);
      put_u32(out, s.dmin_before);
      put_u32(out, s.dmin_after);
      return;
    }
  }
  bad("unknown FrameType");
}

Frame decode_binary_payload(FrameType type, BinReader& in) {
  Frame frame;
  frame.type = type;
  switch (type) {
    case FrameType::kOk:
    case FrameType::kDone:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kShutdown:
    case FrameType::kBye:
      break;
    case FrameType::kError:
      frame.text = in.str();
      break;
    case FrameType::kConfig:
      frame.config.parallel = in.boolean();
      frame.config.threads = in.u64();
      frame.config.cache_config.policy = cache_policy_from_wire(in.u8());
      frame.config.cache_config.capacity = in.u64();
      break;
    case FrameType::kTop:
      frame.key = in.str();
      frame.text = in.str();
      break;
    case FrameType::kServe:
      frame.key = in.str();
      frame.count = in.u64();
      frame.parent = in.u64();
      frame.warm = in.boolean();
      break;
    case FrameType::kServing:
      frame.count = in.u64();
      break;
    case FrameType::kStatsQuery:
      frame.key = in.str();
      break;
    case FrameType::kStats:
#define FFSM_STATS_GET(name, agg) \
  frame.stats.name = static_cast<decltype(frame.stats.name)>(in.u64());
      FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_GET)
#undef FFSM_STATS_GET
      break;
    case FrameType::kCacheWarm: {
      frame.key = in.str();
      const std::uint32_t entries = in.u32();
      frame.entries.reserve(std::min<std::size_t>(entries, 4096));
      for (std::uint32_t i = 0; i < entries; ++i) {
        WarmCacheEntry entry;
        entry.key = in.partition();
        const std::uint32_t covers = in.u32();
        entry.cover.reserve(std::min<std::size_t>(covers, 4096));
        for (std::uint32_t j = 0; j < covers; ++j)
          entry.cover.push_back(in.partition());
        frame.entries.push_back(std::move(entry));
      }
      break;
    }
    case FrameType::kObs: {
      const std::uint32_t counters = in.u32();
      for (std::uint32_t i = 0; i < counters; ++i) {
        std::string name(in.str());
        const std::uint64_t value = in.u64();
        if (!frame.obs.counters.emplace(std::move(name), value).second)
          bad("obs: duplicate counter");
      }
      const std::uint32_t gauges = in.u32();
      for (std::uint32_t i = 0; i < gauges; ++i) {
        std::string name(in.str());
        const auto value = static_cast<std::int64_t>(in.u64());
        if (!frame.obs.gauges.emplace(std::move(name), value).second)
          bad("obs: duplicate gauge");
      }
      const std::uint32_t hists = in.u32();
      for (std::uint32_t i = 0; i < hists; ++i) {
        std::string name(in.str());
        obs::HistogramSnapshot h;
        h.sum = in.u64();
        const std::uint32_t nonzero = in.u32();
        if (nonzero > obs::kHistogramBuckets)
          bad("obs: histogram bucket count out of range");
        for (std::uint32_t j = 0; j < nonzero; ++j) {
          const std::uint8_t idx = in.u8();
          if (idx >= obs::kHistogramBuckets)
            bad("obs: histogram bucket index out of range");
          const std::uint64_t count = in.u64();
          if (count == 0 || h.buckets[idx] != 0)
            bad("obs: malformed histogram bucket");
          h.buckets[idx] = count;
        }
        if (!frame.obs.histograms.emplace(std::move(name), h).second)
          bad("obs: duplicate histogram");
      }
      const std::uint32_t spans = in.u32();
      frame.obs.spans.reserve(std::min<std::size_t>(spans, 4096));
      for (std::uint32_t i = 0; i < spans; ++i) {
        obs::TraceSpan s;
        s.name = in.str();
        s.source = in.str();
        s.shard = in.str();
        s.top = in.str();
        s.start_us = in.u64();
        s.duration_us = in.u64();
        s.id = in.u64();
        s.parent = in.u64();
        s.exchange = in.u64();
        s.instant = in.boolean();
        frame.obs.spans.push_back(std::move(s));
      }
      break;
    }
    case FrameType::kRequest: {
      frame.request.ticket = in.u64();
      frame.request.client = in.str();
      frame.request.request.f = in.u32();
      frame.request.request.policy = policy_from_wire(in.u8());
      const std::uint32_t originals = in.u32();
      frame.request.request.originals.reserve(
          std::min<std::size_t>(originals, 4096));
      for (std::uint32_t i = 0; i < originals; ++i)
        frame.request.request.originals.push_back(in.partition());
      break;
    }
    case FrameType::kResponse: {
      frame.response.ticket = in.u64();
      frame.response.client = in.str();
      const std::uint32_t partitions = in.u32();
      frame.response.result.partitions.reserve(
          std::min<std::size_t>(partitions, 4096));
      for (std::uint32_t i = 0; i < partitions; ++i)
        frame.response.result.partitions.push_back(in.partition());
      GenerateStats& s = frame.response.result.stats;
      s.machines_added = in.u32();
      s.descent_steps = in.u32();
      s.candidates_examined = in.u64();
      s.closures_evaluated = in.u64();
      s.cover_cache_hits = in.u64();
      s.graph_edges_examined = in.u64();
      s.dmin_before = in.u32();
      s.dmin_after = in.u32();
      break;
    }
    default:
      bad("unknown frame type byte");
  }
  if (!in.done()) bad("trailing payload bytes");
  return frame;
}

struct BinHeader {
  std::uint32_t payload_len = 0;
  FrameType type = FrameType::kOk;
  std::uint64_t exchange = 0;
};

BinHeader parse_binary_header(const char* data) {
  const auto* h = reinterpret_cast<const unsigned char*>(data);
  BinHeader out;
  for (int i = 0; i < 4; ++i)
    out.payload_len |= std::uint32_t{h[i]} << (8 * i);
  const std::uint8_t type_byte = h[4];
  if (h[5] != 0 || h[6] != 0 || h[7] != 0)
    bad("reserved header bytes must be zero");
  for (int i = 0; i < 8; ++i)
    out.exchange |= std::uint64_t{h[8 + i]} << (8 * i);
  if (type_byte < static_cast<std::uint8_t>(FrameType::kOk) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kObs))
    bad("unknown frame type byte");
  if (out.payload_len > kMaxBinPayload) bad("oversized frame");
  out.type = static_cast<FrameType>(type_byte);
  return out;
}

class BinaryWireCodec final : public WireCodec {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "bin"; }
  [[nodiscard]] bool multiplexed() const noexcept override { return true; }

  void encode(const Frame& frame, std::string& out) const override {
    const std::size_t header_at = out.size();
    out.append(kBinHeaderSize, '\0');
    encode_binary_payload(frame, out);
    const std::size_t payload = out.size() - header_at - kBinHeaderSize;
    if (payload > kMaxBinPayload) bad("oversized frame");
    std::string header;
    header.reserve(kBinHeaderSize);
    put_u32(header, static_cast<std::uint32_t>(payload));
    put_u8(header, static_cast<std::uint8_t>(frame.type));
    put_u8(header, 0);
    put_u16(header, 0);
    put_u64(header, frame.exchange);
    out.replace(header_at, kBinHeaderSize, header);
  }

  [[nodiscard]] Frame decode(std::string_view bytes) override {
    if (bytes.size() < kBinHeaderSize) bad("truncated header");
    const BinHeader header = parse_binary_header(bytes.data());
    if (bytes.size() - kBinHeaderSize < header.payload_len)
      bad("truncated payload");
    if (bytes.size() - kBinHeaderSize > header.payload_len)
      bad("trailing bytes after frame");
    BinReader in(bytes.data() + kBinHeaderSize, header.payload_len);
    Frame frame = decode_binary_payload(header.type, in);
    frame.exchange = header.exchange;
    return frame;
  }

  [[nodiscard]] Frame expect(net::LineChannel& channel,
                             const char* context) override {
    char header_bytes[kBinHeaderSize];
    if (!channel.read_exact(header_bytes, kBinHeaderSize))
      throw net::NetError(std::string("peer closed the stream during ") +
                          context);
    return read_payload(channel, header_bytes, nullptr);
  }

  [[nodiscard]] std::optional<Frame> read_command(
      net::LineChannel& channel,
      std::chrono::milliseconds frame_budget) override {
    char header_bytes[kBinHeaderSize];
    // First byte may block forever (idle parent); the rest of the frame
    // shares one bounded budget.
    if (!channel.read_exact(header_bytes, 1)) return std::nullopt;
    const net::Deadline deadline =
        std::chrono::steady_clock::now() + frame_budget;
    if (!channel.read_exact(header_bytes + 1, kBinHeaderSize - 1, deadline))
      throw net::NetError("peer closed the stream mid-header");
    return read_payload(channel, header_bytes, &deadline);
  }

 private:
  Frame read_payload(net::LineChannel& channel, const char* header_bytes,
                     const net::Deadline* deadline) {
    const BinHeader header = parse_binary_header(header_bytes);
    // Stage the payload in the arena: mark/restore means steady-state
    // reads allocate no per-frame buffers (strings and partitions copied
    // out of the staging block are the only allocations left).
    const WireArena::Mark mark = arena_.mark();
    char* payload = arena_.allocate(header.payload_len);
    try {
      const bool got =
          header.payload_len == 0 ||
          (deadline != nullptr
               ? channel.read_exact(payload, header.payload_len, *deadline)
               : channel.read_exact(payload, header.payload_len));
      if (!got)
        throw net::NetError("peer closed the stream mid-frame");
      BinReader in(payload, header.payload_len);
      Frame frame = decode_binary_payload(header.type, in);
      frame.exchange = header.exchange;
      arena_.restore(mark);
      return frame;
    } catch (...) {
      arena_.restore(mark);
      throw;
    }
  }

  WireArena arena_;
};

}  // namespace

std::unique_ptr<WireCodec> make_wire_codec(bool binary) {
  if (binary) return std::make_unique<BinaryWireCodec>();
  return std::make_unique<TextWireCodec>();
}

// ------------------------------------------------------------ negotiation

namespace {

// Protocol version carried by the hello line. Bumped whenever a negotiated
// payload changes shape in either encoding, so mixed-build peers fail at
// the handshake instead of mid-stream:
//   1 — initial negotiated wire (binary framing + exchange multiplexing).
//   2 — stats frame grew the speculation counters, config frame grew
//       speculation_lookahead (text directives and binary payload bytes).
//   3 — stats frame grew the cache admission counters, the cachewarm
//       frame (warm cache handoff) was added, and the lfu_admit cache
//       policy joined the config vocabulary.
//   4 — the obs frame (kObs: counters, latency histograms and trace spans)
//       joined both codecs.
//   5 — the serve frame grew the parent span id (cross-process trace
//       stitching) and the obs frame grew the gauge list (windowed
//       telemetry), in both encodings.
//   6 — the serve frame grew the warm flag and a serve reply may carry a
//       cachewarm snapshot before its done (it rides the serve round trip
//       when the top's hottest keys moved, instead of a query of its own);
//       cachewarm lost its count and is no longer a query.
//   7 — the speculation counters left the stats and response frames, and
//       speculation_lookahead and incremental left the config frame (text
//       directives and binary payload bytes).
constexpr std::string_view kHelloVersion = "7";

}  // namespace

std::string client_hello(WireMode mode) {
  FFSM_EXPECTS(mode != WireMode::kText);
  std::string line = "hello ";
  line += kHelloVersion;
  line += mode == WireMode::kBinary ? " bin\n" : " bin,text\n";
  return line;
}

bool parse_client_hello(std::string_view line, bool& offers_binary,
                        bool& offers_text) {
  std::istringstream words{std::string(line)};
  std::string directive;
  if (!(words >> directive) || directive != "hello") return false;
  std::string version;
  std::string offers;
  if (!(words >> version >> offers))
    bad("hello requires <version> <offers>");
  expect_line_end(words, "hello");
  if (version != kHelloVersion)
    bad("unsupported hello version '" + version + "'");
  offers_binary = false;
  offers_text = false;
  std::size_t start = 0;
  while (start <= offers.size()) {
    const std::size_t comma = offers.find(',', start);
    const std::string_view offer =
        std::string_view(offers).substr(start, comma == std::string::npos
                                                   ? std::string::npos
                                                   : comma - start);
    if (offer == "bin") offers_binary = true;
    if (offer == "text") offers_text = true;
    // Unknown offers are ignored: a future codec degrades to what both
    // sides share.
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

std::string worker_hello(bool binary) {
  std::string line = "hello ";
  line += kHelloVersion;
  line += binary ? " bin\n" : " text\n";
  return line;
}

std::unique_ptr<WireCodec> negotiate_wire(net::LineChannel& channel,
                                          WireMode mode) {
  if (mode == WireMode::kText) return make_wire_codec(false);
  channel.send(client_hello(mode));
  const std::string reply = channel.expect_line("wire negotiation");
  const std::string accept_bin = "hello " + std::string(kHelloVersion) +
                                 " bin";
  const std::string accept_text = "hello " + std::string(kHelloVersion) +
                                  " text";
  if (reply == accept_bin) return make_wire_codec(true);
  if (reply == accept_text && mode == WireMode::kAuto)
    return make_wire_codec(false);
  if (reply.rfind("error", 0) == 0) {
    // A worker that speaks negotiation but a different protocol version
    // answered `error ...unsupported hello version...` (and closed). Never
    // fall back to text here: the text payloads changed shape across
    // versions too, so a downgrade would fail mid-stream instead. (The
    // match must be this specific — a pre-negotiation text worker echoes
    // the unknown directive, so its reply also contains "hello".)
    if (reply.find("unsupported%20hello%20version") != std::string::npos)
      bad("peer speaks an incompatible wire protocol version: " + reply);
    // A worker that predates negotiation entirely answered `error unknown
    // command...` and keeps listening — the stream is still in sync.
    if (mode == WireMode::kBinary)
      bad("peer cannot speak the binary wire (--wire=bin): " + reply);
    return make_wire_codec(false);
  }
  bad("unexpected negotiation reply '" + reply + "'");
}

}  // namespace ffsm
