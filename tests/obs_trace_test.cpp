// Trace recorder and export: the bounded ring must keep exactly the most
// recent window (oldest first) across wraparound, ScopedSpan/instant
// recording must cost nothing when disabled, snapshot merging must tag
// sources exactly once, and the Chrome trace-event export must emit valid
// JSON with one process lane per source.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace ffsm::obs {
namespace {

TraceSpan named(const std::string& name, std::uint64_t start = 0) {
  TraceSpan span;
  span.name = name;
  span.start_us = start;
  span.duration_us = 1;
  return span;
}

TEST(RingTraceRecorder, KeepsTheMostRecentWindowAcrossWraparound) {
  RingTraceRecorder ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 1; i <= 20; ++i)
    ring.record(named(std::string("s").append(std::to_string(i))));
  EXPECT_EQ(ring.recorded(), 20u);

  const std::vector<TraceSpan> spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // Exactly spans 13..20, oldest first — the ring dropped 1..12.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].name,
              std::string("s").append(std::to_string(13 + i)))
        << i;
  // Recorder-assigned ids are unique and nonzero.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_NE(spans[i].id, 0u);
    for (std::size_t j = i + 1; j < spans.size(); ++j)
      EXPECT_NE(spans[i].id, spans[j].id);
  }
}

TEST(RingTraceRecorder, PartialFillReturnsInRecordOrder) {
  RingTraceRecorder ring(8);
  ring.record(named("a"));
  ring.record(named("b"));
  const std::vector<TraceSpan> spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[1].name, "b");
}

TEST(RingTraceRecorder, ConcurrentRecordsAllLand) {
  RingTraceRecorder ring(100000);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&ring] {
      for (int i = 0; i < kPerThread; ++i) ring.record(named("x"));
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ring.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(ring.snapshot().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(ScopedSpanTest, RecordsOneSampleAndOneSpanWithParentage) {
  Obs obs;
  std::uint64_t parent_id = 0;
  {
    ScopedSpan parent(&obs, "outer", {.top = "topA"});
    parent_id = parent.id();
    EXPECT_NE(parent_id, 0u);
    ScopedSpan child(&obs, "inner", {.parent = parent.id()});
    EXPECT_NE(child.id(), parent.id());
  }
  const ObsSnapshot snap = obs.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  // The child finishes (and records) first; both carry their tags.
  EXPECT_EQ(snap.spans[0].name, "inner");
  EXPECT_EQ(snap.spans[0].parent, parent_id);
  EXPECT_EQ(snap.spans[1].name, "outer");
  EXPECT_EQ(snap.spans[1].top, "topA");
  EXPECT_EQ(snap.histograms.at("outer").count(), 1u);
  EXPECT_EQ(snap.histograms.at("inner").count(), 1u);
}

TEST(ScopedSpanTest, DisabledObsRecordsNothingAndIdsAreZero) {
  ObsConfig config;
  config.enabled = false;
  Obs obs(config);
  EXPECT_FALSE(obs.enabled());
  {
    ScopedSpan span(&obs, "never");
    EXPECT_EQ(span.id(), 0u);
    ScopedSpan null_span(nullptr, "never");  // null Obs is equally inert
    EXPECT_EQ(null_span.id(), 0u);
  }
  obs.record("hist", 7);
  obs.count("ctr");
  obs.instant("evt");
  obs.span_since("late", 0);
  EXPECT_TRUE(obs.snapshot().empty());
}

TEST(ObsTest, InstantEventsAndLateSpans) {
  Obs obs;
  obs.instant("replica.failover", {.shard = "127.0.0.1:7001"});
  const std::uint64_t start = obs.now_us();
  obs.span_since("wire.roundtrip", start, {.exchange = 42});
  const ObsSnapshot snap = obs.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_TRUE(snap.spans[0].instant);
  EXPECT_EQ(snap.spans[0].shard, "127.0.0.1:7001");
  EXPECT_FALSE(snap.spans[1].instant);
  EXPECT_EQ(snap.spans[1].exchange, 42u);
  EXPECT_EQ(snap.spans[1].start_us, start);
  // Instants count (how many failovers) but do not time anything.
  EXPECT_EQ(snap.counters.at("replica.failover"), 1u);
  EXPECT_EQ(snap.histograms.at("wire.roundtrip").count(), 1u);
}

TEST(ObsSnapshotTest, MergeTagsSourcesExactlyOnce) {
  ObsSnapshot cluster;
  cluster.counters["requests"] = 5;
  TraceSpan local = named("cluster.drain");
  cluster.spans.push_back(local);

  ObsSnapshot worker;
  worker.counters["requests"] = 7;
  worker.histograms["gen.request"].buckets[3] = 2;
  worker.histograms["gen.request"].sum = 12;
  worker.spans.push_back(named("gen.request"));

  cluster.merge(worker, "shard0");
  EXPECT_EQ(cluster.counters.at("requests"), 12u);
  EXPECT_EQ(cluster.histograms.at("gen.request").count(), 2u);
  ASSERT_EQ(cluster.spans.size(), 2u);
  EXPECT_EQ(cluster.spans[0].source, "");  // the local span stays local
  EXPECT_EQ(cluster.spans[1].source, "shard0");

  // A second merge hop (e.g. a saved snapshot folded upstream again) must
  // NOT re-tag spans that already know their source.
  ObsSnapshot upstream;
  upstream.merge(cluster, "shard9");
  ASSERT_EQ(upstream.spans.size(), 2u);
  EXPECT_EQ(upstream.spans[0].source, "shard9");  // was untagged
  EXPECT_EQ(upstream.spans[1].source, "shard0");  // keeps its origin
}

TEST(ChromeTrace, ExportIsValidJsonWithOneProcessLanePerSource) {
  std::vector<TraceSpan> spans;
  TraceSpan drain = named("cluster.drain", 10);
  spans.push_back(drain);
  TraceSpan gen = named("gen.request", 20);
  gen.source = "shard1";
  gen.top = "top\"quoted\"";  // must be escaped, not break the JSON
  spans.push_back(gen);
  TraceSpan failover = named("replica.failover", 30);
  failover.instant = true;
  spans.push_back(failover);

  std::ostringstream out;
  write_chrome_trace(out, spans);
  const std::string json = out.str();

  // Shape: one traceEvents array, balanced braces/brackets outside
  // strings (escaped quotes inside them must not fool the scanner).
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0) << json;
  EXPECT_FALSE(in_string);

  // Content: a complete-event, an instant, the escaped top tag, and
  // process lanes named for the cluster and the merged shard.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("top\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"cluster\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"shard1\"}"), std::string::npos);
}

}  // namespace
}  // namespace ffsm::obs
