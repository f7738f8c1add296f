// The obs -> Prometheus exposition mapping: dotted series names sanitize
// into legal metric names, the dynamic-suffix families (per-endpoint
// health probes, per-top pending gauges) split their suffix into a label
// instead of exploding the metric namespace, and render_exposition emits
// well-formed typed families. The end-to-end property: every series a
// real cluster run emits — including per-top series for hostile top keys
// — maps onto a legal exposition name.
#include "obs/exposition.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "test_support.hpp"

namespace ffsm::obs {
namespace {

TEST(ExpositionNames, LegalityMatchesTheFormatGrammar) {
  // [a-zA-Z_:][a-zA-Z0-9_:]*
  EXPECT_TRUE(legal_exposition_name("cluster_drain"));
  EXPECT_TRUE(legal_exposition_name("_private"));
  EXPECT_TRUE(legal_exposition_name("ns:metric"));
  EXPECT_TRUE(legal_exposition_name("a1"));
  EXPECT_FALSE(legal_exposition_name(""));
  EXPECT_FALSE(legal_exposition_name("cluster.drain"));  // dots illegal
  EXPECT_FALSE(legal_exposition_name("1st"));            // leading digit
  EXPECT_FALSE(legal_exposition_name("two words"));
  EXPECT_FALSE(legal_exposition_name("dash-ed"));
}

TEST(ExpositionNames, MappingSanitizesEveryIllegalByte) {
  EXPECT_EQ(map_exposition_series("cluster.drain").metric, "cluster_drain");
  EXPECT_EQ(map_exposition_series("wire.roundtrip").metric,
            "wire_roundtrip");
  EXPECT_EQ(map_exposition_series("8ball").metric, "_8ball");
  EXPECT_EQ(map_exposition_series("two words").metric, "two_words");
  EXPECT_EQ(map_exposition_series("").metric, "_");
  // Whatever comes in, the result must satisfy the grammar.
  for (const char* name : {"a.b.c", "-", "9", "x y z", "\n", "ok"}) {
    const ExpositionSeries series = map_exposition_series(name);
    EXPECT_TRUE(legal_exposition_name(series.metric)) << name;
    EXPECT_TRUE(series.label_key.empty()) << name;
  }
}

TEST(ExpositionNames, DynamicSuffixFamiliesSplitIntoLabels) {
  // The endpoint (dots, a colon) must land in the label, not the name —
  // a per-endpoint metric *name* would defeat aggregation.
  const ExpositionSeries probe =
      map_exposition_series("health.probe.10.0.0.7:7001");
  EXPECT_EQ(probe.metric, "health_probe");
  EXPECT_EQ(probe.label_key, "endpoint");
  EXPECT_EQ(probe.label_value, "10.0.0.7:7001");

  const ExpositionSeries pending =
      map_exposition_series("cluster.pending.top8");
  EXPECT_EQ(pending.metric, "cluster_pending");
  EXPECT_EQ(pending.label_key, "top");
  EXPECT_EQ(pending.label_value, "top8");

  // A family prefix with an *empty* suffix is not a family member; it
  // sanitizes like any other name instead of emitting an empty label.
  EXPECT_EQ(map_exposition_series("health.probe.").metric, "health_probe_");
  EXPECT_TRUE(map_exposition_series("health.probe.").label_key.empty());
}

TEST(Exposition, RendersTypedFamiliesWithCumulativeBuckets) {
  ObsSnapshot snapshot;
  snapshot.counters["cluster.drain"] = 12;
  snapshot.gauges["cluster.queue_depth"] = -3;  // gauges are signed
  HistogramSnapshot h;
  h.sum = 100;
  h.buckets[1] = 2;  // values in [1, 1]
  h.buckets[3] = 1;  // values in [4, 7]
  snapshot.histograms["gen.request"] = h;
  TraceSpan span;
  span.name = "cluster.serve_top";
  snapshot.spans.push_back(span);

  const std::string body = render_exposition(snapshot);
  EXPECT_NE(body.find("# TYPE cluster_drain counter\n"), std::string::npos);
  EXPECT_NE(body.find("cluster_drain 12\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE cluster_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("cluster_queue_depth -3\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE gen_request histogram\n"), std::string::npos);
  // Buckets are cumulative and close with +Inf; sum/count follow.
  EXPECT_NE(body.find("gen_request_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("gen_request_bucket{le=\"7\"} 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("gen_request_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("gen_request_sum 100\n"), std::string::npos);
  EXPECT_NE(body.find("gen_request_count 3\n"), std::string::npos);
  // Spans are trace data, not scrapeable series.
  EXPECT_EQ(body.find("serve_top"), std::string::npos);

  // Label-split family members share one # TYPE block.
  ObsSnapshot probes;
  probes.counters["health.probe.10.0.0.7:7001"] = 1;
  probes.counters["health.probe.10.0.0.8:7001"] = 2;
  const std::string probe_body = render_exposition(probes);
  std::size_t type_blocks = 0;
  for (std::size_t at = probe_body.find("# TYPE health_probe counter");
       at != std::string::npos;
       at = probe_body.find("# TYPE health_probe counter", at + 1))
    ++type_blocks;
  EXPECT_EQ(type_blocks, 1u);
  EXPECT_NE(
      probe_body.find("health_probe{endpoint=\"10.0.0.7:7001\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      probe_body.find("health_probe{endpoint=\"10.0.0.8:7001\"} 2\n"),
      std::string::npos);
}

TEST(Exposition, EveryClusterEmittedSeriesMapsToALegalName) {
  // A real drain, with a top key chosen to be as hostile to the
  // exposition grammar as a key can get — the per-top pending gauge
  // embeds it in a series name, and the mapping must still produce a
  // legal metric (the key lands in a label).
  const CrossProduct product = testing::counter_pair_product(4);
  FusionClusterOptions options;
  options.shards = 2;
  options.parallel = false;
  FusionCluster cluster(options);
  cluster.add_top("8 weird:top.key{}", product.top);
  cluster.add_top("plain", product.top);
  const std::vector<Partition> originals =
      testing::component_partitions(product);
  cluster.submit("8 weird:top.key{}", "client", {originals, 1});
  cluster.submit("plain", "client", {originals, 1});
  (void)cluster.drain();
  cluster.poll_telemetry();

  const auto expect_legal = [](const std::string& name) {
    const ExpositionSeries series = map_exposition_series(name);
    EXPECT_TRUE(legal_exposition_name(series.metric))
        << "series '" << name << "' mapped to illegal metric '"
        << series.metric << "'";
  };
  const ObsSnapshot cumulative = cluster.obs_snapshot();
  EXPECT_FALSE(cumulative.histograms.empty());  // cluster.drain at least
  EXPECT_FALSE(cumulative.gauges.empty());      // per-top pending gauges
  for (const auto& [name, value] : cumulative.counters) expect_legal(name);
  for (const auto& [name, value] : cumulative.gauges) expect_legal(name);
  for (const auto& [name, value] : cumulative.histograms)
    expect_legal(name);
  // The windowed view exposes the same namespace.
  const ObsSnapshot windowed = cluster.obs_windows().merged();
  for (const auto& [name, value] : windowed.counters) expect_legal(name);
  for (const auto& [name, value] : windowed.gauges) expect_legal(name);

  // And the rendered scrape body: every sample line starts with a legal
  // metric name (up to the label block or the value).
  std::istringstream lines(render_exposition(cumulative));
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_TRUE(legal_exposition_name(line.substr(0, name_end))) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

}  // namespace
}  // namespace ffsm::obs
