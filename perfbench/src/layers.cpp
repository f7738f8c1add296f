// Request material shared by the workloads, and the per-layer metrics
// measured from outside by timing each layer's public functions on the
// workload's own inputs.
#include <atomic>
#include <thread>

#include "fault/fault_graph.hpp"
#include "fsm/machine_catalog.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "partition/closure.hpp"
#include "partition/lower_cover.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ffsm;

Top make_top(std::string key, std::vector<Dfsm> machines) {
  Top top;
  top.key = std::move(key);
  top.product = reachable_cross_product(machines);
  top.machines = std::move(machines);
  for (std::uint32_t i = 0; i < top.product.machine_count(); ++i)
    top.originals.emplace_back(top.product.component_assignment(i));
  return top;
}

Top counter_pair_top(std::uint32_t k) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  return make_top("counters" + std::to_string(k), std::move(machines));
}

std::vector<RequestKind> all_kinds(std::size_t tops) {
  std::vector<RequestKind> kinds;
  for (std::size_t t = 0; t < tops; ++t)
    for (std::uint32_t f = 1; f <= 3; ++f)
      for (const DescentPolicy policy :
           {DescentPolicy::kFewestBlocks, DescentPolicy::kMostBlocks}) {
        RequestKind kind;
        kind.top = t;
        kind.f = f;
        kind.policy = policy;
        kinds.push_back(std::move(kind));
      }
  return kinds;
}

void compute_oracles(const std::vector<Top>& tops,
                     std::vector<RequestKind>& kinds) {
  for (RequestKind& kind : kinds) {
    GenerateOptions options;
    options.f = kind.f;
    options.policy = kind.policy;
    options.parallel = false;
    const Top& top = tops[kind.top];
    kind.oracle = generate_fusion(top.product.top, top.originals, options);
  }
}

KindOrder::KindOrder(std::size_t kinds, std::uint64_t seed) : rng_(seed) {
  for (std::size_t i = 0; i < kinds; ++i) cycle_.push_back(i);
  position_ = cycle_.size();
}

std::size_t KindOrder::next() {
  if (position_ == cycle_.size()) {
    for (std::size_t i = cycle_.size(); i > 1; --i)
      std::swap(cycle_[i - 1], cycle_[rng_.below(i)]);
    position_ = 0;
  }
  return cycle_[position_++];
}

WireSample wire_sample(const std::vector<Top>& tops,
                       const std::vector<RequestKind>& kinds) {
  WireSample sample;
  std::uint64_t ticket = 1;
  for (const RequestKind& kind : kinds) {
    Frame request;
    request.type = FrameType::kRequest;
    request.request = {ticket, "client", kind.request(tops[kind.top])};
    sample.requests.push_back(std::move(request));
    Frame response;
    response.type = FrameType::kResponse;
    response.response = {ticket, "client", kind.oracle};
    sample.responses.push_back(std::move(response));
    ++ticket;
  }
  return sample;
}

std::size_t pool_threads() { return std::max<std::size_t>(1, nproc() - 1); }

namespace {

/// Encode/decode throughput of `frames` through the binary codec, MB/s, and
/// the mean frame size in bytes.
struct CodecRates {
  double encode_mbps = 0.0;
  double decode_mbps = 0.0;
  double mean_bytes = 0.0;
};

CodecRates codec_rates(const std::vector<Frame>& frames, Tracer& tracer) {
  CodecRates rates;
  if (frames.empty()) return rates;
  const auto codec = make_wire_codec(true);
  std::vector<std::string> encoded;
  double bytes = 0.0;
  for (const Frame& frame : frames) {
    encoded.push_back(codec->encode(frame));
    bytes += static_cast<double>(encoded.back().size());
  }
  rates.mean_bytes = bytes / static_cast<double>(frames.size());
  // Repeat until each direction has run for at least ~50 ms.
  const auto rate = [&](const auto& pass) {
    std::vector<double> mbps;
    for (int rep = 0; rep < 5; ++rep) {
      std::size_t rounds = 0;
      const auto start = Clock::now();
      do {
        pass();
        ++rounds;
      } while (ms_since(start) < 10.0);
      mbps.push_back(bytes * static_cast<double>(rounds) / 1e6 /
                     (ms_since(start) / 1e3));
    }
    return median(std::move(mbps));
  };
  std::string out;
  rates.encode_mbps = rate([&] {
    const Tracer::Span span(tracer, "sim.messages", "encode");
    for (const Frame& frame : frames) {
      out.clear();
      codec->encode(frame, out);
    }
  });
  std::size_t checksum = 0;
  rates.decode_mbps = rate([&] {
    const Tracer::Span span(tracer, "sim.messages", "decode");
    for (const std::string& bytes_in : encoded)
      checksum += codec->decode(bytes_in).exchange;
  });
  if (checksum == 1) std::printf(" ");  // keep the decodes observable
  return rates;
}

/// Median loopback TCP round trip of one byte through net::Listener and
/// net::Socket, microseconds.
double loopback_rtt_us(Tracer& tracer) {
  net::Listener listener(0);
  std::thread echo([&listener] {
    try {
      net::Socket peer = listener.accept();
      char byte = 0;
      while (peer.recv_some(&byte, 1) == 1) peer.send_all({&byte, 1});
    } catch (const std::exception&) {
      // The client closing mid-echo ends the loop; nothing to report.
    }
  });
  std::vector<double> samples;
  {
    const Tracer::Span span(tracer, "net", "ping_pong");
    net::Socket client = net::Socket::connect("127.0.0.1", listener.port());
    char byte = 'x';
    for (int i = 0; i < 2000; ++i) {
      const auto start = Clock::now();
      client.send_all({&byte, 1});
      if (client.recv_some(&byte, 1) != 1) break;
      if (i >= 100) samples.push_back(ms_since(start) * 1e3);  // warm-up
    }
  }
  echo.join();
  listener.close();
  return median(std::move(samples));
}

}  // namespace

void measure_layers(const std::vector<Top>& tops, ThreadPool& pool,
                    const WireSample& wire, Tracer& tracer, Report& report) {
  std::vector<double> product_ms, cover_ms, closure_ns, find_ns, insert_ns,
      graph_us;
  for (const Top& top : tops) {
    const Dfsm& machine = top.product.top;
    const std::uint32_t n = machine.size();
    product_ms.push_back(median_ms(5, [&] {
      const Tracer::Span span(tracer, "fsm", "reachable_cross_product");
      const CrossProduct product = reachable_cross_product(top.machines);
      if (product.top.size() != n) throw BenchFailure("cross product size");
    }));

    const Partition identity = Partition::identity(n);
    LowerCoverOptions cover_options;
    cover_options.pool = &pool;
    std::vector<Partition> cover;
    cover_ms.push_back(median_ms(3, [&] {
      const Tracer::Span span(tracer, "partition", "lower_cover");
      cover = lower_cover(machine, identity, cover_options);
    }));

    // Merge closure of the identity with one seeded pair of states.
    {
      MergeClosureEngine engine(machine, identity);
      Xoshiro256 rng(n);
      constexpr int kPairs = 4000;
      std::size_t checksum = 0;
      const Tracer::Span span(tracer, "partition", "MergeClosureEngine");
      const auto start = Clock::now();
      for (int i = 0; i < kPairs; ++i) {
        const auto a = static_cast<State>(rng.below(n));
        const auto b = static_cast<State>(rng.below(n));
        checksum += engine.evaluate(a, b == a ? (a + 1) % n : b);
      }
      closure_ns.push_back(ms_since(start) * 1e6 / kPairs);
      if (checksum == 1) std::printf(" ");
    }

    // Cache insert/find with the top's cover elements as keys.
    if (!cover.empty()) {
      const auto value =
          std::make_shared<const LowerCoverCache::Cover>(cover);
      std::vector<double> inserts, finds;
      for (int rep = 0; rep < 5; ++rep) {
        LowerCoverCache cache;
        const Tracer::Span span(tracer, "partition", "LowerCoverCache");
        auto start = Clock::now();
        for (const Partition& key : cover) (void)cache.insert(key, value);
        inserts.push_back(ms_since(start) * 1e6 /
                          static_cast<double>(cover.size()));
        std::size_t hits = 0;
        start = Clock::now();
        for (const Partition& key : cover) hits += cache.find(key) != nullptr;
        finds.push_back(ms_since(start) * 1e6 /
                        static_cast<double>(cover.size()));
        if (hits != cover.size()) throw BenchFailure("cache lost an entry");
      }
      insert_ns.push_back(median(inserts));
      find_ns.push_back(median(finds));
    }

    FaultGraphOptions graph_options;
    graph_options.pool = &pool;
    graph_us.push_back(1e3 * median_ms(5, [&] {
                         const Tracer::Span span(tracer, "fault",
                                                 "FaultGraph::build");
                         const FaultGraph graph =
                             FaultGraph::build(n, top.originals, graph_options);
                         if (graph.node_count() != n)
                           throw BenchFailure("fault graph size");
                       }));
  }
  report.set("fsm.cross_product_ms", mean(product_ms), "ms");
  report.set("partition.lower_cover_ms", mean(cover_ms), "ms");
  report.set("partition.closure_ns_per_pair", mean(closure_ns), "ns");
  report.set("partition.cache_find_ns", mean(find_ns), "ns");
  report.set("partition.cache_insert_ns", mean(insert_ns), "ns");
  report.set("fault.graph_build_us", mean(graph_us), "us");

  // parallel_for over one empty task per CPU on the workload's pool.
  ParallelOptions fanout;
  fanout.pool = &pool;
  fanout.serial_threshold = 1;
  fanout.chunks_per_thread = 1;
  std::atomic<std::size_t> ran{0};
  std::vector<double> fanout_us;
  Tracer::Span fanout_span(tracer, "util", "parallel_for");
  for (int i = 0; i < 2000; ++i) {
    const auto start = Clock::now();
    parallel_for(0, nproc(),
                 [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); },
                 fanout);
    fanout_us.push_back(ms_since(start) * 1e3);
  }
  report.set("util.pool_fanout_us", median(fanout_us), "us");
  fanout_span.finish();

  const CodecRates requests = codec_rates(wire.requests, tracer);
  const CodecRates responses = codec_rates(wire.responses, tracer);
  report.set("wire.encode_MBps",
             (requests.encode_mbps + responses.encode_mbps) / 2.0, "MB/s");
  report.set("wire.decode_MBps",
             (requests.decode_mbps + responses.decode_mbps) / 2.0, "MB/s");
  report.set("wire.request_bytes", requests.mean_bytes, "bytes");
  report.set("wire.response_bytes", responses.mean_bytes, "bytes");

  report.set("net.loopback_rtt_us", loopback_rtt_us(tracer), "us");
}

}  // namespace perfbench
