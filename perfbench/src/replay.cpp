// Workloads `replay_batch` and `replay_stream`: offline analysis of a pcap,
// with no simulator involved. Set-up simulates the lab from the seed and
// encodes its frames into an in-memory pcap; each sample then analyses
// that pcap on one of the two stage-3 paths:
//
//   batch  (what examples/analyze_pcap does): decode_pcap ->
//          decode_frame_view -> LocalFilter -> CaptureStore/FlowTable ->
//          the five stage-3 analyses over the finished capture;
//   stream: decode_pcap -> decode_frame_view -> LocalFilter ->
//          stream::StreamAnalyzer::on_packet, then finish().
//
// The two paths use the same analysis layer in opposite ways
// (materialize-then-scan versus fold-at-arrival), so a change that speeds
// one at the other's cost shows as one workload moving against the other.
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/exposure.hpp"
#include "analysis/overview.hpp"
#include "capture/capture_store.hpp"
#include "capture/filter.hpp"
#include "capture/flow.hpp"
#include "classify/crossval.hpp"
#include "classify/response.hpp"
#include "core/provenance.hpp"
#include "netcore/pcap.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "stream/stream.hpp"
#include "testbed/lab.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace roomnet;

/// Capture size: 15 min idle + 25 interactions of the 93-device lab, about
/// 26k frames in a 5 MB pcap. The process then peaks at ~28 MB resident,
/// which a shared host's last-level cache mostly holds. A 1 h capture (74k
/// frames, ~85 MB peak) makes every pass stream from memory, and its time
/// follow the other tenants' memory traffic.
constexpr double kIdleHours = 0.25;
constexpr int kInteractions = 25;
constexpr int kSetups = 3;

struct Capture {
  Bytes pcap;
  std::size_t frames = 0;
  std::set<MacAddress> population;
};

Capture generate_capture(std::uint64_t seed) {
  Lab lab(LabConfig{.seed = seed});
  lab.start_all();
  lab.run_idle(SimTime::from_hours(kIdleHours));
  lab.run_interactions(kInteractions);
  Capture capture;
  capture.frames = lab.capture().size();
  capture.pcap = encode_pcap(lab.capture().records());
  for (const auto& device : lab.devices()) capture.population.insert(device->mac());
  return capture;
}

struct Pass {
  std::string classify_hash;  // hash_classify_stage over the stage-3 results
  std::size_t frames = 0;
  std::size_t undecodable = 0;
  std::size_t local_packets = 0;
  std::size_t flows = 0;
  std::size_t peak_flows = 0;  // stream path only
};

std::vector<PcapRecord> read_pcap(const Capture& capture, Tracer& spans) {
  ScopedSpan span(spans, "netcore.pcap_decode");
  auto records = decode_pcap(BytesView(capture.pcap));
  if (!records) throw std::runtime_error("generated pcap does not decode");
  return std::move(*records);
}

/// Times `call` into `timer` on traced passes only, so untraced passes run
/// the same code with no clock reads.
template <bool kTraced, typename F>
decltype(auto) timed(CallTimer& timer, F&& call) {
  if constexpr (kTraced) return timer(std::forward<F>(call));
  else return call();
}

template <bool kTraced>
Pass batch_pass(const Capture& capture, Tracer& spans) {
  Pass pass;
  const std::vector<PcapRecord> records = read_pcap(capture, spans);
  pass.frames = records.size();
  const LocalFilter filter;
  CaptureStore store;
  FlowTable flows;
  {
    ScopedSpan span(spans, "replay.ingest_loop");
    CallTimer decode, ingest;
    for (const PcapRecord& record : records) {
      const BytesView raw(record.frame);
      const std::optional<PacketView> view =
          timed<kTraced>(decode, [&] { return decode_frame_view(raw); });
      if (!view) {
        ++pass.undecodable;
        continue;
      }
      timed<kTraced>(ingest, [&] {
        if (!filter.matches(*view)) return;
        flows.add(record.timestamp, store.append(record.timestamp, *view, raw));
      });
    }
    decode.commit(spans, "netcore.frame_decode");
    ingest.commit(spans, "capture.ingest");
  }
  // hash_classify_stage reads only the stage-3 fields filled here.
  PipelineResults results;
  {
    ScopedSpan span(spans, "analysis.usage");
    results.usage = protocol_usage(store);
  }
  {
    ScopedSpan span(spans, "analysis.graph");
    results.graph = build_comm_graph(store, capture.population);
  }
  {
    ScopedSpan span(spans, "analysis.exposure");
    results.exposure = analyze_exposure(store);
  }
  {
    ScopedSpan span(spans, "classify.crossval");
    results.crossval = cross_validate(flows.flows(), store);
  }
  {
    ScopedSpan span(spans, "classify.responses");
    results.responses = correlate_responses(store);
  }
  results.local_packets = pass.local_packets = store.size();
  results.flows = pass.flows = flows.flows().size();
  pass.classify_hash = hash_classify_stage(results);
  return pass;
}

template <bool kTraced>
Pass stream_pass(const Capture& capture, Tracer& spans) {
  Pass pass;
  const std::vector<PcapRecord> records = read_pcap(capture, spans);
  pass.frames = records.size();
  const LocalFilter filter;
  stream::StreamAnalyzer analyzer(stream::StreamConfig{}, capture.population);
  {
    ScopedSpan span(spans, "replay.fold_loop");
    CallTimer decode, fold;
    for (const PcapRecord& record : records) {
      const std::optional<PacketView> view =
          timed<kTraced>(decode, [&] { return decode_frame_view(BytesView(record.frame)); });
      if (!view) {
        ++pass.undecodable;
        continue;
      }
      timed<kTraced>(fold, [&] {
        if (filter.matches(*view)) analyzer.on_packet(record.timestamp, *view);
      });
    }
    decode.commit(spans, "netcore.frame_decode");
    fold.commit(spans, "stream.fold");
  }
  stream::StreamResults folded;
  {
    ScopedSpan span(spans, "stream.finish");
    folded = analyzer.finish();
  }
  PipelineResults results;
  results.usage = std::move(folded.usage);
  results.graph = std::move(folded.graph);
  results.exposure = std::move(folded.exposure);
  results.crossval = std::move(folded.crossval);
  results.responses = std::move(folded.responses);
  results.local_packets = pass.local_packets = analyzer.packets();
  results.flows = pass.flows = folded.flows;
  pass.peak_flows = folded.cache.peak_flows;
  pass.classify_hash = hash_classify_stage(results);
  return pass;
}

Pass run_pass(ReplayPath path, bool traced, const Capture& capture, Tracer& spans) {
  if (path == ReplayPath::kBatch)
    return traced ? batch_pass<true>(capture, spans) : batch_pass<false>(capture, spans);
  return traced ? stream_pass<true>(capture, spans) : stream_pass<false>(capture, spans);
}

/// decode_dns / decode_ssdp cost per message over the capture's own mDNS
/// (UDP 5353) and SSDP (UDP 1900) payloads: the decode every simulated
/// responder runs on every multicast it hears.
struct ProtoCost {
  double dns_ns = 0;
  double ssdp_ns = 0;
  std::size_t dns_messages = 0;
  std::size_t ssdp_messages = 0;
};

template <typename Decode>
double ns_per_message(const std::vector<BytesView>& payloads, Decode&& decode) {
  if (payloads.empty()) return 0;
  constexpr int kRounds = 5;
  std::vector<double> rounds;
  std::size_t decoded = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = Clock::now();
    for (const BytesView payload : payloads) decoded += decode(payload) ? 1 : 0;
    rounds.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                     static_cast<double>(payloads.size()));
  }
  if (decoded == 0) throw std::runtime_error("no discovery payload decodes");
  return median(rounds);
}

ProtoCost proto_cost(const Capture& capture, Tracer& spans) {
  const std::vector<PcapRecord> records = read_pcap(capture, spans);
  std::vector<BytesView> dns, ssdp;
  for (const PcapRecord& record : records) {
    const auto view = decode_frame_view(BytesView(record.frame));
    if (!view || !view->udp) continue;
    const auto src = value(view->udp->src_port);
    const auto dst = value(view->udp->dst_port);
    if (src == 5353 || dst == 5353) dns.push_back(view->udp->payload);
    if (src == 1900 || dst == 1900) ssdp.push_back(view->udp->payload);
  }
  ProtoCost cost;
  cost.dns_messages = dns.size();
  cost.ssdp_messages = ssdp.size();
  {
    ScopedSpan span(spans, "proto.dns_decode");
    cost.dns_ns = ns_per_message(dns, [](BytesView p) { return decode_dns(p).has_value(); });
  }
  {
    ScopedSpan span(spans, "proto.ssdp_decode");
    cost.ssdp_ns = ns_per_message(ssdp, [](BytesView p) { return decode_ssdp(p).has_value(); });
  }
  return cost;
}

}  // namespace

Outcome run_replay(const Options& options, Tracer& tracer, ReplayPath path) {
  const bool batch = path == ReplayPath::kBatch;
  const char* name = batch ? "replay_batch" : "replay_stream";
  Outcome out;
  Tracer untraced(false);
  CounterLedger ledger(name);

  // Set-up: generate the capture (repeated, so setup_s is a median; every
  // repetition must encode the same frames).
  std::optional<SpeedProbe> setup_probe;
  setup_probe.emplace(out.setup_probe_us, /*rotate=*/false);
  Capture capture;
  CounterLedger setups(name);
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    capture = generate_capture(options.seed);
    out.setup_s.push_back(seconds_since(t0));
    attempt(out, name, -1 - i, [&] {
      return setups.record("setup" + std::to_string(i),
                           {{"replay.frames", capture.frames},
                            {"replay.pcap_bytes", capture.pcap.size()}});
    });
  }

  // Warm-up: one pass on each path. Both stage-3 results must hash equal
  // (batch/stream parity), and every generated frame must decode.
  Pass reference;
  const auto warm0 = Clock::now();
  attempt(out, name, -1 - kSetups, [&] {
    const Pass b = batch_pass<false>(capture, untraced);
    const Pass s = stream_pass<false>(capture, untraced);
    std::printf("parity workload=%s batch=%s stream=%s frames=%zu undecodable=%zu\n",
                name, b.classify_hash.c_str(), s.classify_hash.c_str(), b.frames,
                b.undecodable + s.undecodable);
    reference = batch ? b : s;
    return b.classify_hash == s.classify_hash && b.local_packets == s.local_packets &&
           b.frames == capture.frames && s.frames == capture.frames &&
           b.undecodable == 0 && s.undecodable == 0 && b.local_packets > 0;
  });
  out.warmup_s = seconds_since(warm0);
  setup_probe.reset();

  // Measurement: pass after pass over the read-only pcap on this thread,
  // walked round the CPUs (SpeedProbe) so a pass runs at the CPUs' average
  // speed, not at that of whichever CPU it landed on. One thread: the
  // passes are memory-heavy, and several at once would measure their
  // contention for the host's memory more than the analysis. The peak
  // resident set covers the whole window.
  std::vector<int> traced_runs;
  std::vector<double> peak_flows;
  {
    RssSampler rss;
    const SpeedProbe probe(out.probe_us, /*rotate=*/true);
    sample_for(options, 1, [&](int index, bool traced) {
      attempt(out, name, index, [&] {
        Tracer& spans = traced ? tracer : untraced;
        spans.set_run(index);
        const auto t0 = Clock::now();
        Pass pass;
        {
          ScopedSpan span(spans, batch ? "replay.batch_pass" : "replay.stream_pass");
          pass = run_pass(path, traced, capture, spans);
        }
        const double wall = seconds_since(t0);
        const bool ok = ledger.record(std::to_string(index),
                                      {{"replay.frames", pass.frames},
                                       {"replay.local_packets", pass.local_packets},
                                       {"replay.flows", pass.flows}});
        const double pkts = static_cast<double>(pass.local_packets) / wall;
        print_sample(name, std::to_string(index), traced, wall, pkts);
        if (traced) {
          out.traced_wall_s.push_back(wall);
          traced_runs.push_back(index);
          peak_flows.push_back(static_cast<double>(pass.peak_flows));
        } else {
          out.wall_s.push_back(wall);
          out.pkts_per_s.push_back(pkts);
        }
        return ok && pass.undecodable == 0 &&
               pass.classify_hash == reference.classify_hash;
      });
    });
    out.peak_rss_mb.push_back(rss.peak_mb());
  }
  std::printf("window workload=%s peak_rss_mb=%.1f\n", name, out.peak_rss_mb.back());
  out.headlines.push_back(
      {batch ? "batch_pkts_per_s" : "stream_pkts_per_s", "1/s", out.pkts_per_s});
  if (!options.trace) return out;

  auto& L = out.layers;
  for (const auto& [layer, seconds] : median_self_seconds(tracer, traced_runs))
    L[layer + "_s"] = seconds;
  L["capture.flows"] = static_cast<double>(reference.flows);
  if (!batch) L["stream.peak_flows"] = median(peak_flows);

  attempt(out, name, -2 - kSetups, [&] {
    tracer.set_run(out.attempted);
    const ProtoCost cost = proto_cost(capture, tracer);
    std::printf("proto workload=%s dns_messages=%zu ssdp_messages=%zu\n", name,
                cost.dns_messages, cost.ssdp_messages);
    L["proto.dns_decode_ns"] = cost.dns_ns;
    L["proto.ssdp_decode_ns"] = cost.ssdp_ns;
    return cost.dns_messages > 0 && cost.ssdp_messages > 0;
  });
  return out;
}

}  // namespace perfbench
