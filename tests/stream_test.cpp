// Streaming-pipeline tests: FlowCache eviction mechanics (memcap / LRU /
// timeouts, prune-reason accounting), parity of the pipeline's stage-3
// fold with the batch entry points over the same capture at several thread
// counts on clean and faulty runs, and the bounded-memory regression guard
// (streaming peak state stays flat while the capture grows with simulation
// length).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "capture/capture_store.hpp"
#include "capture/filter.hpp"
#include "capture/flow.hpp"
#include "capture/flow_cache.hpp"
#include "core/pipeline.hpp"
#include "core/provenance.hpp"
#include "core/stage_names.hpp"
#include "netcore/packet_view.hpp"
#include "obs/manifest.hpp"
#include "stream/stream.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) {
  return MacAddress::from_u64(0x02a000000000ull | n);
}

Packet udp_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                  std::uint16_t dport, std::string_view payload,
                  MacAddress src_mac = mac_n(1),
                  MacAddress dst_mac = mac_n(2)) {
  Packet p;
  p.eth.src = src_mac;
  p.eth.dst = dst_mac;
  p.eth.payload = Bytes(64);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = 17;
  p.ipv4 = ip;
  UdpDatagram u;
  u.src_port = port(sport);
  u.dst_port = port(dport);
  u.payload = bytes_of(payload);
  p.udp = u;
  return p;
}

Packet tcp_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                  std::uint16_t dport, std::string_view payload,
                  TcpFlags flags = {}) {
  Packet p;
  p.eth.src = mac_n(1);
  p.eth.dst = mac_n(2);
  p.eth.payload = Bytes(64);
  Ipv4Packet ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = 6;
  p.ipv4 = ip;
  TcpSegment t;
  t.src_port = port(sport);
  t.dst_port = port(dport);
  t.flags = flags;
  t.payload = bytes_of(payload);
  p.tcp = t;
  return p;
}

/// Collects every emitted record (deep copy — the reference dies with the
/// sink call).
struct RecordLog {
  std::vector<FlowRecord> records;
  std::vector<PruneReason> reasons;
  FlowCache::Sink sink() {
    return [this](const FlowRecord& rec, PruneReason reason) {
      records.push_back(rec);
      reasons.push_back(reason);
    };
  }
};

// ------------------------------------------------------------ StreamFlowCache

TEST(StreamFlowCache, CondensesBidirectionalFlowAndFlushes) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());

  const Packet req = udp_packet(a, 5000, b, 80, "req");
  const Packet res = udp_packet(b, 80, a, 5000, "resp");
  const Packet req2 = udp_packet(a, 5000, b, 80, "req2");
  cache.add(SimTime::from_ms(0), as_view(req));
  cache.add(SimTime::from_ms(10), as_view(res));
  cache.add(SimTime::from_ms(20), as_view(req2));
  EXPECT_EQ(cache.stats().flows_created, 1u);
  EXPECT_EQ(cache.stats().active_flows, 1u);
  EXPECT_EQ(cache.stats().packets, 3u);
  EXPECT_TRUE(log.records.empty());  // nothing evicts without a knob armed

  cache.flush();
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.reasons[0], PruneReason::kFlush);
  const FlowRecord& rec = log.records[0];
  EXPECT_EQ(rec.key.client_ip, a);
  EXPECT_EQ(rec.key.server_port, port(80));
  EXPECT_EQ(rec.packets, 3u);
  EXPECT_EQ(rec.client_packets, 2u);
  EXPECT_EQ(rec.server_packets, 1u);
  EXPECT_EQ(rec.bytes, 3 * (64u + 14u));  // matches Flow::byte_count
  EXPECT_EQ(rec.first_seen, SimTime::from_ms(0));
  EXPECT_EQ(rec.last_seen, SimTime::from_ms(20));
  // First non-empty payload per direction, copied out of the packet.
  EXPECT_EQ(string_of(BytesView{rec.client_payload}), "req");
  EXPECT_EQ(string_of(BytesView{rec.server_payload}), "resp");
  EXPECT_EQ(cache.stats().active_flows, 0u);

  cache.flush();  // idempotent
  EXPECT_EQ(log.records.size(), 1u);
}

TEST(StreamFlowCache, ResetZeroesStatsAndReproducesAFreshCache) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());

  const auto feed = [&cache, &a, &b] {
    for (int i = 0; i < 20; ++i) {
      const Packet p = udp_packet(a, static_cast<std::uint16_t>(5000 + i), b,
                                  80, "req");
      cache.add(SimTime::from_ms(i), as_view(p));
    }
    cache.flush();
  };
  feed();
  const std::size_t first_records = log.records.size();
  ASSERT_EQ(first_records, 20u);

  cache.reset();
  EXPECT_EQ(cache.stats().flows_created, 0u);
  EXPECT_EQ(cache.stats().packets, 0u);
  EXPECT_EQ(cache.stats().active_flows, 0u);
  EXPECT_EQ(cache.stats().peak_bytes, 0u);

  // A recycled cache behaves exactly like a fresh one: same records, same
  // creation-order emission, same stats (node reuse order is unobservable).
  feed();
  ASSERT_EQ(log.records.size(), 2 * first_records);
  EXPECT_EQ(cache.stats().flows_created, 20u);
  for (std::size_t i = 0; i < first_records; ++i) {
    EXPECT_EQ(log.records[first_records + i].key,
              log.records[i].key) << "record " << i;
    EXPECT_EQ(log.records[first_records + i].packets, log.records[i].packets);
  }
}

TEST(StreamFlowCache, ToFlowMatchesBatchFlowOnClassifierInputs) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  const Packet req = udp_packet(a, 5000, b, 80, "question");
  const Packet res = udp_packet(b, 80, a, 5000, "answer");

  FlowTable table;
  table.add(SimTime::from_ms(0), req);
  table.add(SimTime::from_ms(5), res);
  const Flow& batch = table.flows()[0];

  RecordLog log;
  FlowCache cache({}, log.sink());
  cache.add(SimTime::from_ms(0), as_view(req));
  cache.add(SimTime::from_ms(5), as_view(res));
  cache.flush();
  ASSERT_EQ(log.records.size(), 1u);
  const Flow synth = log.records[0].to_flow();

  // Everything classify_flow reads must agree with the materialized flow.
  EXPECT_EQ(synth.key, batch.key);
  EXPECT_FALSE(synth.packets.empty());
  EXPECT_EQ(string_of(synth.first_client_payload()),
            string_of(batch.first_client_payload()));
  EXPECT_EQ(string_of(synth.first_server_payload()),
            string_of(batch.first_server_payload()));
}

TEST(StreamFlowCache, TracksTcpFlagsAndPerProtoCounters) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());

  TcpFlags syn;
  syn.syn = true;
  TcpFlags finack;
  finack.fin = true;
  finack.ack = true;
  const Packet open = tcp_packet(a, 40000, b, 443, "", syn);
  const Packet close = tcp_packet(a, 40000, b, 443, "", finack);
  const Packet dgram = udp_packet(a, 5000, b, 53, "q");
  cache.add(SimTime::from_ms(0), as_view(open));
  cache.add(SimTime::from_ms(1), as_view(close));
  cache.add(SimTime::from_ms(2), as_view(dgram));
  EXPECT_EQ(cache.stats().tcp_flows, 1u);
  EXPECT_EQ(cache.stats().udp_flows, 1u);

  cache.flush();
  ASSERT_EQ(log.records.size(), 2u);
  const FlowRecord& tcp_rec = log.records[0];  // creation order
  EXPECT_TRUE(tcp_rec.tcp_flags_seen.syn);
  EXPECT_TRUE(tcp_rec.tcp_flags_seen.fin);
  EXPECT_TRUE(tcp_rec.tcp_flags_seen.ack);
  EXPECT_FALSE(tcp_rec.tcp_flags_seen.rst);
}

TEST(StreamFlowCache, MaxFlowsEvictsLeastRecentlyUsed) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  config.max_flows = 2;
  FlowCache cache(config, log.sink());

  const Packet f1 = udp_packet(a, 5001, b, 80, "one");
  const Packet f2 = udp_packet(a, 5002, b, 80, "two");
  const Packet f1b = udp_packet(a, 5001, b, 80, "one-again");
  const Packet f3 = udp_packet(a, 5003, b, 80, "three");
  cache.add(SimTime::from_ms(0), as_view(f1));
  cache.add(SimTime::from_ms(1), as_view(f2));
  cache.add(SimTime::from_ms(2), as_view(f1b));  // touch: f2 is now LRU
  cache.add(SimTime::from_ms(3), as_view(f3));   // over max_flows: evict f2
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.reasons[0], PruneReason::kExcess);
  EXPECT_EQ(log.records[0].key.client_port, port(5002));
  EXPECT_EQ(cache.stats().active_flows, 2u);
  EXPECT_EQ(cache.stats().prunes[static_cast<std::size_t>(
                PruneReason::kExcess)],
            1u);
}

TEST(StreamFlowCache, MemcapEvictsUntilUnderBudget) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  // Room for roughly two flows carrying 200-byte payloads (256 base + 200).
  config.memcap_bytes = 1000;
  FlowCache cache(config, log.sink());

  const std::string big(200, 'x');
  for (std::uint16_t i = 0; i < 6; ++i) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(6000 + i), b, 80, big);
    cache.add(SimTime::from_ms(i), as_view(p));
    EXPECT_LE(cache.stats().bytes_used, config.memcap_bytes);
  }
  EXPECT_EQ(cache.stats().flows_created, 6u);
  EXPECT_EQ(log.records.size(), 4u);
  for (const PruneReason reason : log.reasons)
    EXPECT_EQ(reason, PruneReason::kMemcap);
  // Oldest-first: the LRU tail goes first, in arrival order.
  EXPECT_EQ(log.records[0].key.client_port, port(6000));
  EXPECT_EQ(log.records[1].key.client_port, port(6001));
  // Peak never exceeded the budget by more than the in-flight flow's cost.
  EXPECT_LE(cache.stats().peak_bytes, config.memcap_bytes + 256 + big.size());
}

TEST(StreamFlowCache, IdleTimeoutEvictsInEventOrder) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  config.idle_timeout = SimTime::from_seconds(5);
  FlowCache cache(config, log.sink());

  const Packet f1 = udp_packet(a, 5001, b, 80, "one");
  const Packet f2 = udp_packet(a, 5002, b, 80, "two");
  cache.add(SimTime::from_seconds(0), as_view(f1));
  cache.add(SimTime::from_seconds(2), as_view(f2));
  EXPECT_TRUE(log.records.empty());

  // t=8: f1 idle 8s (out), f2 idle 6s (out); both expire before the new
  // packet folds, oldest last_seen first.
  const Packet f3 = udp_packet(a, 5003, b, 80, "three");
  cache.add(SimTime::from_seconds(8), as_view(f3));
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.reasons[0], PruneReason::kIdle);
  EXPECT_EQ(log.reasons[1], PruneReason::kIdle);
  EXPECT_EQ(log.records[0].key.client_port, port(5001));
  EXPECT_EQ(log.records[1].key.client_port, port(5002));
  EXPECT_EQ(cache.stats().active_flows, 1u);
}

TEST(StreamFlowCache, EstablishedTimeoutSplitsLongLivedFlow) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCacheConfig config;
  config.established_timeout = SimTime::from_seconds(10);
  FlowCache cache(config, log.sink());

  const Packet chat = udp_packet(a, 5000, b, 80, "tick");
  cache.add(SimTime::from_seconds(0), as_view(chat));
  cache.add(SimTime::from_seconds(5), as_view(chat));
  EXPECT_TRUE(log.records.empty());
  // t=12: lifetime cap hit — the old record is emitted and a fresh one
  // starts with this packet.
  cache.add(SimTime::from_seconds(12), as_view(chat));
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.reasons[0], PruneReason::kEstablished);
  EXPECT_EQ(log.records[0].packets, 2u);
  EXPECT_EQ(cache.stats().flows_created, 2u);
  EXPECT_EQ(cache.stats().active_flows, 1u);
}

TEST(StreamFlowCache, FlushEmitsSurvivorsInCreationOrder) {
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  RecordLog log;
  FlowCache cache({}, log.sink());
  for (std::uint16_t i = 0; i < 5; ++i) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(7000 + i), b, 80, "p");
    cache.add(SimTime::from_ms(i), as_view(p));
  }
  // Touch them in reverse so LRU order is the opposite of creation order.
  for (std::uint16_t i = 5; i-- > 0;) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(7000 + i), b, 80, "p");
    cache.add(SimTime::from_ms(100 + (5 - i)), as_view(p));
  }
  cache.flush();
  ASSERT_EQ(log.records.size(), 5u);
  for (std::uint16_t i = 0; i < 5; ++i)
    EXPECT_EQ(log.records[i].key.client_port,
              port(static_cast<std::uint16_t>(7000 + i)))
        << i;
}

TEST(StreamFlowCache, PruneCountersReachTelemetry) {
  auto& registry = telemetry::Registry::global();
  telemetry::Counter& memcap_counter = registry.counter(
      "roomnet_flow_cache_prunes_total", {{"reason", "memcap"}});
  const std::uint64_t before = memcap_counter.value();

  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  FlowCacheConfig config;
  config.memcap_bytes = 600;  // fits one 200-byte-payload flow, not two
  FlowCache cache(config, {});
  const std::string big(200, 'x');
  for (std::uint16_t i = 0; i < 3; ++i) {
    const Packet p =
        udp_packet(a, static_cast<std::uint16_t>(6100 + i), b, 80, big);
    cache.add(SimTime::from_ms(i), as_view(p));
  }
  EXPECT_GT(memcap_counter.value(), before);
  EXPECT_GT(registry.gauge("roomnet_flow_cache_peak_flows").value(), 0);
}

TEST(StreamFlowCache, EveryPruneReasonSurvivesIntoExportedReport) {
  // The flow-cache accounting is part of the exported observability surface:
  // after driving all five prune reasons, each reason-labeled counter must
  // show up — non-zero — in both the Prometheus text and the JSON mirror.
  auto& registry = telemetry::Registry::global();
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  const auto flow_starter = [&](FlowCache& cache, std::uint16_t sport,
                                SimTime at) {
    const Packet p = udp_packet(a, sport, b, 80, "x");
    cache.add(at, as_view(p));
  };
  {
    FlowCacheConfig config;
    config.idle_timeout = SimTime::from_seconds(1);
    FlowCache cache(config, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    flow_starter(cache, 7001, SimTime::from_seconds(10));  // 7000 idles out
  }
  {
    FlowCacheConfig config;
    config.established_timeout = SimTime::from_seconds(1);
    FlowCache cache(config, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    flow_starter(cache, 7000, SimTime::from_seconds(5));  // lifetime cap
  }
  {
    FlowCacheConfig config;
    config.memcap_bytes = 600;
    FlowCache cache(config, {});
    const std::string big(200, 'x');
    for (std::uint16_t i = 0; i < 3; ++i) {
      const Packet p =
          udp_packet(a, static_cast<std::uint16_t>(7100 + i), b, 80, big);
      cache.add(SimTime::from_ms(i), as_view(p));
    }
  }
  {
    FlowCacheConfig config;
    config.max_flows = 1;
    FlowCache cache(config, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    flow_starter(cache, 7001, SimTime::from_ms(1));  // LRU victim for slot
  }
  {
    FlowCache cache({}, {});
    flow_starter(cache, 7000, SimTime::from_ms(0));
    cache.flush();
  }

  const std::string prom = telemetry::to_prometheus(registry);
  const std::string json = telemetry::to_json(registry);
  for (const char* reason :
       {"idle", "established", "memcap", "excess", "flush"}) {
    EXPECT_GT(registry
                  .counter("roomnet_flow_cache_prunes_total",
                           {{"reason", reason}})
                  .value(),
              0u)
        << reason;
    const std::string prom_line = "roomnet_flow_cache_prunes_total{reason=\"" +
                                  std::string(reason) + "\"}";
    EXPECT_NE(prom.find(prom_line), std::string::npos) << reason;
    // The sample value on that line must be non-zero (" 0\n" would mean the
    // counter made it to the report in name only).
    const std::size_t pos = prom.find(prom_line);
    EXPECT_NE(prom.compare(pos + prom_line.size(), 3, " 0\n"), 0)
        << "zero-valued " << reason << " counter in metrics.prom";
    const std::string json_needle =
        "\"labels\":{\"reason\":\"" + std::string(reason) + "\"}";
    EXPECT_NE(json.find(json_needle), std::string::npos) << reason;
  }
  // Gauges ride along: occupancy/peak accounting is in the same report.
  EXPECT_NE(prom.find("roomnet_flow_cache_peak_flows"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE roomnet_flow_cache_prunes_total counter"),
            std::string::npos);
}

// --------------------------------------------------------------- StreamParity

/// Runs `config` with a LocalFilter tap on the lab's network that stores
/// every local frame into a CaptureStore/FlowTable, then checks that the
/// pipeline's stage-3 tables and its "classify" stage hash equal the batch
/// entry points over that capture. The config must put nothing on the wire
/// after stage 2 (no scan, no apps), so the tap sees exactly the capture
/// window stage 3 folds.
void expect_matches_batch_reference(const PipelineConfig& config) {
  ASSERT_FALSE(config.run_scan);
  ASSERT_EQ(config.app_sample, 0);
  CaptureStore store;
  FlowTable flow_table;
  const LocalFilter filter;
  Pipeline pipeline(config);
  pipeline.lab().network().add_packet_tap(
      [&](SimTime at, const PacketView& packet, BytesView raw) {
        if (!filter.matches(packet)) return;
        flow_table.add(at, store.append(at, packet, raw));
      });
  const PipelineResults r = pipeline.run();
  const std::vector<Flow>& flows = flow_table.flows();
  ASSERT_EQ(r.analyzed_packets, store.size());
  ASSERT_EQ(r.local_packets, store.size());
  EXPECT_GT(r.flows, 0u);

  PipelineResults batch;
  batch.usage = protocol_usage(store);
  batch.graph = build_comm_graph(store, r.population);
  batch.crossval = cross_validate(flows, store);
  batch.exposure = analyze_exposure(store);
  batch.responses = correlate_responses(store);
  batch.flows = flows.size();
  batch.local_packets = store.size();

  EXPECT_EQ(r.flows, batch.flows);
  EXPECT_EQ(r.usage.by_device, batch.usage.by_device);
  ASSERT_EQ(r.graph.edges.size(), batch.graph.edges.size());
  for (std::size_t i = 0; i < r.graph.edges.size(); ++i) {
    EXPECT_EQ(r.graph.edges[i].a, batch.graph.edges[i].a) << i;
    EXPECT_EQ(r.graph.edges[i].b, batch.graph.edges[i].b) << i;
    EXPECT_EQ(r.graph.edges[i].packets, batch.graph.edges[i].packets) << i;
  }
  EXPECT_EQ(r.crossval.matrix, batch.crossval.matrix);
  EXPECT_EQ(r.crossval.total, batch.crossval.total);
  EXPECT_EQ(r.crossval.agreed, batch.crossval.agreed);
  EXPECT_EQ(r.crossval.disagreed, batch.crossval.disagreed);
  EXPECT_EQ(r.exposure.cells, batch.exposure.cells);
  EXPECT_EQ(r.responses.discovery_protocols,
            batch.responses.discovery_protocols);
  EXPECT_EQ(r.responses.answered_protocols, batch.responses.answered_protocols);
  ASSERT_EQ(r.responses.matches.size(), batch.responses.matches.size());
  for (std::size_t i = 0; i < r.responses.matches.size(); ++i) {
    EXPECT_EQ(r.responses.matches[i].responder,
              batch.responses.matches[i].responder)
        << i;
    EXPECT_EQ(r.responses.matches[i].response_at,
              batch.responses.matches[i].response_at)
        << i;
  }
  // The machine-checkable form: the manifest's stage-3 hash is the hash of
  // the batch tables.
  std::size_t classify_stages = 0;
  for (const obs::StageRecord& stage : r.manifest.stages) {
    if (stage.name != stages::kClassify) continue;
    ++classify_stages;
    EXPECT_EQ(stage.sha256, hash_classify_stage(batch));
  }
  EXPECT_EQ(classify_stages, 1u);
  // The cache saw every flow and completed all of them at flush.
  EXPECT_EQ(r.flow_cache.flows_created, batch.flows);
  EXPECT_EQ(r.flow_cache.prunes[static_cast<std::size_t>(PruneReason::kFlush)],
            batch.flows);
  EXPECT_EQ(r.flow_cache.active_flows, 0u);
}

TEST(StreamParity, ByteIdenticalToBatchAcrossThreadCounts) {
  // The headline claim: the pipeline's tap-time fold reproduces the batch
  // entry points over the same capture bit-for-bit — same analysis tables,
  // same classify stage hash — at every worker count.
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineConfig c = config;
    c.threads = threads;
    expect_matches_batch_reference(c);
  }
}

TEST(StreamParity, ByteIdenticalToBatchWithFaults) {
  // Same claim under an adversarial frame stream: loss/dup/truncation/
  // corruption perturb the wire, and both the fold and the reference tap
  // see the perturbed frames.
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 10;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  config.faults.loss = 0.03;
  config.faults.duplicate = 0.02;
  config.faults.truncate = 0.02;
  config.faults.corrupt = 0.01;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineConfig c = config;
    c.threads = threads;
    expect_matches_batch_reference(c);
  }
}

TEST(StreamParity, EvictingConfigChangesDigestHonestly) {
  // A memcap'd run may legitimately differ from the batch reference (flows
  // split, payload state dropped), so its config digest must say so — while
  // the default, non-evicting config folds nothing in. Both digests are
  // pinned (the default study, and roomnet-audit's defaults plus
  // --memcap-bytes 1048576), so recorded manifests stay comparable.
  const PipelineConfig plain;
  PipelineConfig memcapped;
  memcapped.idle_duration = SimTime::from_minutes(10);
  memcapped.interactions = 20;
  memcapped.app_sample = 0;
  memcapped.stream.memcap_bytes = 1 << 20;

  EXPECT_FALSE(plain.stream.evicting());
  EXPECT_TRUE(memcapped.stream.evicting());
  EXPECT_EQ(pipeline_config_digest(plain),
            "064845146eb20cf8cd85651675bbfaadbbd9b93895aa9de6fe6430447f7435f2");
  EXPECT_EQ(pipeline_config_digest(memcapped),
            "f8620cc29158ee09374ca5701bdbefa1451c33da21c4828b51ead4de34650e07");
  PipelineConfig unarmed = memcapped;
  unarmed.stream.memcap_bytes = 0;
  EXPECT_NE(pipeline_config_digest(unarmed), pipeline_config_digest(memcapped));
}

TEST(StreamPipeline, FoldStopsAtClassify) {
  // finish() is terminal: the scan and app campaign that follow classify
  // put hundreds of thousands of packets on the wire, and none of them may
  // reach the analyzer or its flushed cache. Both figures are read when the
  // run ends.
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = true;
  config.run_crowd = false;

  auto& registry = telemetry::Registry::global();
  const auto flows_total = [&registry] {
    return registry.counter("roomnet_flow_cache_flows_total",
                            {{"transport", "tcp"}})
               .value() +
           registry.counter("roomnet_flow_cache_flows_total",
                            {{"transport", "udp"}})
               .value();
  };
  const std::uint64_t flows_before = flows_total();
  Pipeline pipeline(config);
  const PipelineResults r = pipeline.run();

  EXPECT_GT(r.analyzed_packets, 5000u);
  EXPECT_GT(r.local_packets, 2 * r.analyzed_packets);
  EXPECT_GT(r.flows, 0u);
  EXPECT_EQ(r.flow_cache.flows_created, r.flows);
  EXPECT_EQ(flows_total() - flows_before, r.flows);
  EXPECT_EQ(r.flow_cache.active_flows, 0u);
  EXPECT_EQ(registry.gauge("roomnet_flow_cache_flows").value(), 0);
}

// --------------------------------------------------------------- StreamMemory

TEST(StreamMemory, CacheStateBoundedByMemcapAsFlowCountGrows) {
  // O(active flows), not O(all flows): drive 500 distinct flows through a
  // 16 KiB cache and watch usage stay under the cap throughout.
  const Ipv4Address a(192, 168, 10, 5), b(192, 168, 10, 6);
  FlowCacheConfig config;
  config.memcap_bytes = 16 * 1024;
  FlowCache cache(config, {});
  const std::string payload(300, 'y');
  for (std::uint32_t i = 0; i < 500; ++i) {
    const Packet p = udp_packet(
        Ipv4Address(192, 168, static_cast<std::uint8_t>(10 + i / 250),
                    static_cast<std::uint8_t>(i % 250)),
        static_cast<std::uint16_t>(1024 + i), b, 80, payload);
    cache.add(SimTime::from_ms(i), as_view(p));
    EXPECT_LE(cache.stats().bytes_used, config.memcap_bytes);
  }
  EXPECT_EQ(cache.stats().flows_created, 500u);
  EXPECT_LE(cache.stats().peak_bytes,
            config.memcap_bytes + 256 + payload.size());
  EXPECT_GT(cache.stats().prunes[static_cast<std::size_t>(
                PruneReason::kMemcap)],
            0u);
  (void)a;
}

TEST(StreamMemory, StreamingPeakStaysFlatWhileBatchCaptureGrows) {
  // The regression the tap-time fold exists to prevent: a batch capture
  // holds every packet of the window, O(simulated time); the fold keeps no
  // capture arena at all, and a memcap'd cache's peak state is pinned by the
  // cap. Run the same scenario at 1x and 3x length.
  PipelineConfig config;
  config.interactions = 0;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  config.stream.memcap_bytes = 256 * 1024;

  const auto run = [&](double scale) {
    PipelineConfig c = config;
    c.idle_duration = SimTime::from_minutes(10 * scale);
    Pipeline pipeline(c);
    return pipeline.run();
  };
  const PipelineResults short_run = run(1);
  const PipelineResults long_run = run(3);

  // What a batch capture would have stored grows ~3x with the idle window...
  EXPECT_GT(long_run.analyzed_packets, 2 * short_run.analyzed_packets);
  EXPECT_GT(long_run.flow_cache.flows_created,
            short_run.flow_cache.flows_created);
  // ...but no run reserves capture arena...
  EXPECT_EQ(short_run.profile.totals.arena_bytes, 0u);
  EXPECT_EQ(long_run.profile.totals.arena_bytes, 0u);
  // ...and peak cache state is bounded by the memcap, not the run length.
  EXPECT_GT(short_run.flow_cache.peak_bytes, 0u);
  EXPECT_LE(long_run.flow_cache.peak_bytes, 256u * 1024u + 4096u);
  EXPECT_LE(long_run.flow_cache.peak_bytes,
            short_run.flow_cache.peak_bytes +
                short_run.flow_cache.peak_bytes / 2);
}

}  // namespace
}  // namespace roomnet
