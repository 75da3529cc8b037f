// FlowCache / StreamAnalyzer fuzz: the input is parsed as a framed record
// stream — an eviction-knob preamble, then [u16 length][frame bytes]
// records — decoded with decode_frame_view and folded through the full
// streaming path (the PR 7 tap body). After every fold the cache's bound
// invariants must hold: active flows never exceed max_flows, bytes_used
// never exceeds memcap beyond the one in-flight flow the cache refuses to
// self-evict, counters stay consistent. finish() must account for every
// created flow exactly once. The exposure matrix must equal the union of
// fresh single-packet builders: the announcement memo may skip repeats but
// never change a mark. Every packet's PacketLabels, read in a
// packet-dependent order, must equal the three classifiers' own labels.
#include <array>
#include <set>

#include "fuzz_input.hpp"
#include "harness.hpp"
#include "classify/classifier.hpp"
#include "netcore/packet_view.hpp"
#include "stream/stream.hpp"

namespace roomnet::fuzz {

namespace {
constexpr char kName[] = "stream";
constexpr std::size_t kMaxFrame = 2048;
constexpr std::size_t kMaxPackets = 512;

void check_bounds(const FlowCacheStats& stats,
                  const stream::StreamConfig& config) {
  if (config.max_flows != 0)
    ROOMNET_FUZZ_CHECK(stats.active_flows <= config.max_flows, kName,
                       "active_flows exceeds max_flows");
  if (config.memcap_bytes != 0) {
    // The flow being updated is never its own memcap victim, so usage may
    // overshoot by at most one flow's cost: its base accounting plus one
    // payload copy per direction, each bounded by the frame cap.
    const std::size_t slack = 2 * kMaxFrame + 1024;
    ROOMNET_FUZZ_CHECK(stats.bytes_used <= config.memcap_bytes + slack, kName,
                       "bytes_used exceeds memcap beyond one-flow slack");
  }
  ROOMNET_FUZZ_CHECK(stats.peak_flows >= stats.active_flows, kName,
                     "peak_flows below active_flows");
  ROOMNET_FUZZ_CHECK(stats.peak_bytes >= stats.bytes_used, kName,
                     "peak_bytes below bytes_used");
  ROOMNET_FUZZ_CHECK(stats.flows_created ==
                         stats.tcp_flows + stats.udp_flows,
                     kName, "flow creation counters disagree");
  ROOMNET_FUZZ_CHECK(stats.prunes_total() <= stats.flows_created, kName,
                     "more prunes than created flows");
}

/// The label record's memo must not depend on which label is read first:
/// `rotation` picks one of three read orders.
void check_labels(const PacketView& packet, std::size_t rotation) {
  const std::array<ProtocolLabel, 3> expected = {
      SpecClassifier().classify_packet(packet),
      DeepClassifier().classify_packet(packet),
      HybridClassifier().classify_packet(packet)};
  static constexpr std::array<ProtocolLabel (PacketLabels::*)() const, 3>
      kReaders = {&PacketLabels::spec, &PacketLabels::deep,
                  &PacketLabels::hybrid};
  const PacketLabels labels(packet);
  std::array<ProtocolLabel, 3> read{};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t which = (rotation + i) % 3;
    read[which] = (labels.*kReaders[which])();
  }
  ROOMNET_FUZZ_CHECK(read == expected, kName,
                     "PacketLabels disagrees with the classifiers");
}
}  // namespace

int fuzz_stream(BytesView data) {
  if (data.size() > 262144) return 0;
  FuzzInput in(data);

  stream::StreamConfig config;
  config.max_flows = in.below(9);  // 0 = unbounded
  static constexpr std::size_t kMemcaps[] = {0, 0, 2048, 8192, 65536};
  config.memcap_bytes = kMemcaps[in.u8() % 5];
  config.idle_timeout = SimTime::from_seconds(static_cast<double>(in.below(31)));
  config.established_timeout =
      SimTime::from_seconds(static_cast<double>(in.below(61)));

  stream::StreamAnalyzer analyzer(config, std::set<MacAddress>{});
  ExposureMatrix fresh_union;

  SimTime now = SimTime::from_us(0);
  std::uint64_t expected_cache_packets = 0;
  std::size_t packets = 0;
  while (in.remaining() >= 3 && packets < kMaxPackets) {
    now += SimTime::from_us(static_cast<std::int64_t>(in.u16()) * 1000);
    const std::size_t len = in.u16() % (kMaxFrame + 1);
    const Bytes frame = in.bytes(len);
    const auto view = decode_frame_view(BytesView(frame));
    if (!view) continue;
    // The cache folds exactly the IPv4 TCP/UDP packets; everything else
    // passes through the per-packet analyses only.
    if (view->ipv4 && (view->udp || view->tcp)) ++expected_cache_packets;
    check_labels(*view, packets);
    analyzer.on_packet(now, *view);
    ExposureBuilder fresh;
    fresh.on_packet(*view);
    for (auto& [cell, macs] : fresh.finish().cells)
      fresh_union.cells[cell].insert(macs.begin(), macs.end());
    ++packets;
    check_bounds(analyzer.cache().stats(), config);
  }

  ROOMNET_FUZZ_CHECK(analyzer.packets() == packets, kName,
                     "analyzer packet count disagrees");

  const stream::StreamResults results = analyzer.finish();
  ROOMNET_FUZZ_CHECK(results.cache.packets == expected_cache_packets, kName,
                     "cache folded a different packet set than IPv4 TCP/UDP");
  ROOMNET_FUZZ_CHECK(results.cache.active_flows == 0, kName,
                     "flows survive finish()");
  ROOMNET_FUZZ_CHECK(results.cache.bytes_used == 0, kName,
                     "bytes_used nonzero after finish()");
  ROOMNET_FUZZ_CHECK(
      results.cache.prunes_total() == results.cache.flows_created, kName,
      "created flows not accounted for exactly once");
  ROOMNET_FUZZ_CHECK(results.flows == results.cache.prunes_total(), kName,
                     "StreamResults.flows disagrees with cache prunes");
  ROOMNET_FUZZ_CHECK(results.exposure.cells == fresh_union.cells, kName,
                     "exposure differs from the union of fresh builders");
  return 0;
}

}  // namespace roomnet::fuzz
