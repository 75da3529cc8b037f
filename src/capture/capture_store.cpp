#include "capture/capture_store.hpp"

#include "telemetry/metrics.hpp"

namespace roomnet {

CaptureStore::CaptureStore() {
  auto& registry = telemetry::Registry::global();
  arena_chunks_gauge_ = &registry.gauge("roomnet_capture_arena_chunks");
  arena_large_chunks_gauge_ =
      &registry.gauge("roomnet_capture_arena_large_chunks");
  arena_bytes_used_gauge_ =
      &registry.gauge("roomnet_capture_arena_bytes_used");
  arena_bytes_reserved_gauge_ =
      &registry.gauge("roomnet_capture_arena_bytes_reserved");
}

void CaptureStore::publish_arena_gauges() const {
  arena_chunks_gauge_->set(static_cast<std::int64_t>(arena_.chunk_count()));
  arena_large_chunks_gauge_->set(
      static_cast<std::int64_t>(arena_.large_chunk_count()));
  arena_bytes_used_gauge_->set(static_cast<std::int64_t>(arena_.byte_count()));
  arena_bytes_reserved_gauge_->set(
      static_cast<std::int64_t>(arena_.capacity()));
}

PacketView CaptureStore::append(SimTime at, const PacketView& view,
                                BytesView raw) {
  const BytesView stored_raw = arena_.append(raw);
  const PacketView stored = rebase(view, raw, stored_raw);

  Row row;
  row.eth = stored.eth;
  const auto idx = [](auto& column, const auto& layer) {
    const auto i = static_cast<std::uint32_t>(column.size());
    column.push(*layer);
    return i;
  };
  if (stored.arp) row.arp = idx(arp_col_, stored.arp);
  if (stored.llc) row.llc = idx(llc_col_, stored.llc);
  if (stored.eapol) row.eapol = idx(eapol_col_, stored.eapol);
  if (stored.ipv4) row.ipv4 = idx(ipv4_col_, stored.ipv4);
  if (stored.ipv6) row.ipv6 = idx(ipv6_col_, stored.ipv6);
  if (stored.udp) row.udp = idx(udp_col_, stored.udp);
  if (stored.tcp) row.tcp = idx(tcp_col_, stored.tcp);
  if (stored.icmp) row.icmp = idx(icmp_col_, stored.icmp);
  if (stored.icmpv6) row.icmpv6 = idx(icmpv6_col_, stored.icmpv6);
  if (stored.igmp) row.igmp = idx(igmp_col_, stored.igmp);
  rows_.push(row);

  timestamps_.push(at);
  src_macs_.push(stored.eth.src);
  dst_macs_.push(stored.eth.dst);
  protos_.push(wire_proto(stored));
  const auto sp = stored.src_port();
  const auto dp = stored.dst_port();
  src_ports_.push(sp ? value(*sp) : std::uint16_t{0});
  dst_ports_.push(dp ? value(*dp) : std::uint16_t{0});
  payloads_.push(stored.app_payload());

  publish_arena_gauges();
  return stored;
}

std::optional<PacketView> CaptureStore::append(SimTime at, BytesView raw) {
  const auto view = decode_frame_view(raw);
  if (!view) return std::nullopt;
  return append(at, *view, raw);
}

PacketView CaptureStore::packet(std::size_t i) const {
  const Row& row = rows_[i];
  PacketView out;
  out.eth = row.eth;
  if (row.arp != kAbsent) out.arp = arp_col_[row.arp];
  if (row.llc != kAbsent) out.llc = llc_col_[row.llc];
  if (row.eapol != kAbsent) out.eapol = eapol_col_[row.eapol];
  if (row.ipv4 != kAbsent) out.ipv4 = ipv4_col_[row.ipv4];
  if (row.ipv6 != kAbsent) out.ipv6 = ipv6_col_[row.ipv6];
  if (row.udp != kAbsent) out.udp = udp_col_[row.udp];
  if (row.tcp != kAbsent) out.tcp = tcp_col_[row.tcp];
  if (row.icmp != kAbsent) out.icmp = icmp_col_[row.icmp];
  if (row.icmpv6 != kAbsent) out.icmpv6 = icmpv6_col_[row.icmpv6];
  if (row.igmp != kAbsent) out.igmp = igmp_col_[row.igmp];
  return out;
}

}  // namespace roomnet
