// Arena-backed capture store: the zero-copy replacement for "vector of
// decoded Packet copies" on the batch analysis path. Each captured frame is
// appended once into a FrameStore arena; the decoded PacketView is rebased so
// every slice points into the arena copy, then stored layer-by-layer: the
// always-present Ethernet view in a chunked row table, each optional layer in
// its own column that only present layers consume. packet(i) reassembles the
// PacketView from those columns — O(1) pointer/field copies, never a
// re-decode. A struct-of-arrays side index (timestamps, MACs, wire protocol,
// ports, payload slice) lets analyses scan one column without touching rows.
//
// Ownership: the store owns the frame bytes. BytesView slices inside any
// PacketView it returns point into the arena and stay valid for the lifetime
// of the store (FrameStore never moves a frame once appended). The PacketView
// structs themselves are returned by value. See DESIGN.md §10.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/frame_store.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/time.hpp"
#include "prof/counters.hpp"

namespace roomnet {

namespace telemetry {
class Gauge;
}  // namespace telemetry

namespace detail {

/// Append-only column in fixed-size chunks: every element is allocated
/// exactly once (no grow-and-copy doubling on the hot path) and never moves.
template <typename T>
class ChunkedColumn {
 public:
  static constexpr std::size_t kChunk = 1024;

  T& push(const T& value) {
    const std::size_t chunk = count_ / kChunk;
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
      prof::note_arena_alloc(kChunk * sizeof(T));
    }
    T& slot = chunks_[chunk][count_ % kChunk];
    slot = value;
    ++count_;
    return slot;
  }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t count_ = 0;
};

}  // namespace detail

class CaptureStore {
 public:
  /// Resolves the arena-occupancy telemetry gauges once (they are shared by
  /// every store in the process; the last writer wins).
  CaptureStore();

  /// Copies `raw` into the arena and stores `view` rebased onto the arena
  /// copy. `view` must have been decoded from (or rebased onto) `raw`.
  /// Returns the stored, arena-backed view.
  PacketView append(SimTime at, const PacketView& view, BytesView raw);

  /// Decode-and-append convenience: returns nullopt (and stores nothing) if
  /// the frame fails Ethernet decode.
  std::optional<PacketView> append(SimTime at, BytesView raw);

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.size() == 0; }

  /// Reassembles packet i from the layer columns (by value; its BytesView
  /// slices point into the arena and outlive the returned struct).
  [[nodiscard]] PacketView packet(std::size_t i) const;

  [[nodiscard]] SimTime timestamp(std::size_t i) const {
    return timestamps_[i];
  }

  // SoA side index: one entry per stored packet, in capture order.
  [[nodiscard]] MacAddress src_mac(std::size_t i) const { return src_macs_[i]; }
  [[nodiscard]] MacAddress dst_mac(std::size_t i) const { return dst_macs_[i]; }
  [[nodiscard]] WireProto proto(std::size_t i) const { return protos_[i]; }
  /// Transport ports as raw uint16 (0 when the packet has no transport
  /// layer; port 0 does not occur in the simulated traffic).
  [[nodiscard]] std::uint16_t src_port(std::size_t i) const {
    return src_ports_[i];
  }
  [[nodiscard]] std::uint16_t dst_port(std::size_t i) const {
    return dst_ports_[i];
  }
  /// Application payload slice into the arena (empty for non-transport
  /// packets and pure ACKs).
  [[nodiscard]] BytesView payload(std::size_t i) const { return payloads_[i]; }

  /// Arena statistics (bytes stored, chunk count) for benchmarks/telemetry.
  [[nodiscard]] const FrameStore& arena() const { return arena_; }

 private:
  /// Per-packet row: the Ethernet layer inline (always present) plus one
  /// index per optional layer into its column, kAbsent when missing.
  static constexpr std::uint32_t kAbsent = 0xffffffff;
  struct Row {
    EthernetFrameView eth;
    std::uint32_t arp = kAbsent;
    std::uint32_t llc = kAbsent;
    std::uint32_t eapol = kAbsent;
    std::uint32_t ipv4 = kAbsent;
    std::uint32_t ipv6 = kAbsent;
    std::uint32_t udp = kAbsent;
    std::uint32_t tcp = kAbsent;
    std::uint32_t icmp = kAbsent;
    std::uint32_t icmpv6 = kAbsent;
    std::uint32_t igmp = kAbsent;
  };

  /// Publishes arena occupancy (chunks, bytes used/reserved, large chunks)
  /// to the roomnet_capture_arena_* gauges. Called from append(); cost is
  /// four relaxed stores.
  void publish_arena_gauges() const;

  FrameStore arena_;
  // Occupancy gauges, resolved once in the constructor (registry lookups
  // take a lock; append() must not).
  telemetry::Gauge* arena_chunks_gauge_;
  telemetry::Gauge* arena_large_chunks_gauge_;
  telemetry::Gauge* arena_bytes_used_gauge_;
  telemetry::Gauge* arena_bytes_reserved_gauge_;
  detail::ChunkedColumn<Row> rows_;
  detail::ChunkedColumn<ArpPacket> arp_col_;
  detail::ChunkedColumn<LlcXidFrameView> llc_col_;
  detail::ChunkedColumn<EapolFrameView> eapol_col_;
  detail::ChunkedColumn<Ipv4PacketView> ipv4_col_;
  detail::ChunkedColumn<Ipv6PacketView> ipv6_col_;
  detail::ChunkedColumn<UdpDatagramView> udp_col_;
  detail::ChunkedColumn<TcpSegmentView> tcp_col_;
  detail::ChunkedColumn<IcmpMessageView> icmp_col_;
  detail::ChunkedColumn<Icmpv6MessageView> icmpv6_col_;
  detail::ChunkedColumn<IgmpMessage> igmp_col_;

  detail::ChunkedColumn<SimTime> timestamps_;
  detail::ChunkedColumn<MacAddress> src_macs_;
  detail::ChunkedColumn<MacAddress> dst_macs_;
  detail::ChunkedColumn<WireProto> protos_;
  detail::ChunkedColumn<std::uint16_t> src_ports_;
  detail::ChunkedColumn<std::uint16_t> dst_ports_;
  detail::ChunkedColumn<BytesView> payloads_;
};

}  // namespace roomnet
