// Flow assembly per RFC 6146's 5-tuple definition (§C.2): a chronologically
// ordered set of TCP segments / UDP datagrams sharing (src IP, src port,
// dst IP, dst port, transport). Flows here are bidirectional — the reverse
// tuple maps to the same flow with direction flags — matching how nDPI
// groups packets.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/time.hpp"

namespace roomnet {

struct FlowKey {
  Ipv4Address client_ip;  // initiator (first packet's source)
  Port client_port{};
  Ipv4Address server_ip;
  Port server_port{};
  std::uint8_t protocol = 0;  // IPPROTO_TCP / IPPROTO_UDP

  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
};

/// Hash for the unordered flow index. Flow *output* order is first-seen
/// insertion order via FlowTable::flows_, so results never depend on this.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    // splitmix64-style mixing of the packed tuple halves.
    auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    };
    const std::uint64_t a =
        (static_cast<std::uint64_t>(k.client_ip.value()) << 32) |
        (static_cast<std::uint64_t>(value(k.client_port)) << 16) |
        value(k.server_port);
    const std::uint64_t b =
        (static_cast<std::uint64_t>(k.server_ip.value()) << 8) | k.protocol;
    return static_cast<std::size_t>(mix(a ^ mix(b)));
  }
};

struct FlowPacket {
  SimTime timestamp;
  bool from_client = true;
  std::uint32_t size = 0;  // full frame size
  /// Transport payload (may be empty for pure ACKs). A zero-copy slice into
  /// whatever buffer backed the packet handed to FlowTable::add — the
  /// CaptureStore arena on the pipeline path. That owner must outlive the
  /// flow table (DESIGN.md §10).
  BytesView payload;
  MacAddress src_mac;
  MacAddress dst_mac;
  TcpFlags tcp_flags;  // zero-initialized for UDP
};

struct Flow {
  FlowKey key;
  std::vector<FlowPacket> packets;

  [[nodiscard]] SimTime first_seen() const {
    return packets.empty() ? SimTime{} : packets.front().timestamp;
  }
  [[nodiscard]] SimTime last_seen() const {
    return packets.empty() ? SimTime{} : packets.back().timestamp;
  }
  [[nodiscard]] std::size_t byte_count() const;
  /// First non-empty payload in each direction (classifier inputs).
  [[nodiscard]] BytesView first_client_payload() const;
  [[nodiscard]] BytesView first_server_payload() const;
};

class FlowTable {
 public:
  /// A lab-scale run sees hundreds of flows, not tens; pre-sizing the index
  /// past that keeps the hot add() path rehash-free, and the lowered load
  /// factor keeps probe chains short once it does grow.
  static constexpr std::size_t kInitialFlowCapacity = 1024;

  FlowTable() {
    index_.max_load_factor(0.5f);
    index_.reserve(kInitialFlowCapacity);
    flows_.reserve(kInitialFlowCapacity);
  }

  /// Ingests one decoded packet; ignores non-TCP/UDP. The recorded payload
  /// is a view: the bytes behind `packet` must outlive this table.
  void add(SimTime at, const PacketView& packet);
  /// Owning-Packet convenience (tests): `packet` itself must outlive the
  /// table, since the flow records alias its payload vectors.
  void add(SimTime at, const Packet& packet) { add(at, as_view(packet)); }
  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }
  [[nodiscard]] std::size_t packet_count() const { return packets_; }

 private:
  std::unordered_map<FlowKey, std::size_t, FlowKeyHash> index_;
  std::vector<Flow> flows_;
  std::size_t packets_ = 0;
};

}  // namespace roomnet
