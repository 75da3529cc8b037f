// Aggregations behind Figures 1, 2 and 4: per-device protocol usage and the
// device-to-device transport-layer communication graph with vendor clusters.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "capture/capture_store.hpp"
#include "classify/classifier.hpp"
#include "netcore/packet.hpp"
#include "netcore/time.hpp"

namespace roomnet {

/// Which protocols each source MAC was observed *using* (sending).
struct ProtocolUsage {
  std::map<MacAddress, std::set<ProtocolLabel>> by_device;

  /// Devices using `label`, restricted to `population` (e.g. the 93 testbed
  /// MACs, so router/phone traffic does not skew percentages).
  [[nodiscard]] std::size_t devices_using(
      ProtocolLabel label, const std::set<MacAddress>& population) const;
  [[nodiscard]] std::set<ProtocolLabel> all_labels() const;
};

/// Incremental fold behind protocol_usage(): feed packets as they occur
/// (streaming) or from a finished capture (the batch functions below are
/// thin loops over this), then take the result with finish(). The fold is
/// one order-independent set insertion per packet, so streaming and batch
/// tabulations are identical by construction.
class ProtocolUsageBuilder {
 public:
  void on_packet(const PacketLabels& labels) {
    usage_.by_device[labels.packet().eth.src].insert(labels.hybrid());
  }
  [[nodiscard]] ProtocolUsage finish() { return std::move(usage_); }

 private:
  ProtocolUsage usage_;
};

ProtocolUsage protocol_usage(
    const std::vector<std::pair<SimTime, Packet>>& capture);
/// Zero-copy variant: classifies the arena-backed views directly.
ProtocolUsage protocol_usage(const CaptureStore& capture);

/// Figure 1/4: unicast device-to-device edges (multicast/broadcast and
/// router/phone endpoints excluded by the caller via `population`).
struct CommGraph {
  struct Edge {
    MacAddress a;
    MacAddress b;
    bool tcp = false;
    bool udp = false;
    std::uint64_t packets = 0;
  };
  std::vector<Edge> edges;

  [[nodiscard]] std::set<MacAddress> connected_nodes() const;
  [[nodiscard]] const Edge* find(MacAddress a, MacAddress b) const;
};

/// Incremental fold behind build_comm_graph(): per-packet edge accumulation
/// into a map keyed by the (sorted) MAC pair, flattened in key order by
/// finish() — packet arrival order never shows in the output, so the
/// streaming and batch graphs are identical by construction.
class CommGraphBuilder {
 public:
  explicit CommGraphBuilder(std::set<MacAddress> population)
      : population_(std::move(population)) {}
  void on_packet(const PacketLabels& labels);
  [[nodiscard]] CommGraph finish();

 private:
  std::set<MacAddress> population_;
  std::map<std::pair<MacAddress, MacAddress>, CommGraph::Edge> edges_;
};

CommGraph build_comm_graph(
    const std::vector<std::pair<SimTime, Packet>>& capture,
    const std::set<MacAddress>& population);
/// Zero-copy variant over the arena-backed capture.
CommGraph build_comm_graph(const CaptureStore& capture,
                           const std::set<MacAddress>& population);

}  // namespace roomnet
