#include "analysis/overview.hpp"

#include <algorithm>

namespace roomnet {

std::size_t ProtocolUsage::devices_using(
    ProtocolLabel label, const std::set<MacAddress>& population) const {
  std::size_t count = 0;
  for (const auto& [mac, labels] : by_device) {
    if (population.count(mac) == 0) continue;
    count += labels.count(label);
  }
  return count;
}

std::set<ProtocolLabel> ProtocolUsage::all_labels() const {
  std::set<ProtocolLabel> out;
  for (const auto& [mac, labels] : by_device) out.insert(labels.begin(), labels.end());
  return out;
}

// Both batch entry points are loops over the incremental builder, so the
// batch and streaming tabulations cannot drift apart (a Packet and its
// as_view() mirror label the same field-for-field by construction).
ProtocolUsage protocol_usage(
    const std::vector<std::pair<SimTime, Packet>>& capture) {
  ProtocolUsageBuilder builder;
  for (const auto& [at, packet] : capture) {
    const PacketView view = as_view(packet);
    builder.on_packet(PacketLabels(view));
  }
  return builder.finish();
}

ProtocolUsage protocol_usage(const CaptureStore& capture) {
  ProtocolUsageBuilder builder;
  for (std::size_t i = 0; i < capture.size(); ++i) {
    const PacketView view = capture.packet(i);
    builder.on_packet(PacketLabels(view));
  }
  return builder.finish();
}

std::set<MacAddress> CommGraph::connected_nodes() const {
  std::set<MacAddress> nodes;
  for (const auto& edge : edges) {
    nodes.insert(edge.a);
    nodes.insert(edge.b);
  }
  return nodes;
}

const CommGraph::Edge* CommGraph::find(MacAddress a, MacAddress b) const {
  for (const auto& edge : edges) {
    if ((edge.a == a && edge.b == b) || (edge.a == b && edge.b == a))
      return &edge;
  }
  return nullptr;
}

void CommGraphBuilder::on_packet(const PacketLabels& labels) {
  const PacketView& packet = labels.packet();
  if (packet.eth.dst.is_multicast()) return;  // Figure 1 excludes these
  if (!packet.has_transport()) return;
  if (population_.count(packet.eth.src) == 0 ||
      population_.count(packet.eth.dst) == 0)
    return;
  // Figure 1 shows "neither multicast- and broadcast-discovery protocols"
  // — unicast discovery responses are part of those exchanges and are
  // excluded too.
  if (is_discovery_protocol(labels.hybrid())) return;
  MacAddress a = packet.eth.src;
  MacAddress b = packet.eth.dst;
  if (b < a) std::swap(a, b);
  auto& edge = edges_[{a, b}];
  edge.a = a;
  edge.b = b;
  edge.tcp = edge.tcp || packet.tcp.has_value();
  edge.udp = edge.udp || packet.udp.has_value();
  ++edge.packets;
}

CommGraph CommGraphBuilder::finish() {
  CommGraph graph;
  graph.edges.reserve(edges_.size());
  for (auto& [key, edge] : edges_) graph.edges.push_back(edge);
  edges_.clear();
  return graph;
}

CommGraph build_comm_graph(
    const std::vector<std::pair<SimTime, Packet>>& capture,
    const std::set<MacAddress>& population) {
  CommGraphBuilder builder(population);
  for (const auto& [at, packet] : capture) {
    const PacketView view = as_view(packet);
    builder.on_packet(PacketLabels(view));
  }
  return builder.finish();
}

CommGraph build_comm_graph(const CaptureStore& capture,
                           const std::set<MacAddress>& population) {
  CommGraphBuilder builder(population);
  for (std::size_t i = 0; i < capture.size(); ++i) {
    const PacketView view = capture.packet(i);
    builder.on_packet(PacketLabels(view));
  }
  return builder.finish();
}

}  // namespace roomnet
