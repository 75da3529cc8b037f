#include "watch/watch.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet::watch {

namespace {

constexpr std::uint8_t kProtoTcp = 6;

std::string flow_ref(const char* proto, Ipv4Address src_ip,
                     std::uint16_t src_port, Ipv4Address dst_ip,
                     std::uint16_t dst_port) {
  // Single formatting pass (same bytes as to_string-based concatenation):
  // flow refs are built for every emitted event, on the tap path.
  const std::uint32_t s = src_ip.value();
  const std::uint32_t d = dst_ip.value();
  char buf[64];
  const int n = std::snprintf(
      buf, sizeof(buf), "%s %u.%u.%u.%u:%u>%u.%u.%u.%u:%u", proto,
      (s >> 24) & 0xff, (s >> 16) & 0xff, (s >> 8) & 0xff, s & 0xff,
      static_cast<unsigned>(src_port), (d >> 24) & 0xff, (d >> 16) & 0xff,
      (d >> 8) & 0xff, d & 0xff, static_cast<unsigned>(dst_port));
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string packet_flow_ref(const PacketView& packet) {
  if (!packet.ipv4 || !packet.has_transport()) return {};
  return flow_ref(packet.tcp ? "tcp" : "udp", packet.ipv4->src,
                  value(*packet.src_port()), packet.ipv4->dst,
                  value(*packet.dst_port()));
}

}  // namespace


Watcher::Watcher(const WatchConfig& config) : config_(config) {
  auto& registry = telemetry::Registry::global();
  for (std::size_t i = 0; i < kNetEventTypeCount; ++i)
    events_counters_[i] = &registry.counter(
        "roomnet_watch_events_total",
        {{"type", to_string(static_cast<NetEventType>(i))}});
  dropped_counter_ = &registry.counter("roomnet_watch_events_dropped_total");
  devices_gauge_ = &registry.gauge("roomnet_watch_devices");

  RuleParse parsed =
      parse_rules(config_.rules.empty() ? default_rules() : config_.rules);
  rule_error_ = parsed.error;
  engine_ = std::make_unique<RuleEngine>(
      std::move(parsed.rules), config_.tick,
      [this](SimTime at, const RuleEngine::Transition& transition) {
        emit_alert(at, transition);
      });
  for (const AlertRule& rule : engine_->rules()) {
    fired_counters_.push_back(&registry.counter(
        "roomnet_watch_alerts_fired_total", {{"rule", rule.name}}));
    resolved_counters_.push_back(&registry.counter(
        "roomnet_watch_alerts_resolved_total", {{"rule", rule.name}}));
    if (rule.kind == RuleKind::kThreshold &&
        rule.source.rfind("metric:", 0) == 0) {
      const std::string name = rule.source.substr(7);
      const telemetry::Counter& counter = registry.counter(name);
      metric_sources_.emplace(name, std::make_pair(&counter, counter.value()));
    }
  }
  engine_->set_metric_reader(
      [this](const std::string& name) -> std::optional<std::int64_t> {
        const auto it = metric_sources_.find(name);
        if (it == metric_sources_.end()) return std::nullopt;
        return static_cast<std::int64_t>(it->second.first->value() -
                                         it->second.second);
      });
  // The all-zero MAC owns network-wide (metric-rule) alerts; it is not a
  // real device, so it never joins the absence population.
  devices_[MacAddress{}].label = "network";
}

void Watcher::register_device(MacAddress mac, std::string label) {
  devices_[mac].label = std::move(label);
  engine_->register_device(mac);
}

void Watcher::add_known_resolver(Ipv4Address ip) {
  engine_->seed_label("resolver", ip.to_string());
}

Watcher::DeviceState& Watcher::device(MacAddress mac) {
  DeviceState*& slot = device_index_.insert(mac.to_u64() + 1);
  if (slot == nullptr) {
    const auto [it, inserted] = devices_.try_emplace(mac);
    if (inserted) it->second.label = mac.to_string();
    slot = &it->second;
  }
  return *slot;
}

void Watcher::emit(NetEvent event) {
  if (finished_) return;  // late signals after finish() cannot resurface
  DeviceState& dev = device(event.device);
  event.device_label = dev.label;
  event.seq = next_seq_++;
  std::sort(event.fields.begin(), event.fields.end());
  ++emitted_;
  events_counters_[static_cast<std::size_t>(event.type)]->inc();
  // Alerts never feed back into the engine (no self-amplification).
  if (event.type != NetEventType::kAlert) engine_->on_event(event);
  if (config_.ring_capacity > 0 && dev.ring.size() >= config_.ring_capacity) {
    dev.ring.pop_front();
    ++dev.dropped;
    dropped_counter_->inc();
  }
  dev.ring.push_back(std::move(event));
}

void Watcher::emit_alert(SimTime at, const RuleEngine::Transition& transition) {
  NetEvent event;
  event.at = at;
  event.type = NetEventType::kAlert;
  event.fields.reserve(4);
  event.severity =
      transition.firing ? transition.rule->severity : Severity::kInfo;
  event.device = transition.device;
  event.fields.emplace_back("rule", transition.rule->name);
  event.fields.emplace_back("state",
                            transition.firing ? "firing" : "resolved");
  event.fields.emplace_back("value", std::to_string(transition.value));
  if (!transition.detail.empty())
    event.fields.emplace_back("detail", transition.detail);
  const auto index = static_cast<std::size_t>(
      transition.rule - engine_->rules().data());
  (transition.firing ? fired_counters_ : resolved_counters_)[index]->inc();
  emit(std::move(event));
}

void Watcher::on_packet(SimTime at, const PacketView& packet) {
  ++packets_;
  if (clock_ < at) clock_ = at;
  const MacAddress src = packet.eth.src;
  DeviceState& dev = device(src);
  if (packet.ipv4)
    ip_index_.insert(std::uint64_t{packet.ipv4->src.value()} + 1) = src;
  // Activity first: this also advances the engine clock, so catch-up ticks
  // (absence checks, rate-window resolution) land before this packet's own
  // events in the seq order. With no absence instance firing the stamp is a
  // plain store into the engine's (stable) last-activity slot; otherwise the
  // full on_activity runs so the firing can resolve.
  engine_->advance(at);
  if (engine_->absence_firing()) {
    engine_->on_activity(at, src);
  } else {
    if (dev.activity_slot == nullptr)
      dev.activity_slot = engine_->activity_slot(src);
    *dev.activity_slot = at;
  }

  // --- dhcp_lease: a DHCP ACK binds client MAC -> IP --------------------
  if (packet.udp && value(packet.udp->dst_port) == kDhcpClientPort) {
    if (const auto msg = decode_dhcp(packet.udp->payload);
        msg && msg->message_type() == DhcpMessageType::kAck) {
      NetEvent event;
      event.at = at;
      event.type = NetEventType::kDhcpLease;
      event.fields.reserve(2);
      event.severity = Severity::kInfo;
      event.device = msg->client_mac;
      event.flow = packet_flow_ref(packet);
      event.fields.emplace_back("ip", msg->yiaddr.to_string());
      if (const auto hostname = msg->hostname(); hostname && !hostname->empty())
        event.fields.emplace_back("hostname", *hostname);
      emit(std::move(event));
    }
  }

  // --- dns_query: unicast DNS to a resolver -----------------------------
  if (packet.udp && packet.ipv4 && value(packet.udp->dst_port) == 53 &&
      !packet.ipv4->dst.is_multicast()) {
    if (const auto msg = decode_dns(packet.udp->payload);
        msg && !msg->is_response && !msg->questions.empty()) {
      NetEvent event;
      event.at = at;
      event.type = NetEventType::kDnsQuery;
      event.fields.reserve(2);
      event.severity = Severity::kInfo;
      event.device = src;
      event.flow = packet_flow_ref(packet);
      event.fields.emplace_back("qname", msg->questions[0].name.to_string());
      event.fields.emplace_back("resolver", packet.ipv4->dst.to_string());
      emit(std::move(event));
    }
  }

  // --- discovery_burst: mDNS questions / SSDP M-SEARCH fan-out ----------
  bool is_discovery = false;
  if (packet.udp && value(packet.udp->dst_port) == kMdnsPort) {
    // Header peek (QR bit clear): no decode on every multicast datagram.
    const auto dns = DnsView::of(packet.udp->payload);
    is_discovery = dns && !dns->is_response();
  } else if (packet.udp && value(packet.udp->dst_port) == kSsdpPort) {
    // Start-line peek: NOTIFY storms vastly outnumber M-SEARCHes, and only
    // an M-SEARCH needs its head checked, in place.
    const BytesView payload = packet.udp->payload;
    is_discovery = payload.size() >= 8 &&
                   std::memcmp(payload.data(), "M-SEARCH", 8) == 0 &&
                   msearch_target(payload).has_value();
  }
  if (is_discovery) {
    dev.discovery.push_back(at);
    while (!dev.discovery.empty() &&
           at - dev.discovery.front() > config_.burst_window)
      dev.discovery.pop_front();
    if (static_cast<int>(dev.discovery.size()) >= config_.burst_threshold &&
        at >= dev.burst_until) {
      dev.burst_until = at + config_.burst_window;
      NetEvent event;
      event.at = at;
      event.type = NetEventType::kDiscoveryBurst;
      event.fields.reserve(2);
      event.severity = Severity::kNotice;
      event.device = src;
      event.flow = packet_flow_ref(packet);
      event.fields.emplace_back(
          "queries", std::to_string(dev.discovery.size()));
      event.fields.emplace_back(
          "window_s", std::to_string(config_.burst_window.us() / 1'000'000));
      emit(std::move(event));
    }
  }

  // --- scan_probe: first SYN toward a never-probed (ip, port) -----------
  if (packet.tcp && packet.ipv4 && packet.tcp->flags.syn &&
      !packet.tcp->flags.ack &&
      dev.probed.size() < config_.max_tracked_per_device) {
    const std::uint64_t target =
        ((std::uint64_t{packet.ipv4->dst.value()} << 16) |
         value(packet.tcp->dst_port)) +
        1;
    if (char& seen = dev.probed.insert(target); seen == 0) {
      seen = 1;
      NetEvent event;
      event.at = at;
      event.type = NetEventType::kScanProbe;
      event.severity = Severity::kWarning;
      event.device = src;
      event.flow = packet_flow_ref(packet);
      event.fields.emplace_back("target",
                                packet.ipv4->dst.to_string() + ":" +
                                    std::to_string(value(packet.tcp->dst_port)));
      emit(std::move(event));
    }
  }

  // --- tls_handshake: ClientHello metadata (version, SNI) ---------------
  if (packet.tcp && packet.tcp->payload.size() > 5 &&
      packet.tcp->payload[0] ==
          static_cast<std::uint8_t>(TlsRecordType::kHandshake) &&
      packet.tcp->payload[5] ==
          static_cast<std::uint8_t>(TlsHandshakeType::kClientHello)) {
    if (const auto record = decode_tls_record(packet.tcp->payload)) {
      if (const auto hello = decode_client_hello(*record)) {
        NetEvent event;
        event.at = at;
        event.type = NetEventType::kTlsHandshake;
        event.severity = Severity::kInfo;
        event.device = src;
        event.flow = packet_flow_ref(packet);
        event.fields.emplace_back("version", to_string(hello->version));
        if (!hello->sni.empty())
          event.fields.emplace_back("sni", hello->sni);
        emit(std::move(event));
      }
    }
  }

  // --- new_peer: first unicast conversation partner ---------------------
  if (!packet.eth.dst.is_multicast() && packet.eth.dst != dev.last_peer &&
      dev.peers.size() < config_.max_tracked_per_device) {
    if (char& seen = dev.peers.insert(packet.eth.dst.to_u64() + 1);
        seen == 0) {
      seen = 1;
      NetEvent event;
      event.at = at;
      event.type = NetEventType::kNewPeer;
      event.severity = Severity::kInfo;
      event.device = src;
      event.flow = packet_flow_ref(packet);
      event.fields.emplace_back("peer", device(packet.eth.dst).label);
      emit(std::move(event));
    }
  }
  if (!packet.eth.dst.is_multicast()) dev.last_peer = packet.eth.dst;
}

void Watcher::on_flow(const FlowRecord& record, PruneReason /*reason*/) {
  // Short exchanges say nothing about upload asymmetry; the floor keeps
  // three-packet handshakes from scoring 100%. Multicast/broadcast flows
  // (mDNS queries, DHCP offers) are one-way by design — 100% "upload" is
  // their normal shape, not exfiltration.
  if (record.packets < 10) return;
  if (record.key.server_ip.is_multicast() || record.key.server_ip.is_broadcast() ||
      record.key.server_ip.is_subnet_broadcast24()) {
    return;
  }
  const MacAddress* mapped =
      ip_index_.find(std::uint64_t{record.key.client_ip.value()} + 1);
  const MacAddress device_mac = mapped != nullptr ? *mapped : MacAddress{};
  const auto pct = static_cast<std::int64_t>(
      (record.client_packets * 100) / record.packets);
  engine_->on_flow_signal(
      record.last_seen, device_mac,
      flow_ref(record.key.protocol == kProtoTcp ? "tcp" : "udp",
               record.key.client_ip, value(record.key.client_port),
               record.key.server_ip, value(record.key.server_port)),
      pct);
}

void Watcher::on_fate(SimTime at, MacAddress src,
                      const Switch::FrameFate& fate, std::size_t frame_size) {
  if (clock_ < at) clock_ = at;
  engine_->advance(at);
  std::string anomaly;
  const auto add = [&](const char* what) {
    if (!anomaly.empty()) anomaly += ",";
    anomaly += what;
  };
  if (fate.drop) add("drop");
  if (fate.copies > 1) add("duplicate");
  if (fate.extra_delay.us() > 0) add("delay");
  if (fate.truncate_to != 0 && fate.truncate_to < frame_size) add("truncate");
  if (fate.corrupt_mask != 0 && fate.corrupt_at < frame_size) add("corrupt");
  if (anomaly.empty()) return;
  NetEvent event;
  event.at = at;
  event.type = NetEventType::kFault;
  event.fields.reserve(2);
  event.severity = Severity::kNotice;
  event.device = src;
  event.fields.emplace_back("anomaly", std::move(anomaly));
  event.fields.emplace_back("frame_bytes", std::to_string(frame_size));
  emit(std::move(event));
}

void Watcher::on_churn(SimTime at, MacAddress mac, const std::string& label,
                       bool online) {
  if (clock_ < at) clock_ = at;
  engine_->advance(at);
  if (!devices_.contains(mac)) register_device(mac, label);
  NetEvent event;
  event.at = at;
  event.type = NetEventType::kChurn;
  event.severity = online ? Severity::kInfo : Severity::kNotice;
  event.device = mac;
  event.fields.emplace_back("state", online ? "online" : "offline");
  emit(std::move(event));
}

WatchReport Watcher::finish() {
  WatchReport report;
  // Final engine sweep first: lingering firings resolve (or absence rules
  // fire) at the run's last signal time and still make the timeline.
  report.alerts = engine_->finish(clock_);
  finished_ = true;
  report.packets_seen = packets_;
  report.events_emitted = emitted_;
  for (auto& [mac, dev] : devices_) {
    report.events_dropped += dev.dropped;
    for (NetEvent& event : dev.ring) report.events.push_back(std::move(event));
    dev.ring.clear();
  }
  std::sort(report.events.begin(), report.events.end(),
            [](const NetEvent& a, const NetEvent& b) { return a.seq < b.seq; });
  report.devices_tracked = devices_.size();
  devices_gauge_->set(static_cast<std::int64_t>(devices_.size()));
  return report;
}

}  // namespace roomnet::watch
