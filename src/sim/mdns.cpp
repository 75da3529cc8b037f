#include "sim/mdns.hpp"

#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {
/// Owning decodes by mDNS endpoints: only an on_message observer needs one.
telemetry::Counter& dns_decodes() {
  static telemetry::Counter& c = telemetry::Registry::global().counter(
      "roomnet_sim_app_decodes_total", {{"proto", "dns"}});
  return c;
}
}  // namespace

MdnsEndpoint::MdnsEndpoint(Host& host) : host_(&host) {
  host_->open_udp(
      kMdnsPort,
      [this](Host&, const PacketView& packet, const UdpDatagramView& udp) {
        handle(packet, udp);
      });
  host_->join_multicast_group(kMdnsGroupV4);
}

void MdnsEndpoint::query(const std::string& service_type, bool unicast_response) {
  DnsMessage msg;
  DnsQuestion q;
  q.name = DnsName::from_string(service_type);
  q.type = DnsType::kPtr;
  q.unicast_response = unicast_response;
  msg.questions.push_back(std::move(q));
  const Bytes raw = encode_dns(msg);
  host_->send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, raw);
  if (host_->ipv6_enabled())
    host_->send_udp_v6(Ipv6Address::mdns_group(), kMdnsPort, kMdnsPort, raw);
}

void MdnsEndpoint::announce() {
  for (const auto& service : services_)
    send_message(build_answer(service), /*unicast=*/false, kMdnsGroupV4);
}

DnsMessage MdnsEndpoint::build_answer(const MdnsService& service) const {
  DnsMessage msg;
  msg.is_response = true;
  msg.authoritative = true;
  const DnsName type_name = DnsName::from_string(service.service_type);
  DnsName instance_name = type_name;
  instance_name.labels.insert(instance_name.labels.begin(), service.instance);
  const DnsName host_name = DnsName::from_string(
      hostname_.empty() ? host_->label() + ".local" : hostname_);

  msg.answers.push_back(DnsRecord::make_ptr(type_name, instance_name));
  SrvData srv;
  srv.port = service.port;
  srv.target = host_name;
  msg.answers.push_back(DnsRecord::make_srv(instance_name, srv));
  if (!service.txt.empty())
    msg.answers.push_back(DnsRecord::make_txt(instance_name, service.txt));
  msg.additional.push_back(DnsRecord::make_a(host_name, host_->ip()));
  if (host_->ipv6_enabled())
    msg.additional.push_back(
        DnsRecord::make_aaaa(host_name, host_->link_local()));
  return msg;
}

void MdnsEndpoint::send_message(const DnsMessage& msg, bool unicast,
                                Ipv4Address to) {
  const Bytes raw = encode_dns(msg);
  if (unicast) {
    host_->send_udp(to, kMdnsPort, kMdnsPort, raw);
  } else {
    host_->send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, raw);
  }
}

void MdnsEndpoint::handle(const PacketView& packet, const UdpDatagramView& udp) {
  if (on_message) {
    dns_decodes().inc();
    const auto msg = decode_dns(udp.payload);
    if (!msg) return;
    on_message(packet, *msg);
  }
  // Filter on the wire: only a well-formed IPv4 query naming one of our
  // services earns an answer, and neither check needs an owning decode.
  if (services_.empty() || !packet.ipv4) return;
  const auto view = DnsView::of(udp.payload);
  if (!view || view->is_response() || !view->valid()) return;

  DnsView::Cursor cursor = view->entries();
  DnsEntryView q;
  while (cursor.next(q) && q.section == DnsSection::kQuestion) {
    if (q.type != DnsType::kPtr && q.type != DnsType::kAny) continue;
    for (const auto& service : services_) {
      // The DNS-SD meta-query is answered only by full Bonjour stacks (the
      // same ones that honor QU unicast responses); many embedded mDNS
      // responders only match their own service type.
      const bool match =
          q.name.equals(service.service_type) ||
          (answer_unicast && q.name.equals("_services._dns-sd._udp.local"));
      if (!match) continue;
      const DnsMessage answer = build_answer(service);
      if (q.unicast_response() && answer_unicast) {
        send_message(answer, /*unicast=*/true, packet.ipv4->src);
      } else if (answer_multicast) {
        send_message(answer, /*unicast=*/false, kMdnsGroupV4);
      } else if (answer_unicast) {
        send_message(answer, /*unicast=*/true, packet.ipv4->src);
      }
    }
  }
}

}  // namespace roomnet
