#include "sim/ssdp.hpp"

#include "proto/http.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {
/// Owning decodes by SSDP endpoints: only an on_message observer needs one.
telemetry::Counter& ssdp_decodes() {
  static telemetry::Counter& c = telemetry::Registry::global().counter(
      "roomnet_sim_app_decodes_total", {{"proto", "ssdp"}});
  return c;
}
}  // namespace

SsdpEndpoint::SsdpEndpoint(Host& host) : host_(&host) {
  host_->open_udp(
      kSsdpPort,
      [this](Host&, const PacketView& packet, const UdpDatagramView& udp) {
        handle(packet, udp);
      });
  host_->join_multicast_group(kSsdpGroupV4);
}

std::string SsdpEndpoint::location_url() const {
  return "http://" + host_->ip().to_string() + ":" + std::to_string(http_port_) +
         "/description.xml";
}

void SsdpEndpoint::set_description(UpnpDeviceDescription description,
                                   std::uint16_t http_port) {
  description_ = std::move(description);
  http_port_ = http_port;
  host_->listen_tcp(http_port_, [this](Host&, TcpConnection& conn) {
    conn.on_data = [this](TcpConnection& c, BytesView data) {
      const auto req = decode_http_request(data);
      if (!req) return;
      HttpResponse res;
      if (req->target == "/description.xml" && description_) {
        res.headers.add("Content-Type", "text/xml");
        res.headers.add("Server", server_string);
        res.body = bytes_of(description_->to_xml());
      } else {
        res.status = 404;
        res.reason = "Not Found";
      }
      c.send(encode_http_response(res));
      c.close();
    };
  });
}

SsdpMessage SsdpEndpoint::base_message(SsdpKind kind,
                                       const std::string& nt) const {
  SsdpMessage msg;
  msg.kind = kind;
  msg.search_target = nt;
  msg.server = server_string;
  if (description_) {
    msg.usn = description_->udn + "::" + nt;
    msg.location = location_url();
  }
  return msg;
}

void SsdpEndpoint::msearch(const std::string& search_target, int mx) {
  SsdpMessage msg;
  msg.kind = SsdpKind::kMSearch;
  msg.search_target = search_target;
  msg.mx = mx;
  msg.server = server_string;
  // Unicast 200 OK responses come back to the search's source port, so the
  // searching socket must listen there too.
  const std::uint16_t sport = host_->ephemeral_port();
  host_->open_udp(
      sport,
      [this](Host&, const PacketView& packet, const UdpDatagramView& udp) {
        handle(packet, udp);
      });
  host_->send_udp(kSsdpGroupV4, sport, kSsdpPort, encode_ssdp(msg));
}

void SsdpEndpoint::notify_alive() {
  for (const auto& nt : notification_types) {
    SsdpMessage msg = base_message(SsdpKind::kNotify, nt);
    msg.nts = "ssdp:alive";
    host_->send_udp(kSsdpGroupV4, host_->ephemeral_port(), kSsdpPort,
                    encode_ssdp(msg));
  }
}

void SsdpEndpoint::handle(const PacketView& packet, const UdpDatagramView& udp) {
  if (on_message) {
    ssdp_decodes().inc();
    const auto msg = decode_ssdp(udp.payload);
    if (!msg) return;
    on_message(packet, *msg);
  }
  // Filter on the wire: only an IPv4 M-SEARCH for one of our targets earns
  // a response, and its ST header is all the decision needs.
  if (!respond_to_msearch || !packet.ipv4) return;
  const auto st = msearch_target(udp.payload);
  if (!st) return;
  bool match = *st == "ssdp:all";
  for (const auto& nt : notification_types) match = match || *st == nt;
  if (!match) return;

  SsdpMessage response = base_message(SsdpKind::kResponse,
                                      *st == "ssdp:all" && !notification_types.empty()
                                          ? notification_types.front()
                                          : std::string(*st));
  // Unicast back to the searcher's source port.
  host_->send_udp(packet.ipv4->src, kSsdpPort, value(udp.src_port),
                  encode_ssdp(response));
}

}  // namespace roomnet
