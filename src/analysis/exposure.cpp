#include "analysis/exposure.hpp"

#include <array>
#include <cstring>
#include <string_view>

#include "analysis/identifiers.hpp"
#include "classify/classifier.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"

namespace roomnet {

std::string to_string(ExposedData data) {
  switch (data) {
    case ExposedData::kMac: return "MAC";
    case ExposedData::kDeviceModel: return "Device/Model";
    case ExposedData::kOsVersion: return "OS Version";
    case ExposedData::kDisplayName: return "Display name";
    case ExposedData::kUuid: return "UUIDs";
    case ExposedData::kGwId: return "GWid";
    case ExposedData::kProductKey: return "Prod.Key";
    case ExposedData::kOemId: return "OEMid";
    case ExposedData::kGeolocation: return "Geolocation";
    case ExposedData::kOutdatedSoftware: return "Outdated OS/SW";
  }
  return "?";
}

const std::vector<ProtocolLabel>& exposure_protocols() {
  static const std::vector<ProtocolLabel> protocols = {
      ProtocolLabel::kArp,    ProtocolLabel::kDhcp, ProtocolLabel::kMdns,
      ProtocolLabel::kSsdp,   ProtocolLabel::kTuyaLp,
      ProtocolLabel::kTplinkShp};
  return protocols;
}

const std::vector<ExposedData>& exposure_data_types() {
  static const std::vector<ExposedData> types = {
      ExposedData::kMac,        ExposedData::kDeviceModel,
      ExposedData::kOsVersion,  ExposedData::kDisplayName,
      ExposedData::kUuid,       ExposedData::kGwId,
      ExposedData::kProductKey, ExposedData::kOemId,
      ExposedData::kGeolocation, ExposedData::kOutdatedSoftware};
  return types;
}

namespace {

/// Vendor model names we recognize in hostname strings (the analyst's
/// lexicon; real analysts grep for catalog model names the same way).
bool looks_like_model_name(const std::string& text) {
  static const char* kVendors[] = {
      "Echo",   "Nest",  "Ring",  "Hue",     "Kasa",   "Roku",  "WeMo",
      "Camera", "Plug",  "Bulb",  "TV",      "Hub",    "Fridge", "Doorbell",
      "Chime",  "HomePod", "Portal", "Switch", "Scale", "Sensor"};
  for (const char* v : kVendors)
    if (text.find(v) != std::string::npos) return true;
  return false;
}

bool contains_mac_like(const std::string& text) {
  if (!extract_macs(text).empty()) return true;
  // Bare-hex tails (e.g. "Tuya-BBCC12", "Philips Hue - 685F61"): 6+ hex
  // chars directly appended to a name.
  int run = 0;
  for (char c : text) {
    if (std::isxdigit(static_cast<unsigned char>(c))) {
      if (++run >= 6) return true;
    } else {
      run = 0;
    }
  }
  return false;
}

bool old_dhcp_client(const std::string& vendor_class) {
  // Old or custom clients (§5.1: 37 devices incl. Amazon/Google).
  return vendor_class.find("udhcp 0.") != std::string::npos ||
         vendor_class.find("udhcp 1.14") != std::string::npos ||
         vendor_class.find("dhcpcd-5") != std::string::npos ||
         vendor_class.find("Google-Dhcp") != std::string::npos ||
         vendor_class.find("RTOS") != std::string::npos;
}

/// Word-at-a-time 64-bit hash of a memo key. Its quality only decides how
/// often two keys share an index slot; equality is always checked on bytes.
std::uint64_t key_hash(const std::uint8_t* head, std::size_t head_size,
                       BytesView payload) {
  std::uint64_t h = (head_size + payload.size()) * 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const std::size_t take = n < 8 ? n : 8;
      std::uint64_t word = 0;
      std::memcpy(&word, p, take);
      h = (h ^ word) * 0xbf58476d1ce4e5b9ull;
      h ^= h >> 31;
      p += take;
      n -= take;
    }
  };
  mix(head, head_size);
  mix(payload.data(), payload.size());
  return h == 0 ? 1 : h;  // FlatMap keys are nonzero
}

}  // namespace

bool AnnouncementMemo::repeat(MacAddress src, ProtocolLabel protocol,
                              BytesView payload) {
  std::array<std::uint8_t, 7> head{};
  std::memcpy(head.data(), src.octets().data(), 6);
  head[6] = static_cast<std::uint8_t>(protocol);
  const std::uint64_t hash = key_hash(head.data(), head.size(), payload);
  const std::size_t size = head.size() + payload.size();
  if (const Entry* entry = index_.find(hash)) {
    // A hash hit is a repeat only if the stored bytes match. On a collision
    // this key stays unrecorded and is extracted every time — still exact.
    return entry->size == size &&
           std::memcmp(store_.data() + entry->offset, head.data(),
                       head.size()) == 0 &&
           (payload.empty() ||
            std::memcmp(store_.data() + entry->offset + head.size(),
                        payload.data(), payload.size()) == 0);
  }
  std::size_t& used = source_bytes_.insert(src.to_u64() + 1);
  if (used + size > kBytesPerSource) return false;
  used += size;
  const std::size_t offset = store_.size();
  index_.insert(hash) = Entry{offset, size};
  store_.resize(offset + size);
  std::memcpy(store_.data() + offset, head.data(), head.size());
  if (!payload.empty())
    std::memcpy(store_.data() + offset + head.size(), payload.data(),
                payload.size());
  return false;
}

bool ExposureBuilder::on_packet(const PacketView& packet) {
  const MacAddress src = packet.eth.src;
  const auto mark = [&](ProtocolLabel protocol, ExposedData data,
                        MacAddress device) {
    matrix_.cells[{protocol, data}].insert(device);
  };

  // ----- ARP: every request/reply broadcasts sender MAC/IP bindings.
  if (packet.arp) {
    mark(ProtocolLabel::kArp, ExposedData::kMac, src);
    return false;
  }

  // ----- SSDP's linked UPnP description exposes MAC/model via serialNumber
  // in the XML (fetched over HTTP — TCP flows). Historically a second scan
  // over the capture; TCP and the UDP extractions below are disjoint per
  // packet, so one pass marks the same cells.
  if (packet.tcp) {
    const BytesView wire = packet.app_payload();
    if (std::string_view(reinterpret_cast<const char*>(wire.data()),
                         wire.size())
            .find("<serialNumber>") == std::string_view::npos)
      return false;
    const std::string text = string_of(wire);
    const auto desc_start = text.find("<?xml");
    const auto desc = UpnpDeviceDescription::from_xml(
        desc_start == std::string::npos ? text : text.substr(desc_start));
    if (!desc) return false;
    if (!extract_macs(desc->serial_number).empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kMac, src);
    if (!desc->model_name.empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kDeviceModel, src);
    return false;
  }

  if (!packet.udp) return false;
  const BytesView payload = packet.app_payload();
  const std::uint16_t dport = value(*packet.dst_port());
  const std::uint16_t sport = value(*packet.src_port());

  // ----- DHCP
  if (dport == kDhcpServerPort || dport == kDhcpClientPort) {
    const auto msg = decode_dhcp(payload);
    if (!msg || !msg->is_request) return false;
    mark(ProtocolLabel::kDhcp, ExposedData::kMac, src);  // chaddr on wire
    if (const auto hostname = msg->hostname()) {
      if (looks_like_model_name(*hostname))
        mark(ProtocolLabel::kDhcp, ExposedData::kDeviceModel, src);
      if (hostname->find("Jane") != std::string::npos ||
          !extract_possessive_names(*hostname).empty())
        mark(ProtocolLabel::kDhcp, ExposedData::kDisplayName, src);
    }
    if (const auto vc = msg->vendor_class()) {
      mark(ProtocolLabel::kDhcp, ExposedData::kOsVersion, src);
      if (old_dhcp_client(*vc))
        mark(ProtocolLabel::kDhcp, ExposedData::kOutdatedSoftware, src);
    }
    return false;
  }

  // ----- mDNS
  if (dport == kMdnsPort || sport == kMdnsPort) {
    if (memo_.repeat(src, ProtocolLabel::kMdns, payload)) return false;
    const auto text = mdns_response_text(payload);
    if (!text) return true;
    const std::string& all_text = *text;
    if (contains_mac_like(all_text))
      mark(ProtocolLabel::kMdns, ExposedData::kMac, src);
    if (!extract_uuids(all_text).empty())
      mark(ProtocolLabel::kMdns, ExposedData::kUuid, src);
    if (!extract_possessive_names(all_text).empty() ||
        all_text.find("Jane") != std::string::npos)
      mark(ProtocolLabel::kMdns, ExposedData::kDisplayName, src);
    if (looks_like_model_name(all_text))
      mark(ProtocolLabel::kMdns, ExposedData::kDeviceModel, src);
    return true;
  }

  // ----- SSDP (and the UPnP description it links to)
  if (dport == kSsdpPort || sport == kSsdpPort) {
    if (memo_.repeat(src, ProtocolLabel::kSsdp, payload)) return false;
    const auto msg = decode_ssdp(payload);
    if (!msg) return true;
    const std::string text = msg->usn + " " + msg->server + " " + msg->location;
    if (!extract_uuids(text).empty())
      mark(ProtocolLabel::kSsdp, ExposedData::kUuid, src);
    if (!msg->server.empty()) {
      mark(ProtocolLabel::kSsdp, ExposedData::kOsVersion, src);
      if (msg->server.find("UPnP/1.0") != std::string::npos)
        mark(ProtocolLabel::kSsdp, ExposedData::kOutdatedSoftware, src);
    }
    return true;
  }

  // ----- TuyaLP
  if (dport == kTuyaPortPlain || dport == kTuyaPortEncrypted) {
    const auto d = decode_tuya_discovery(payload);
    if (!d) return false;
    if (!d->gw_id.empty()) mark(ProtocolLabel::kTuyaLp, ExposedData::kGwId, src);
    if (!d->product_key.empty())
      mark(ProtocolLabel::kTuyaLp, ExposedData::kProductKey, src);
    return false;
  }

  // ----- TPLINK-SHP
  if (dport == kTplinkPort || sport == kTplinkPort) {
    const auto body = decode_tplink_udp(payload);
    if (!body) return false;
    const auto info = TplinkSysinfo::from_json(*body);
    if (!info) return false;
    if (!info->mac.empty())
      mark(ProtocolLabel::kTplinkShp, ExposedData::kMac, src);
    if (!info->model.empty() || !info->dev_name.empty())
      mark(ProtocolLabel::kTplinkShp, ExposedData::kDeviceModel, src);
    if (!info->oem_id.empty())
      mark(ProtocolLabel::kTplinkShp, ExposedData::kOemId, src);
    if (info->latitude != 0 || info->longitude != 0)
      mark(ProtocolLabel::kTplinkShp, ExposedData::kGeolocation, src);
  }
  return false;
}

ExposureMatrix analyze_exposure(
    const std::vector<std::pair<SimTime, Packet>>& capture) {
  ExposureBuilder builder;
  for (const auto& [at, packet] : capture) builder.on_packet(as_view(packet));
  return builder.finish();
}

ExposureMatrix analyze_exposure(const CaptureStore& capture) {
  ExposureBuilder builder;
  for (std::size_t i = 0; i < capture.size(); ++i)
    builder.on_packet(capture.packet(i));
  return builder.finish();
}

}  // namespace roomnet
