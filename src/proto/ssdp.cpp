#include "proto/ssdp.hpp"

namespace roomnet {

Bytes encode_ssdp(const SsdpMessage& msg) {
  switch (msg.kind) {
    case SsdpKind::kMSearch: {
      HttpRequest req;
      req.method = "M-SEARCH";
      req.target = "*";
      req.headers.add("HOST", "239.255.255.250:1900");
      req.headers.add("MAN", "\"ssdp:discover\"");
      req.headers.add("MX", std::to_string(msg.mx));
      req.headers.add("ST", msg.search_target);
      if (!msg.server.empty()) req.headers.add("USER-AGENT", msg.server);
      for (const auto& [k, v] : msg.extra_headers) req.headers.add(k, v);
      return encode_http_request(req);
    }
    case SsdpKind::kNotify: {
      HttpRequest req;
      req.method = "NOTIFY";
      req.target = "*";
      req.headers.add("HOST", "239.255.255.250:1900");
      req.headers.add("NT", msg.search_target);
      req.headers.add("NTS", msg.nts.empty() ? "ssdp:alive" : msg.nts);
      if (!msg.usn.empty()) req.headers.add("USN", msg.usn);
      if (!msg.server.empty()) req.headers.add("SERVER", msg.server);
      if (!msg.location.empty()) req.headers.add("LOCATION", msg.location);
      for (const auto& [k, v] : msg.extra_headers) req.headers.add(k, v);
      return encode_http_request(req);
    }
    case SsdpKind::kResponse: {
      HttpResponse res;
      res.status = 200;
      res.reason = "OK";
      res.headers.add("CACHE-CONTROL", "max-age=1800");
      res.headers.add("EXT", "");
      if (!msg.location.empty()) res.headers.add("LOCATION", msg.location);
      if (!msg.server.empty()) res.headers.add("SERVER", msg.server);
      res.headers.add("ST", msg.search_target);
      if (!msg.usn.empty()) res.headers.add("USN", msg.usn);
      for (const auto& [k, v] : msg.extra_headers) res.headers.add(k, v);
      return encode_http_response(res);
    }
  }
  return {};
}

std::optional<SsdpMessage> decode_ssdp(BytesView raw) {
  SsdpMessage msg;
  if (auto req = decode_http_request(raw)) {
    const HttpHeaders& h = req->headers;
    if (req->method == "M-SEARCH") {
      msg.kind = SsdpKind::kMSearch;
      msg.search_target = h.get("ST").value_or("");
      msg.server = h.get("USER-AGENT").value_or("");
      if (auto mx = h.get("MX")) msg.mx = std::atoi(mx->c_str());
    } else if (req->method == "NOTIFY") {
      msg.kind = SsdpKind::kNotify;
      msg.search_target = h.get("NT").value_or("");
      msg.nts = h.get("NTS").value_or("");
      msg.usn = h.get("USN").value_or("");
      msg.server = h.get("SERVER").value_or("");
      msg.location = h.get("LOCATION").value_or("");
    } else {
      return std::nullopt;
    }
    return msg;
  }
  if (auto res = decode_http_response(raw)) {
    if (res->status != 200 || !res->headers.has("ST")) return std::nullopt;
    msg.kind = SsdpKind::kResponse;
    msg.search_target = res->headers.get("ST").value_or("");
    msg.usn = res->headers.get("USN").value_or("");
    msg.server = res->headers.get("SERVER").value_or("");
    msg.location = res->headers.get("LOCATION").value_or("");
    return msg;
  }
  return std::nullopt;
}

std::optional<std::string_view> msearch_target(BytesView raw) {
  const auto head = view_http_head(raw);
  if (!head || !head->is_request() || head->parts[0] != "M-SEARCH")
    return std::nullopt;
  return head->header("ST").value_or(std::string_view{});
}

namespace {
std::string xml_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string xml_unescape(std::string_view s) {
  std::string out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '&') {
      if (s.substr(i, 5) == "&amp;") {
        out += '&';
        i += 5;
        continue;
      }
      if (s.substr(i, 4) == "&lt;") {
        out += '<';
        i += 4;
        continue;
      }
      if (s.substr(i, 4) == "&gt;") {
        out += '>';
        i += 4;
        continue;
      }
    }
    out += s[i++];
  }
  return out;
}

/// Returns the text between <tag> and </tag>, first occurrence.
std::optional<std::string> tag_text(std::string_view xml, std::string_view tag) {
  const std::string open = "<" + std::string(tag) + ">";
  const std::string close = "</" + std::string(tag) + ">";
  const auto a = xml.find(open);
  if (a == std::string_view::npos) return std::nullopt;
  const auto b = xml.find(close, a + open.size());
  if (b == std::string_view::npos) return std::nullopt;
  return xml_unescape(xml.substr(a + open.size(), b - a - open.size()));
}
}  // namespace

std::string UpnpDeviceDescription::to_xml() const {
  std::string xml = "<?xml version=\"1.0\"?>\n";
  xml += "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n";
  xml += "<specVersion><major>1</major><minor>0</minor></specVersion>\n";
  xml += "<device>\n";
  xml += "<deviceType>" + xml_escape(device_type) + "</deviceType>\n";
  xml += "<friendlyName>" + xml_escape(friendly_name) + "</friendlyName>\n";
  xml += "<manufacturer>" + xml_escape(manufacturer) + "</manufacturer>\n";
  xml += "<modelName>" + xml_escape(model_name) + "</modelName>\n";
  xml += "<serialNumber>" + xml_escape(serial_number) + "</serialNumber>\n";
  xml += "<UDN>" + xml_escape(udn) + "</UDN>\n";
  xml += "<serviceList>\n";
  for (const auto& s : service_types)
    xml += "<service><serviceType>" + xml_escape(s) + "</serviceType></service>\n";
  xml += "</serviceList>\n</device>\n</root>\n";
  return xml;
}

std::optional<UpnpDeviceDescription> UpnpDeviceDescription::from_xml(
    std::string_view xml) {
  if (xml.find("<device>") == std::string_view::npos) return std::nullopt;
  UpnpDeviceDescription d;
  d.device_type = tag_text(xml, "deviceType").value_or("");
  d.friendly_name = tag_text(xml, "friendlyName").value_or("");
  d.manufacturer = tag_text(xml, "manufacturer").value_or("");
  d.model_name = tag_text(xml, "modelName").value_or("");
  d.serial_number = tag_text(xml, "serialNumber").value_or("");
  d.udn = tag_text(xml, "UDN").value_or("");
  std::string_view rest = xml;
  for (;;) {
    const auto a = rest.find("<serviceType>");
    if (a == std::string_view::npos) break;
    const auto b = rest.find("</serviceType>", a);
    if (b == std::string_view::npos) break;
    d.service_types.push_back(
        xml_unescape(rest.substr(a + 13, b - a - 13)));
    rest.remove_prefix(b + 14);
  }
  return d;
}

}  // namespace roomnet
