#include "proto/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace roomnet {

namespace {
bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

void write_head(ByteWriter& w, std::string_view start_line,
                const HttpHeaders& headers, std::size_t body_size) {
  w.str(start_line);
  w.str("\r\n");
  bool has_length = headers.has("Content-Length");
  for (const auto& [name, value] : headers.entries()) {
    w.str(name);
    w.str(": ");
    w.str(value);
    w.str("\r\n");
  }
  if (!has_length && body_size > 0) {
    w.str("Content-Length: ");
    w.str(std::to_string(body_size));
    w.str("\r\n");
  }
  w.str("\r\n");
}

HttpHeaders owned_headers(const HttpHeadView& head) {
  HttpHeaders headers;
  head.for_each_header([&](std::string_view name, std::string_view value) {
    headers.add(std::string(name), std::string(value));
  });
  return headers;
}
}  // namespace

std::optional<HttpHeadView> view_http_head(BytesView raw) {
  const std::string_view text(reinterpret_cast<const char*>(raw.data()),
                              raw.size());
  HttpHeadView head;
  const auto line_end = text.find("\r\n");
  if (line_end == std::string_view::npos) return std::nullopt;
  const std::size_t headers_start = line_end + 2;
  for (std::size_t pos = headers_start;;) {
    const auto eol = text.find("\r\n", pos);
    if (eol == std::string_view::npos) return std::nullopt;
    if (eol == pos) {
      head.header_block = text.substr(headers_start, pos - headers_start);
      head.body_offset = pos + 2;
      break;
    }
    if (text.substr(pos, eol - pos).find(':') == std::string_view::npos)
      return std::nullopt;
    pos = eol + 2;
  }
  const std::string_view s = text.substr(0, line_end);  // the start line
  for (std::size_t i = 0; i < s.size() && head.part_count < head.parts.size();) {
    while (i < s.size() && s[i] == ' ') ++i;
    if (i >= s.size()) break;
    const auto sp = s.find(' ', i);
    if (head.part_count == head.parts.size() - 1 || sp == std::string_view::npos) {
      head.parts[head.part_count++] = s.substr(i);
      break;
    }
    head.parts[head.part_count++] = s.substr(i, sp - i);
    i = sp + 1;
  }
  return head;
}

std::optional<std::string_view> HttpHeadView::header(std::string_view name) const {
  std::optional<std::string_view> found;
  for_each_header([&](std::string_view n, std::string_view v) {
    if (!found && iequals(n, name)) found = v;
  });
  return found;
}

std::optional<std::string> HttpHeaders::get(std::string_view name) const {
  for (const auto& [n, v] : entries_)
    if (iequals(n, name)) return v;
  return std::nullopt;
}

Bytes encode_http_request(const HttpRequest& req) {
  ByteWriter w;
  write_head(w, req.method + " " + req.target + " " + req.version, req.headers,
             req.body.size());
  w.raw(req.body);
  return w.take();
}

Bytes encode_http_response(const HttpResponse& res) {
  ByteWriter w;
  write_head(w,
             res.version + " " + std::to_string(res.status) + " " + res.reason,
             res.headers, res.body.size());
  w.raw(res.body);
  return w.take();
}

std::optional<HttpRequest> decode_http_request(BytesView raw) {
  const auto head = view_http_head(raw);
  if (!head || !head->is_request()) return std::nullopt;
  HttpRequest req;
  req.method = head->parts[0];
  req.target = head->parts[1];
  req.version = head->parts[2];
  req.headers = owned_headers(*head);
  req.body.assign(raw.begin() + static_cast<std::ptrdiff_t>(head->body_offset),
                  raw.end());
  return req;
}

std::optional<HttpResponse> decode_http_response(BytesView raw) {
  const auto head = view_http_head(raw);
  if (!head || head->part_count < 2 || !head->parts[0].starts_with("HTTP/"))
    return std::nullopt;
  HttpResponse res;
  res.version = head->parts[0];
  const std::string_view code = head->parts[1];
  int status = 0;
  const auto [p, ec] = std::from_chars(code.data(), code.data() + code.size(), status);
  if (ec != std::errc{} || p != code.data() + code.size()) return std::nullopt;
  res.status = status;
  res.reason = head->part_count > 2 ? head->parts[2] : "";
  res.headers = owned_headers(*head);
  res.body.assign(raw.begin() + static_cast<std::ptrdiff_t>(head->body_offset),
                  raw.end());
  return res;
}

bool looks_like_http(BytesView payload) {
  const std::string_view text(reinterpret_cast<const char*>(payload.data()),
                              std::min<std::size_t>(payload.size(), 16));
  static constexpr std::string_view kMethods[] = {
      "GET ",    "POST ",   "PUT ",     "DELETE ", "HEAD ",
      "OPTIONS ", "HTTP/1.", "NOTIFY ", "M-SEARCH ", "SUBSCRIBE "};
  for (const auto m : kMethods)
    if (text.starts_with(m)) return true;
  return false;
}

}  // namespace roomnet
