// HTTP/1.1 message codec (requests and responses, header multimap,
// Content-Length bodies). Plaintext HTTP is a §5.2 threat surface: 33 lab
// devices speak it, some exposing User-Agent strings with OS/firmware
// versions, backup files, and unauthenticated camera snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netcore/bytes.hpp"

namespace roomnet {

/// Ordered case-insensitive header list (order matters for fingerprinting).
class HttpHeaders {
 public:
  void add(std::string name, std::string value) {
    entries_.emplace_back(std::move(name), std::move(value));
  }
  /// First matching header value (case-insensitive name match).
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const { return get(name).has_value(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& entries()
      const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  HttpHeaders headers;
  Bytes body;
};

struct HttpResponse {
  std::string version = "HTTP/1.1";
  int status = 200;
  std::string reason = "OK";
  HttpHeaders headers;
  Bytes body;
};

/// Serializers add Content-Length automatically when a body is present and
/// the header is absent.
Bytes encode_http_request(const HttpRequest& req);
Bytes encode_http_response(const HttpResponse& res);

/// Allocation-free view of an HTTP/1.x message head, as slices of the
/// payload. view_http_head accepts exactly the heads the decoders below
/// parse: a CRLF-terminated start line, header lines that each hold a ':',
/// and the blank line that ends the head.
struct HttpHeadView {
  /// The start line split at spaces into at most three parts, the last one
  /// taking the rest of the line: method/target/version for a request,
  /// version/status/reason for a response.
  std::array<std::string_view, 3> parts{};
  std::size_t part_count = 0;
  /// The header lines, each terminated by CRLF.
  std::string_view header_block;
  std::size_t body_offset = 0;

  /// Calls on_header(name, value) for each header line in order; the value
  /// has its leading spaces removed.
  template <class OnHeader>
  void for_each_header(OnHeader&& on_header) const {
    std::string_view rest = header_block;
    while (!rest.empty()) {
      const auto eol = rest.find("\r\n");
      const std::string_view line = rest.substr(0, eol);
      rest.remove_prefix(eol + 2);
      const auto colon = line.find(':');
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      on_header(line.substr(0, colon), value);
    }
  }
  /// A request line as decode_http_request requires: three parts, the
  /// last an HTTP version.
  [[nodiscard]] bool is_request() const {
    return part_count == 3 && parts[2].starts_with("HTTP/");
  }
  /// The first header whose name matches case-insensitively
  /// (HttpHeaders::get's rule).
  [[nodiscard]] std::optional<std::string_view> header(std::string_view name) const;
};
std::optional<HttpHeadView> view_http_head(BytesView raw);

/// Parsers accept a complete message (the simulator delivers whole payloads).
std::optional<HttpRequest> decode_http_request(BytesView raw);
std::optional<HttpResponse> decode_http_response(BytesView raw);

/// True if the payload plausibly starts an HTTP/1.x message (used by the
/// classifiers).
bool looks_like_http(BytesView payload);

}  // namespace roomnet
