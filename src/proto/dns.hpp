// DNS / Multicast DNS (RFC 1035 / RFC 6762) message codec with name
// compression. mDNS is the paper's central discovery protocol: 44% of lab
// devices use it, and its hostnames embed MAC addresses, device IDs, serial
// numbers, and user display names (§5.1) — the raw material of the household
// fingerprinting analysis (§6.3).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/bytes.hpp"

namespace roomnet {

/// A domain name as ordered labels, e.g. {"Philips Hue - 685F61", "_hue",
/// "_tcp", "local"}. Labels may contain arbitrary bytes (mDNS instance names
/// contain spaces and punctuation).
struct DnsName {
  std::vector<std::string> labels;

  [[nodiscard]] std::string to_string() const;  // dot-joined
  static DnsName from_string(std::string_view dotted);

  friend bool operator==(const DnsName&, const DnsName&) = default;
};

enum class DnsType : std::uint16_t {
  kA = 1,
  kPtr = 12,
  kTxt = 16,
  kAaaa = 28,
  kSrv = 33,
  kNsec = 47,
  kAny = 255,
};

struct DnsQuestion {
  DnsName name;
  DnsType type = DnsType::kAny;
  /// mDNS QU bit: unicast response requested.
  bool unicast_response = false;
};

struct SrvData {
  std::uint16_t priority = 0;
  std::uint16_t weight = 0;
  std::uint16_t port = 0;
  DnsName target;
};

struct DnsRecord {
  DnsName name;
  DnsType type = DnsType::kA;
  /// mDNS cache-flush bit.
  bool cache_flush = false;
  std::uint32_t ttl = 120;
  /// Raw rdata as stored on the wire (PTR/SRV targets re-encoded without
  /// compression for simplicity).
  Bytes rdata;

  // Typed accessors (nullopt if the rdata does not parse as that type).
  [[nodiscard]] std::optional<Ipv4Address> a() const;
  [[nodiscard]] std::optional<Ipv6Address> aaaa() const;
  [[nodiscard]] std::optional<DnsName> ptr() const;
  [[nodiscard]] std::optional<SrvData> srv() const;
  [[nodiscard]] std::vector<std::string> txt() const;

  // Typed builders.
  static DnsRecord make_a(DnsName name, Ipv4Address ip, std::uint32_t ttl = 120);
  static DnsRecord make_aaaa(DnsName name, const Ipv6Address& ip,
                             std::uint32_t ttl = 120);
  static DnsRecord make_ptr(DnsName name, const DnsName& target,
                            std::uint32_t ttl = 4500);
  static DnsRecord make_srv(DnsName name, const SrvData& srv,
                            std::uint32_t ttl = 120);
  static DnsRecord make_txt(DnsName name, const std::vector<std::string>& kv,
                            std::uint32_t ttl = 4500);
};

struct DnsMessage {
  std::uint16_t id = 0;  // always 0 in mDNS
  bool is_response = false;
  bool authoritative = false;
  std::vector<DnsQuestion> questions;
  std::vector<DnsRecord> answers;
  std::vector<DnsRecord> authority;
  std::vector<DnsRecord> additional;
};

inline constexpr std::uint16_t kMdnsPort = 5353;
inline constexpr Ipv4Address kMdnsGroupV4 = Ipv4Address(224, 0, 0, 251);

/// Encodes with name compression (full-name suffix sharing).
Bytes encode_dns(const DnsMessage& msg);
/// Decodes, following compression pointers with loop protection. Built on
/// DnsView: it accepts exactly the messages DnsView::valid() accepts.
std::optional<DnsMessage> decode_dns(BytesView raw);

// ---------------------------------------------------------------------------
// Non-allocating view. Every mDNS datagram on a segment reaches every
// responder, and most of them only need the header or one question name to
// know the message is not theirs; the view answers those questions in place,
// and decode_dns is the owning decode for consumers that keep a DnsMessage.

/// A possibly-compressed name inside a message, located by offset. Only
/// entries handed out by DnsView::Cursor are valid names; the accessors
/// assume that.
class DnsNameView {
 public:
  DnsNameView() = default;
  DnsNameView(BytesView message, std::size_t offset)
      : message_(message), offset_(offset) {}

  /// True iff DnsName::to_string() of this name equals `dotted`: labels
  /// joined by '.', byte for byte, case-sensitive.
  [[nodiscard]] bool equals(std::string_view dotted) const;
  /// Appends DnsName::to_string() of this name to `out`.
  void append_to(std::string& out) const;
  [[nodiscard]] DnsName materialize() const;
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  BytesView message_;
  std::size_t offset_ = 0;
};

enum class DnsSection : std::uint8_t { kQuestion, kAnswer, kAuthority, kAdditional };

/// One question or resource record, as slices of the message.
struct DnsEntryView {
  DnsSection section = DnsSection::kQuestion;
  DnsNameView name;
  DnsType type = DnsType::kA;
  std::uint16_t klass = 1;
  std::uint32_t ttl = 0;        // records only
  BytesView rdata;              // records only, as on the wire
  /// PTR target or SRV target (after priority/weight/port), resolved
  /// against the whole message; only meaningful for kPtr/kSrv records.
  DnsNameView target;

  /// The class field's top bit: QU for a question, cache-flush for a record.
  [[nodiscard]] bool unicast_response() const { return (klass & 0x8000) != 0; }
  [[nodiscard]] bool cache_flush() const { return (klass & 0x8000) != 0; }
};

/// A DNS message read in place: the header eagerly, the entries on demand.
/// It holds a view, so the payload bytes must outlive it and its cursors.
class DnsView {
 public:
  /// Reads the 12-byte header only; nullopt for a runt.
  static std::optional<DnsView> of(BytesView raw);

  [[nodiscard]] std::uint16_t id() const { return id_; }
  [[nodiscard]] bool is_response() const { return (flags_ & 0x8000) != 0; }
  [[nodiscard]] bool authoritative() const { return (flags_ & 0x0400) != 0; }
  [[nodiscard]] std::uint16_t count(DnsSection section) const {
    return counts_[static_cast<std::size_t>(section)];
  }

  /// Walks the entries in wire order (questions, answers, authority,
  /// additional). Each next() bounds-checks only the entry it reads, with
  /// decode_dns's rules: names follow at most 32 compression pointers and
  /// carry at most 128 labels of at most 63 bytes, rdata must fit, and a
  /// PTR or SRV target must parse.
  class Cursor {
   public:
    /// False at the end of the message, or at the first malformed entry
    /// (then failed() is true and every later call is false too).
    bool next(DnsEntryView& out);
    [[nodiscard]] bool failed() const { return failed_; }

   private:
    friend class DnsView;
    explicit Cursor(const DnsView& view);
    BytesView raw_;
    std::array<std::uint16_t, 4> left_{};
    std::size_t section_ = 0;
    std::size_t pos_ = 12;
    bool failed_ = false;
  };
  [[nodiscard]] Cursor entries() const { return Cursor(*this); }

  /// True exactly when decode_dns(raw) returns a message.
  [[nodiscard]] bool valid() const;

 private:
  BytesView raw_;
  std::uint16_t id_ = 0;
  std::uint16_t flags_ = 0;
  std::array<std::uint16_t, 4> counts_{};
};

/// Calls `on_string(std::string_view)` for each character-string of TXT
/// rdata, in place; a truncated last string ends the walk (DnsRecord::txt()
/// is this walk, materialized).
template <class OnString>
void for_each_txt_string(BytesView rdata, OnString&& on_string) {
  std::size_t pos = 0;
  while (pos < rdata.size()) {
    const std::size_t len = rdata[pos++];
    if (rdata.size() - pos < len) return;
    on_string(std::string_view(reinterpret_cast<const char*>(rdata.data() + pos), len));
    pos += len;
  }
}

/// The §6.3 "response text" of an mDNS response: each answer's name, TXT
/// strings and PTR/SRV target, then each additional record's name, every
/// item followed by a space. This is the text the exposure analysis, the
/// app runtime and the fleet scan for identifiers. nullopt unless `payload`
/// decodes (decode_dns's rules) as a response.
std::optional<std::string> mdns_response_text(BytesView payload);

}  // namespace roomnet
