#include "proto/dns.hpp"

#include <map>

namespace roomnet {

std::string DnsName::to_string() const {
  std::string out;
  for (const auto& l : labels) {
    if (!out.empty()) out += '.';
    out += l;
  }
  return out;
}

DnsName DnsName::from_string(std::string_view dotted) {
  DnsName name;
  while (!dotted.empty()) {
    const auto dot = dotted.find('.');
    if (dot == std::string_view::npos) {
      name.labels.emplace_back(dotted);
      break;
    }
    name.labels.emplace_back(dotted.substr(0, dot));
    dotted.remove_prefix(dot + 1);
  }
  return name;
}

namespace {

/// Writes a name with suffix compression: each full suffix already emitted is
/// reused via a compression pointer.
class NameEncoder {
 public:
  void write(ByteWriter& w, const DnsName& name) {
    for (std::size_t i = 0; i < name.labels.size(); ++i) {
      const std::string suffix = join_suffix(name, i);
      const auto it = offsets_.find(suffix);
      if (it != offsets_.end() && it->second < 0x3fff) {
        w.u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return;
      }
      if (w.size() < 0x3fff) offsets_.emplace(suffix, w.size());
      const std::string& label = name.labels[i];
      w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(label.size(), 63)));
      w.str(std::string_view(label).substr(0, 63));
    }
    w.u8(0);
  }

 private:
  static std::string join_suffix(const DnsName& name, std::size_t from) {
    std::string s;
    for (std::size_t i = from; i < name.labels.size(); ++i) {
      s += name.labels[i];
      s += '\x1f';
    }
    return s;
  }
  std::map<std::string, std::size_t> offsets_;
};

/// The one wire-name walker: decode_dns, DnsView and the typed rdata
/// accessors all read names through it. Starting at `pos` in `msg`, it
/// follows compression pointers (at most 32 jumps) and enforces the label
/// caps (63 bytes each, 128 per name), calling `on_label(std::string_view)`
/// for each label in order. Returns the offset just past the name as it sits
/// in the stream (after the first pointer, if any), or nullopt when the
/// name is malformed; labels seen before a failure have been reported.
template <class OnLabel>
std::optional<std::size_t> walk_name(BytesView msg, std::size_t pos,
                                     OnLabel&& on_label) {
  int jumps = 0;
  std::size_t labels = 0;
  std::optional<std::size_t> resume;
  for (;;) {
    if (pos >= msg.size()) return std::nullopt;
    const std::uint8_t len = msg[pos++];
    if ((len & 0xc0) == 0xc0) {
      if (pos >= msg.size()) return std::nullopt;
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | msg[pos++];
      if (++jumps > 32) return std::nullopt;  // pointer loop
      if (!resume) resume = pos;
      if (target >= msg.size()) return std::nullopt;
      pos = target;
      continue;
    }
    if (len == 0) break;
    if (len > 63) return std::nullopt;
    if (msg.size() - pos < len) return std::nullopt;
    on_label(std::string_view(reinterpret_cast<const char*>(msg.data() + pos), len));
    pos += len;
    if (++labels > 128) return std::nullopt;
  }
  return resume ? *resume : pos;
}

std::optional<std::size_t> skip_name(BytesView msg, std::size_t pos) {
  return walk_name(msg, pos, [](std::string_view) {});
}

std::optional<DnsName> read_name(BytesView msg, std::size_t pos) {
  DnsName name;
  if (!walk_name(msg, pos, [&](std::string_view label) {
        name.labels.emplace_back(label);
      }))
    return std::nullopt;
  return name;
}

/// Writes the name at `pos` uncompressed (length-prefixed labels, then the
/// root byte) — encode_name_plain of the decoded name, without building it.
void write_name_plain(ByteWriter& w, BytesView msg, std::size_t pos) {
  walk_name(msg, pos, [&](std::string_view label) {
    w.u8(static_cast<std::uint8_t>(label.size()));
    w.str(label);
  });
  w.u8(0);
}

Bytes encode_name_plain(const DnsName& name) {
  ByteWriter w;
  for (const auto& label : name.labels) {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(label.size(), 63)));
    w.str(std::string_view(label).substr(0, 63));
  }
  w.u8(0);
  return w.take();
}

}  // namespace

std::optional<Ipv4Address> DnsRecord::a() const {
  if (type != DnsType::kA || rdata.size() != 4) return std::nullopt;
  ByteReader r{BytesView(rdata)};
  return Ipv4Address(r.u32().value_or(0));
}

std::optional<Ipv6Address> DnsRecord::aaaa() const {
  if (type != DnsType::kAaaa || rdata.size() != 16) return std::nullopt;
  std::array<std::uint8_t, 16> b{};
  std::copy(rdata.begin(), rdata.end(), b.begin());
  return Ipv6Address(b);
}

std::optional<DnsName> DnsRecord::ptr() const {
  if (type != DnsType::kPtr) return std::nullopt;
  return read_name(BytesView(rdata), 0);
}

std::optional<SrvData> DnsRecord::srv() const {
  if (type != DnsType::kSrv) return std::nullopt;
  ByteReader r{BytesView(rdata)};
  SrvData s;
  s.priority = r.u16().value_or(0);
  s.weight = r.u16().value_or(0);
  s.port = r.u16().value_or(0);
  if (!r.ok()) return std::nullopt;
  auto target = read_name(BytesView(rdata), r.offset());
  if (!target) return std::nullopt;
  s.target = std::move(*target);
  return s;
}

std::vector<std::string> DnsRecord::txt() const {
  std::vector<std::string> out;
  if (type != DnsType::kTxt) return out;
  for_each_txt_string(BytesView(rdata),
                      [&](std::string_view s) { out.emplace_back(s); });
  return out;
}

DnsRecord DnsRecord::make_a(DnsName name, Ipv4Address ip, std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kA;
  rec.cache_flush = true;
  rec.ttl = ttl;
  ByteWriter w;
  w.u32(ip.value());
  rec.rdata = w.take();
  return rec;
}

DnsRecord DnsRecord::make_aaaa(DnsName name, const Ipv6Address& ip,
                               std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kAaaa;
  rec.cache_flush = true;
  rec.ttl = ttl;
  rec.rdata = Bytes(ip.bytes().begin(), ip.bytes().end());
  return rec;
}

DnsRecord DnsRecord::make_ptr(DnsName name, const DnsName& target,
                              std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kPtr;
  rec.ttl = ttl;
  rec.rdata = encode_name_plain(target);
  return rec;
}

DnsRecord DnsRecord::make_srv(DnsName name, const SrvData& srv,
                              std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kSrv;
  rec.cache_flush = true;
  rec.ttl = ttl;
  ByteWriter w;
  w.u16(srv.priority).u16(srv.weight).u16(srv.port);
  w.raw(encode_name_plain(srv.target));
  rec.rdata = w.take();
  return rec;
}

DnsRecord DnsRecord::make_txt(DnsName name, const std::vector<std::string>& kv,
                              std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kTxt;
  rec.cache_flush = true;
  rec.ttl = ttl;
  ByteWriter w;
  for (const auto& s : kv) {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(s.size(), 255)));
    w.str(std::string_view(s).substr(0, 255));
  }
  rec.rdata = w.take();
  return rec;
}

Bytes encode_dns(const DnsMessage& msg) {
  ByteWriter w;
  NameEncoder names;
  w.u16(msg.id);
  std::uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000;
  if (msg.authoritative) flags |= 0x0400;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(msg.questions.size()));
  w.u16(static_cast<std::uint16_t>(msg.answers.size()));
  w.u16(static_cast<std::uint16_t>(msg.authority.size()));
  w.u16(static_cast<std::uint16_t>(msg.additional.size()));
  for (const auto& q : msg.questions) {
    names.write(w, q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(1 | (q.unicast_response ? 0x8000 : 0)));
  }
  const auto write_record = [&](const DnsRecord& rec) {
    names.write(w, rec.name);
    w.u16(static_cast<std::uint16_t>(rec.type));
    w.u16(static_cast<std::uint16_t>(1 | (rec.cache_flush ? 0x8000 : 0)));
    w.u32(rec.ttl);
    w.u16(static_cast<std::uint16_t>(rec.rdata.size()));
    w.raw(rec.rdata);
  };
  for (const auto& r : msg.answers) write_record(r);
  for (const auto& r : msg.authority) write_record(r);
  for (const auto& r : msg.additional) write_record(r);
  return w.take();
}

// ----------------------------------------------------------------- DnsView

bool DnsNameView::equals(std::string_view dotted) const {
  std::size_t pos = 0;
  bool same = true;
  bool first = true;
  walk_name(message_, offset_, [&](std::string_view label) {
    if (!same) return;
    if (!first) same = pos < dotted.size() && dotted[pos++] == '.';
    first = false;
    same = same && dotted.substr(pos, label.size()) == label;
    pos += label.size();
  });
  return same && pos == dotted.size();
}

void DnsNameView::append_to(std::string& out) const {
  bool first = true;
  walk_name(message_, offset_, [&](std::string_view label) {
    if (!first) out += '.';
    first = false;
    out += label;
  });
}

DnsName DnsNameView::materialize() const {
  return read_name(message_, offset_).value_or(DnsName{});
}

std::optional<DnsView> DnsView::of(BytesView raw) {
  if (raw.size() < 12) return std::nullopt;
  const auto u16_at = [raw](std::size_t at) {
    return static_cast<std::uint16_t>(raw[at] << 8 | raw[at + 1]);
  };
  DnsView view;
  view.raw_ = raw;
  view.id_ = u16_at(0);
  view.flags_ = u16_at(2);
  for (std::size_t i = 0; i < 4; ++i) view.counts_[i] = u16_at(4 + 2 * i);
  return view;
}

DnsView::Cursor::Cursor(const DnsView& view)
    : raw_(view.raw_), left_(view.counts_) {}

bool DnsView::Cursor::next(DnsEntryView& out) {
  if (failed_) return false;
  while (section_ < left_.size() && left_[section_] == 0) ++section_;
  if (section_ == left_.size()) return false;
  --left_[section_];
  const auto fail = [this] {
    failed_ = true;
    return false;
  };

  const auto name_end = skip_name(raw_, pos_);
  if (!name_end) return fail();
  ByteReader r(raw_);
  r.seek(*name_end);
  const auto type = r.u16();
  const auto klass = r.u16();
  if (!r.ok()) return fail();
  out.section = static_cast<DnsSection>(section_);
  out.name = DnsNameView(raw_, pos_);
  out.type = static_cast<DnsType>(*type);
  out.klass = *klass;
  out.ttl = 0;
  out.rdata = {};
  out.target = {};
  if (out.section != DnsSection::kQuestion) {
    const auto ttl = r.u32();
    const auto rdlen = r.u16();
    if (!r.ok()) return fail();
    const std::size_t rdata_start = r.offset();
    const auto rdata = r.view(*rdlen);
    if (!rdata) return fail();
    out.ttl = *ttl;
    out.rdata = *rdata;
    // A PTR/SRV target is read against the whole message — it may be
    // compressed, and decode_dns resolves it before keeping the rdata.
    if (out.type == DnsType::kPtr || out.type == DnsType::kSrv) {
      const std::size_t at =
          rdata_start + (out.type == DnsType::kSrv ? 6 : 0);
      if (at > raw_.size() || !skip_name(raw_, at)) return fail();
      out.target = DnsNameView(raw_, at);
    }
  }
  pos_ = r.offset();
  return true;
}

bool DnsView::valid() const {
  Cursor cursor = entries();
  DnsEntryView entry;
  while (cursor.next(entry)) {
  }
  return !cursor.failed();
}

std::optional<DnsMessage> decode_dns(BytesView raw) {
  const auto view = DnsView::of(raw);
  if (!view) return std::nullopt;
  DnsMessage m;
  m.id = view->id();
  m.is_response = view->is_response();
  m.authoritative = view->authoritative();
  DnsView::Cursor cursor = view->entries();
  DnsEntryView e;
  while (cursor.next(e)) {
    if (e.section == DnsSection::kQuestion) {
      m.questions.push_back({e.name.materialize(), e.type, e.unicast_response()});
      continue;
    }
    DnsRecord rec;
    rec.name = e.name.materialize();
    rec.type = e.type;
    rec.cache_flush = e.cache_flush();
    rec.ttl = e.ttl;
    // Decompress PTR/SRV targets into plain form so the typed accessors
    // work on the extracted rdata alone.
    if (e.type == DnsType::kPtr || e.type == DnsType::kSrv) {
      const std::size_t at = e.target.offset();
      ByteWriter w;
      if (e.type == DnsType::kSrv) w.raw(raw.subspan(at - 6, 6));  // pri/weight/port
      write_name_plain(w, raw, at);
      rec.rdata = w.take();
    } else {
      rec.rdata.assign(e.rdata.begin(), e.rdata.end());
    }
    auto& section = e.section == DnsSection::kAnswer      ? m.answers
                    : e.section == DnsSection::kAuthority ? m.authority
                                                          : m.additional;
    section.push_back(std::move(rec));
  }
  if (cursor.failed()) return std::nullopt;
  return m;
}

std::optional<std::string> mdns_response_text(BytesView payload) {
  const auto view = DnsView::of(payload);
  if (!view || !view->is_response()) return std::nullopt;
  std::string text;
  DnsView::Cursor cursor = view->entries();
  DnsEntryView e;
  while (cursor.next(e)) {
    if (e.section == DnsSection::kAnswer) {
      e.name.append_to(text);
      text += ' ';
      if (e.type == DnsType::kTxt)
        for_each_txt_string(e.rdata, [&](std::string_view s) {
          text += s;
          text += ' ';
        });
      if (e.type == DnsType::kPtr || e.type == DnsType::kSrv) {
        e.target.append_to(text);
        text += ' ';
      }
    } else if (e.section == DnsSection::kAdditional) {
      e.name.append_to(text);
      text += ' ';
    }
  }
  if (cursor.failed()) return std::nullopt;
  return text;
}

}  // namespace roomnet
