// Structure-aware DNS/mDNS fuzz. Phase A treats the input as a raw message:
// decode must be total, and a successful decode must re-encode to a
// fixpoint. Phase B rebuilds a well-formed mDNS service advertisement and
// mutates it at field granularity — section counts, label length bytes,
// compression pointers (including self-referential and forward loops),
// rdlength, truncation — the exact adversarial classes the decoder's
// pointer-loop and label caps exist for. Both phases also check the
// non-allocating DnsView against the owning decode: it accepts exactly the
// same messages and agrees on flags, counts, names, question types/QU, TXT
// strings and the mDNS response text.
#include "fuzz_input.hpp"
#include "fuzz_mutate.hpp"
#include "harness.hpp"
#include "proto/dns.hpp"

namespace roomnet::fuzz {

namespace {

constexpr char kName[] = "dns";
constexpr std::string_view kLabelChars =
    "abcdefghijklmnopqrstuvwxyz0123456789-_ ";

void check_idempotent(const DnsMessage& decoded) {
  const Bytes e2 = encode_dns(decoded);
  const auto d2 = decode_dns(BytesView(e2));
  ROOMNET_FUZZ_CHECK(d2.has_value(), kName,
                     "re-encoded message no longer decodes");
  const Bytes e3 = encode_dns(*d2);
  ROOMNET_FUZZ_CHECK(e2 == e3, kName, "decode-encode cycle is not a fixpoint");
}

/// The §6.3 response text assembled from the owning decode — the reference
/// mdns_response_text must reproduce byte for byte.
std::string response_text_of(const DnsMessage& msg) {
  std::string text;
  for (const auto& record : msg.answers) {
    text += record.name.to_string() + " ";
    for (const auto& txt : record.txt()) text += txt + " ";
    if (const auto ptr = record.ptr()) text += ptr->to_string() + " ";
    if (const auto srv = record.srv()) text += srv->target.to_string() + " ";
  }
  for (const auto& record : msg.additional) text += record.name.to_string() + " ";
  return text;
}

void check_name(const DnsNameView& view, const DnsName& name) {
  const std::string dotted = name.to_string();
  std::string appended;
  view.append_to(appended);
  ROOMNET_FUZZ_CHECK(appended == dotted, kName, "view name differs from decode");
  ROOMNET_FUZZ_CHECK(view.equals(dotted), kName, "view name != its own string");
  ROOMNET_FUZZ_CHECK(!view.equals(dotted + "."), kName,
                     "view name equals a longer string");
  ROOMNET_FUZZ_CHECK(dotted.empty() || !view.equals(dotted.substr(1)), kName,
                     "view name equals a shorter string");
}

/// Differential: DnsView accepts exactly when decode_dns does and agrees
/// with it field for field.
void check_view(BytesView wire, const std::optional<DnsMessage>& decoded) {
  const auto view = DnsView::of(wire);
  ROOMNET_FUZZ_CHECK((view && view->valid()) == decoded.has_value(), kName,
                     "DnsView and decode_dns disagree on acceptance");
  const auto text = mdns_response_text(wire);
  ROOMNET_FUZZ_CHECK(text.has_value() == (decoded && decoded->is_response),
                     kName, "response text accepted a non-response");
  if (!decoded) return;
  ROOMNET_FUZZ_CHECK(view->id() == decoded->id &&
                         view->is_response() == decoded->is_response &&
                         view->authoritative() == decoded->authoritative,
                     kName, "DnsView header flags differ from decode");
  ROOMNET_FUZZ_CHECK(
      view->count(DnsSection::kQuestion) == decoded->questions.size() &&
          view->count(DnsSection::kAnswer) == decoded->answers.size() &&
          view->count(DnsSection::kAuthority) == decoded->authority.size() &&
          view->count(DnsSection::kAdditional) == decoded->additional.size(),
      kName, "DnsView section counts differ from decode");
  if (text)
    ROOMNET_FUZZ_CHECK(*text == response_text_of(*decoded), kName,
                       "mdns_response_text differs from the owning assembly");

  const std::vector<DnsRecord>* sections[] = {
      nullptr, &decoded->answers, &decoded->authority, &decoded->additional};
  std::size_t index[4] = {};
  DnsView::Cursor cursor = view->entries();
  DnsEntryView entry;
  while (cursor.next(entry)) {
    const auto s = static_cast<std::size_t>(entry.section);
    const std::size_t i = index[s]++;
    if (entry.section == DnsSection::kQuestion) {
      const DnsQuestion& q = decoded->questions[i];
      check_name(entry.name, q.name);
      ROOMNET_FUZZ_CHECK(entry.type == q.type &&
                             entry.unicast_response() == q.unicast_response,
                         kName, "DnsView question type/QU differs from decode");
      continue;
    }
    const DnsRecord& rec = (*sections[s])[i];
    check_name(entry.name, rec.name);
    ROOMNET_FUZZ_CHECK(entry.type == rec.type &&
                           entry.cache_flush() == rec.cache_flush &&
                           entry.ttl == rec.ttl,
                       kName, "DnsView record header differs from decode");
    std::vector<std::string> txt;
    if (entry.type == DnsType::kTxt)
      for_each_txt_string(entry.rdata,
                          [&](std::string_view t) { txt.emplace_back(t); });
    ROOMNET_FUZZ_CHECK(txt == rec.txt(), kName,
                       "in-place TXT strings differ from decode");
    if (const auto ptr = rec.ptr()) check_name(entry.target, *ptr);
    if (const auto srv = rec.srv()) check_name(entry.target, srv->target);
  }
  ROOMNET_FUZZ_CHECK(!cursor.failed(), kName,
                     "DnsView cursor failed on an accepted message");
}

DnsName advertisement_name(FuzzInput& in) {
  DnsName name;
  name.labels.push_back(in.str(in.range(1, 16), kLabelChars));
  name.labels.push_back("_" + in.str(in.range(1, 8), kLabelChars));
  name.labels.push_back(in.boolean() ? "_tcp" : "_udp");
  name.labels.push_back("local");
  return name;
}

/// A realistic mDNS advertisement: PTR + SRV + TXT + A, the shape every
/// device in the paper's testbed broadcasts.
Bytes template_advertisement(FuzzInput& in) {
  DnsMessage msg;
  msg.is_response = true;
  msg.authoritative = true;
  const DnsName service = advertisement_name(in);
  DnsName instance = service;
  instance.labels.insert(instance.labels.begin(),
                         in.str(in.range(1, 20), kLabelChars));
  msg.answers.push_back(DnsRecord::make_ptr(service, instance));
  SrvData srv;
  srv.port = in.u16();
  srv.target = DnsName::from_string(in.str(in.range(1, 12), kLabelChars) +
                                    ".local");
  msg.answers.push_back(DnsRecord::make_srv(instance, srv));
  msg.answers.push_back(DnsRecord::make_txt(
      instance, {"id=" + in.str(in.range(1, 12), kLabelChars),
                 "md=" + in.str(in.range(1, 12), kLabelChars)}));
  msg.additional.push_back(DnsRecord::make_a(srv.target, in.ipv4()));
  return encode_dns(msg);
}

}  // namespace

int fuzz_dns(BytesView data) {
  if (data.size() > 65536) return 0;

  // Phase A: the input is the wire message.
  const auto raw_decoded = decode_dns(data);
  check_view(data, raw_decoded);
  if (raw_decoded) check_idempotent(*raw_decoded);

  // Phase B: field-granularity mutations of a well-formed advertisement.
  FuzzInput in(data);
  Bytes wire = template_advertisement(in);
  const std::size_t mutations = in.range(1, 8);
  for (std::size_t i = 0; i < mutations && !wire.empty(); ++i) {
    switch (in.u8() % 6) {
      case 0:  // section counts (qd/an/ns/ar at offsets 4/6/8/10)
        put_u16(wire, 4 + 2 * (in.u8() % 4), interesting_u16(in));
        break;
      case 1: {  // compression pointer, possibly self/backward/forward loop
        if (wire.size() <= 12) break;  // a truncation may have eaten the body
        const std::size_t at = 12 + in.below(wire.size() - 12);
        wire[at] = static_cast<std::uint8_t>(0xc0 | (in.u8() & 0x3f));
        if (at + 1 < wire.size()) wire[at + 1] = in.u8();
        break;
      }
      case 2:  // label length byte: over-long (>63) or huge
        wire[in.below(wire.size())] = in.boolean() ? 0xff : (in.u8() | 0x40);
        break;
      case 3:  // rdlength-ish u16 anywhere in the record area
        put_u16(wire, 12 + in.below(wire.size()), interesting_u16(in));
        break;
      case 4:
        truncate(wire, in);
        break;
      default:  // plain byte rewrite
        wire[in.below(wire.size())] = in.u8();
        break;
    }
  }
  // The mutated message must decode totally (accept or cleanly reject —
  // never crash, hang, or over-read), and an accept must still round-trip.
  const auto decoded = decode_dns(wire);
  check_view(wire, decoded);
  if (decoded) check_idempotent(*decoded);
  return 0;
}

}  // namespace roomnet::fuzz
