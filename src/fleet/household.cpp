#include "fleet/household.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "capture/filter.hpp"
#include "classify/classifier.hpp"
#include "fleet/context.hpp"
#include "obs/manifest.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"
#include "testbed/catalog.hpp"
#include "testbed/device.hpp"
#include "testbed/lab.hpp"
#include "testbed/profiles.hpp"

namespace roomnet::fleet {

namespace {

// The protocol bitmask is a uint32; every label must fit.
static_assert(static_cast<int>(ProtocolLabel::kAmazonAws) < 32);

std::string ssdp_response_text(BytesView payload) {
  const auto msg = decode_ssdp(payload);
  if (!msg) return {};
  return msg->usn + " " + msg->server + " " + msg->location;
}

std::string row_hash(const HouseholdResult& result) {
  obs::CanonicalHasher hasher;
  hasher.u64(result.index);
  hasher.u64(result.seed);
  hasher.u64(result.packets);
  hasher.u64(result.flows);
  hasher.u64(result.bytes);
  hasher.u64(result.devices.size());
  for (const auto& device : result.devices) {
    hasher.u32(device.catalog_index);
    hasher.u64(device.mac.to_u64());
    hasher.u32(device.protocols);
    hasher.boolean(device.exposure.name);
    hasher.boolean(device.exposure.uuid);
    hasher.boolean(device.exposure.mac);
    hasher.u64(device.exposed.size());
    for (const auto& [protocol, data] : device.exposed) {
      hasher.u32(static_cast<std::uint32_t>(protocol));
      hasher.u32(static_cast<std::uint32_t>(data));
    }
    hasher.u64(device.ids.size());
    for (const auto& id : device.ids) {
      hasher.u8(static_cast<std::uint8_t>(id.type));
      hasher.str(id.value);
    }
  }
  return hasher.hex();
}

}  // namespace

std::uint64_t household_seed(std::uint64_t fleet_seed, std::uint64_t index) {
  // splitmix64 step over the pair.
  std::uint64_t x = fleet_seed + 0x9e3779b97f4a7c15ull * (index + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t sample_household_size(Rng& rng, const HouseholdConfig& config) {
  // Weighted sizes 1..8 with median 3 and a long tail: P(<=2)=5/17,
  // P(<=3)=9/17 — the IoT Inspector per-household marginal's shape.
  static constexpr int kWeights[] = {2, 3, 4, 3, 2, 1, 1, 1};
  int total = 0;
  for (const int w : kWeights) total += w;
  int draw = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
  std::size_t size = 1;
  for (const int w : kWeights) {
    if (draw < w) break;
    draw -= w;
    ++size;
  }
  return std::clamp(size, config.min_devices, config.max_devices);
}

HouseholdResult run_household(const HouseholdConfig& config,
                              std::uint64_t fleet_seed, std::uint64_t index,
                              HouseholdContext& ctx) {
  const std::uint64_t seed = household_seed(fleet_seed, index);
  Rng rng(seed);
  const auto& catalog = moniotr_catalog();

  // ---- Sample the device mix (catalog indices, uniform).
  const std::size_t count = sample_household_size(rng, config);
  std::vector<std::uint32_t> mix(count);
  for (auto& entry : mix)
    entry = static_cast<std::uint32_t>(rng.below(catalog.size()));

  ctx.begin_household(count);

  // ---- Build the home: router + devices on a learning switch, wired and
  // booted by the same testbed steps as the Lab (wire_home / boot_home).
  EventLoop loop;
  Switch net(loop);
  const Ipv4Address router_ip(192, 168, 10, 1);
  Router router(net, MacAddress::from_u64(0x02a0ff000001ull), router_ip);

  const auto& registry = OuiRegistry::builtin();
  std::vector<std::unique_ptr<TestbedDevice>> devices;
  devices.reserve(count);
  std::set<std::uint64_t> used_macs;
  for (const std::uint32_t catalog_index : mix) {
    const DeviceSpec& spec = catalog[catalog_index];
    const std::uint32_t oui = registry.oui_of(spec.vendor).value_or(0x02a0fe);
    // Household-specific MAC tails: real fleets never share NIC suffixes, so
    // payload-embedded MACs must differ across households for the entropy
    // analysis to mean anything. Redraw on the (rare) intra-household clash.
    std::uint64_t mac_value = 0;
    do {
      mac_value = (static_cast<std::uint64_t>(oui) << 24) |
                  (rng.below(0xfffffe) + 1);
    } while (!used_macs.insert(mac_value).second);
    const MacAddress mac = MacAddress::from_u64(mac_value);
    ctx.macs.push_back(mac);
    devices.push_back(std::make_unique<TestbedDevice>(
        net, spec, behavior_for(spec, catalog_index), mac, rng));
  }
  wire_home(devices, router_ip);

  // ---- Analysis fold at the tap: one pass per local packet.
  HouseholdResult result;
  result.index = index;
  result.seed = seed;

  const HybridClassifier classifier;
  ExposureBuilder exposure;
  const LocalFilter filter;
  net.add_packet_tap([&](SimTime at, const PacketView& packet, BytesView raw) {
    if (!filter.matches(packet)) return;
    ++result.packets;
    result.bytes += raw.size();
    ctx.cache.add(at, packet);
    const bool announcement = exposure.on_packet(packet);
    const MacAddress src = packet.eth.src;
    const auto slot = static_cast<std::size_t>(
        std::find(ctx.macs.begin(), ctx.macs.end(), src) - ctx.macs.begin());
    if (slot == count) return;  // router traffic: outside the population
    ctx.protocol_bits[slot] |=
        1u << static_cast<int>(classifier.classify_packet(packet));

    // Identifier harvest (§6.3) from the mDNS/SSDP payloads the exposure
    // fold extracted: its exact memo skips repeated announcements, so each
    // distinct (source, branch, payload) is parsed once.
    if (!announcement) return;
    const BytesView payload = packet.app_payload();
    const bool mdns = value(*packet.src_port()) == kMdnsPort ||
                      value(*packet.dst_port()) == kMdnsPort;
    const std::string text =
        mdns ? mdns_response_text(payload).value_or(std::string())
             : ssdp_response_text(payload);
    if (text.empty()) return;
    auto& ids = ctx.ids[slot];
    for (auto& id : extract_identifiers(text, src.oui())) ids.insert(id);
    // As in device_identifiers(): degenerate constant MACs fail the OUI
    // check yet still count as an exposed identifier value.
    for (auto& mac : extract_macs(text))
      ids.insert({IdentifierType::kMacAddress, mac});
  });

  // ---- Boot (staggered DHCP) and idle.
  boot_home(loop, devices, rng, config.boot_window_s);
  loop.run_until(config.idle);
  ctx.cache.flush();
  result.flows = ctx.cache.stats().flows_created;

  // ---- Assemble the compact row.
  const ExposureMatrix matrix = exposure.finish();
  result.devices.resize(count);
  for (std::size_t slot = 0; slot < count; ++slot) {
    HouseholdDevice& device = result.devices[slot];
    device.catalog_index = mix[slot];
    device.mac = ctx.macs[slot];
    device.protocols = ctx.protocol_bits[slot];
    const auto& ids = ctx.ids[slot];
    device.ids.assign(ids.begin(), ids.end());
    for (const auto& id : device.ids) {
      switch (id.type) {
        case IdentifierType::kName: device.exposure.name = true; break;
        case IdentifierType::kUuid: device.exposure.uuid = true; break;
        case IdentifierType::kMacAddress: device.exposure.mac = true; break;
      }
    }
  }
  for (const auto& [cell, macs] : matrix.cells) {
    for (std::size_t slot = 0; slot < count; ++slot) {
      if (macs.count(ctx.macs[slot]) != 0)
        result.devices[slot].exposed.push_back(cell);
    }
  }
  result.sha256 = row_hash(result);
  return result;
}

}  // namespace roomnet::fleet
