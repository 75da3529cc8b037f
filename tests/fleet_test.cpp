// Tests for the household-fleet driver: per-household seed independence
// (household k is byte-identical alone vs inside a fleet, on a fresh or a
// well-used context), byte-identical fleet aggregates for any thread count
// and any shard size, an identifier harvest equal to one without a memo,
// flat per-household memory on recycled contexts, and the manifest's
// folding behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "capture/filter.hpp"
#include "exec/task_pool.hpp"
#include "fleet/context.hpp"
#include "fleet/fleet.hpp"
#include "fleet/household.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "testbed/lab.hpp"

namespace roomnet::fleet {
namespace {

FleetConfig small_fleet(std::uint64_t households) {
  FleetConfig config;
  config.seed = 42;
  config.households = households;
  return config;
}

TEST(FleetSeedIndependence, HouseholdAloneMatchesHouseholdInFleet) {
  FleetConfig config = small_fleet(1000);
  config.threads = 2;
  const FleetResults fleet = run_fleet(config);
  ASSERT_EQ(fleet.household_hashes.size(), 1000u);

  // Household 517 recomputed standalone, on a factory-fresh context.
  HouseholdContext fresh(config.household.cache);
  const HouseholdResult alone =
      run_household(config.household, config.seed, 517, fresh);
  EXPECT_EQ(alone.sha256, fleet.household_hashes[517]);
  EXPECT_EQ(alone.seed, household_seed(config.seed, 517));

  // And on a context another household just dirtied: begin_household() must
  // erase every trace (lease order inside a fleet is scheduling-dependent).
  HouseholdContext used(config.household.cache);
  (void)run_household(config.household, config.seed, 3, used);
  const HouseholdResult recycled =
      run_household(config.household, config.seed, 517, used);
  EXPECT_EQ(recycled.sha256, alone.sha256);
}

TEST(FleetSeedIndependence, SeedsAreDistinctAcrossIndices) {
  EXPECT_NE(household_seed(42, 0), household_seed(42, 1));
  EXPECT_NE(household_seed(42, 0), household_seed(43, 0));
  // splitmix64 output, not the raw index: household 0 is fully mixed.
  EXPECT_NE(household_seed(42, 0), 42u);
}

TEST(FleetThreadInvariance, AggregatesAreByteIdenticalAcrossThreadCounts) {
  const FleetConfig base = small_fleet(200);
  std::string manifest_1, aggregates_1;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    FleetConfig config = base;
    config.threads = threads;
    exec::TaskPool pool(threads);
    const FleetResults results = run_fleet(config, pool);
    const std::string manifest = to_json(results.manifest);
    const std::string aggregates = to_json(results.aggregates);
    if (threads == 1) {
      manifest_1 = manifest;
      aggregates_1 = aggregates;
      continue;
    }
    EXPECT_EQ(manifest, manifest_1) << "threads=" << threads;
    EXPECT_EQ(aggregates, aggregates_1) << "threads=" << threads;
  }
}

TEST(FleetShardInvariance, ShardSizeNeverChangesResults) {
  FleetConfig config = small_fleet(150);
  config.threads = 4;
  std::string manifest_64;
  for (const std::size_t shard_size : {64u, 7u, 1u}) {
    config.shard_size = shard_size;
    const FleetResults results = run_fleet(config);
    const std::string manifest = to_json(results.manifest);
    if (shard_size == 64) {
      manifest_64 = manifest;
      continue;
    }
    EXPECT_EQ(manifest, manifest_64) << "shard_size=" << shard_size;
  }
}

/// Household `index`'s identifiers per device MAC, harvested with no memo:
/// the household rebuilt from the pieces run_household uses, in its draw
/// order, with every mDNS/SSDP payload parsed as it is tapped.
std::map<MacAddress, std::set<ExtractedIdentifier>> unmemoized_ids(
    const HouseholdConfig& config, std::uint64_t index) {
  Rng rng(household_seed(42, index));
  const auto& catalog = moniotr_catalog();
  std::vector<std::uint32_t> mix(sample_household_size(rng, config));
  for (auto& entry : mix)
    entry = static_cast<std::uint32_t>(rng.below(catalog.size()));

  EventLoop loop;
  Switch net(loop);
  const Ipv4Address router_ip(192, 168, 10, 1);
  Router router(net, MacAddress::from_u64(0x02a0ff000001ull), router_ip);
  std::vector<std::unique_ptr<TestbedDevice>> devices;
  std::set<std::uint64_t> used_macs;
  for (const std::uint32_t i : mix) {
    const std::uint64_t oui =
        OuiRegistry::builtin().oui_of(catalog[i].vendor).value_or(0x02a0fe);
    std::uint64_t mac = 0;
    do {
      mac = (oui << 24) | (rng.below(0xfffffe) + 1);
    } while (!used_macs.insert(mac).second);
    devices.push_back(std::make_unique<TestbedDevice>(
        net, catalog[i], behavior_for(catalog[i], i), MacAddress::from_u64(mac),
        rng));
  }
  wire_home(devices, router_ip);

  std::map<MacAddress, std::set<ExtractedIdentifier>> ids;
  const LocalFilter filter;
  net.add_packet_tap([&](SimTime, const PacketView& packet, BytesView) {
    if (!packet.udp || !filter.matches(packet)) return;
    const auto on = [&](std::uint16_t port) {
      return value(*packet.src_port()) == port ||
             value(*packet.dst_port()) == port;
    };
    const BytesView payload = packet.app_payload();
    std::string text;
    if (on(kMdnsPort)) {
      text = mdns_response_text(payload).value_or(std::string());
    } else if (on(kSsdpPort)) {
      if (const auto msg = decode_ssdp(payload))
        text = msg->usn + " " + msg->server + " " + msg->location;
    }
    const MacAddress src = packet.eth.src;
    for (auto& id : extract_identifiers(text, src.oui())) ids[src].insert(id);
    for (auto& mac : extract_macs(text))
      ids[src].insert({IdentifierType::kMacAddress, mac});
  });
  boot_home(loop, devices, rng, config.boot_window_s);
  loop.run_until(config.idle);
  return ids;
}

TEST(FleetIdentifierHarvest, RowsMatchAnUnmemoizedHarvest) {
  // The household parses only the announcements its ExposureBuilder memo
  // reports as first sightings; that must lose nothing.
  const HouseholdConfig config;
  HouseholdContext ctx(config.cache);
  std::size_t harvested = 0;
  for (std::uint64_t index = 0; index < 12; ++index) {
    const HouseholdResult row = run_household(config, 42, index, ctx);
    auto reference = unmemoized_ids(config, index);
    for (const HouseholdDevice& device : row.devices) {
      const auto& expected = reference[device.mac];
      EXPECT_EQ(std::set<ExtractedIdentifier>(device.ids.begin(),
                                              device.ids.end()),
                expected)
          << "household " << index << " device " << device.mac.to_string();
      harvested += device.ids.size();
    }
  }
  EXPECT_GT(harvested, 12u);
}

TEST(FleetFlatMemory, RecycledContextArenasPlateau) {
  HouseholdConfig config;
  HouseholdContext ctx(config.cache);
  std::size_t peak_flows = 0;
  const auto run = [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t index = begin; index < end; ++index) {
      (void)run_household(config, 42, index, ctx);
      peak_flows = std::max(peak_flows, ctx.cache.stats().peak_flows);
    }
  };
  run(0, 50);
  const std::size_t pool_50 = ctx.cache.pool_size();
  ASSERT_GT(pool_50, 0u);

  run(50, 250);
  // 5x the households must not mean 5x the state: the flow cache's node
  // pool sits at the busiest household's peak, not the fleet's sum. The
  // loose 2x bound only allows a later household to raise that peak.
  EXPECT_EQ(ctx.cache.pool_size(), peak_flows);
  EXPECT_LE(ctx.cache.pool_size(), 2 * pool_50);
  // The identifier scratch is per device slot, never per household.
  EXPECT_LE(ctx.ids.capacity(), config.max_devices);
  EXPECT_LE(ctx.macs.capacity(), config.max_devices);
  EXPECT_LE(ctx.protocol_bits.capacity(), config.max_devices);
  EXPECT_EQ(ctx.households_served, 250u);
}

TEST(FleetFlatMemory, MemcappedStreamingFleetStaysUnderBudget) {
  FleetConfig config = small_fleet(100);
  config.threads = 1;
  config.household.cache.memcap_bytes = 64 * 1024;
  HouseholdContext ctx(config.household.cache);
  for (std::uint64_t index = 0; index < 100; ++index) {
    (void)run_household(config.household, config.seed, index, ctx);
    // One flow's worth of slack: the cache evicts back under the cap after
    // the add that crossed it.
    EXPECT_LE(ctx.cache.stats().peak_bytes,
              config.household.cache.memcap_bytes + 4096)
        << "household " << index;
  }
  // A memcap'd fleet still runs end to end and stays self-consistent.
  const FleetResults results = run_fleet(config);
  EXPECT_EQ(results.aggregates.households, 100u);
  EXPECT_EQ(results.household_hashes.size(), 100u);
}

TEST(FleetManifestFolding, RootTracksSeedAndRerunsAreStable) {
  const FleetConfig config = small_fleet(40);
  const FleetResults a = run_fleet(config);
  const FleetResults b = run_fleet(config);
  EXPECT_EQ(a.manifest.result_digest, b.manifest.result_digest);
  EXPECT_EQ(a.manifest.households_root, b.manifest.households_root);
  EXPECT_EQ(a.manifest.households, 40u);
  EXPECT_EQ(a.manifest.config_digest, fleet_config_digest(config));

  FleetConfig reseeded = config;
  reseeded.seed = 43;
  const FleetResults c = run_fleet(reseeded);
  EXPECT_NE(c.manifest.households_root, a.manifest.households_root);
  EXPECT_NE(c.manifest.result_digest, a.manifest.result_digest);

  // threads/shard_size are digest-excluded by contract.
  FleetConfig threaded = config;
  threaded.threads = 4;
  threaded.shard_size = 5;
  EXPECT_EQ(fleet_config_digest(threaded), fleet_config_digest(config));
}

TEST(FleetContextPool, LeasesRecycleInsteadOfAllocating) {
  ContextPool pool{FlowCacheConfig{}};
  {
    ContextPool::Lease first = pool.acquire();
    first.context().households_served = 7;
  }
  EXPECT_EQ(pool.contexts_created(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  {
    ContextPool::Lease second = pool.acquire();
    // Same object back, not a fresh one.
    EXPECT_EQ(second.context().households_served, 7u);
    // A second concurrent lease must be a new context.
    ContextPool::Lease third = pool.acquire();
    EXPECT_EQ(third.context().households_served, 0u);
  }
  EXPECT_EQ(pool.contexts_created(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(FleetSampling, HouseholdSizesRespectBoundsAndCoverTheRange) {
  HouseholdConfig config;
  Rng rng(1);
  std::size_t smallest = 99, largest = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t size = sample_household_size(rng, config);
    ASSERT_GE(size, config.min_devices);
    ASSERT_LE(size, config.max_devices);
    smallest = std::min(smallest, size);
    largest = std::max(largest, size);
  }
  EXPECT_EQ(smallest, 1u);
  EXPECT_EQ(largest, 8u);

  HouseholdConfig clamped;
  clamped.min_devices = 3;
  clamped.max_devices = 4;
  for (int i = 0; i < 200; ++i) {
    const std::size_t size = sample_household_size(rng, clamped);
    ASSERT_GE(size, 3u);
    ASSERT_LE(size, 4u);
  }
}

}  // namespace
}  // namespace roomnet::fleet
