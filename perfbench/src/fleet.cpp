// Workload `fleet`: one fleet::run_fleet over kHouseholds default households
// (streaming fold, 150 s idle, 1-8 devices each) at threads = the host's
// hardware threads.
//
// Per-household build, reset and boot traffic dominate on these tiny
// segments, and multicast reaches only a handful of receivers, so a change
// that decodes once per transmission should barely move this workload. It
// also exercises exec sharding and the sequential reduce.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/stage_names.hpp"
#include "exec/task_pool.hpp"
#include "fleet/context.hpp"
#include "fleet/fleet.hpp"
#include "prof/profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace roomnet;

constexpr std::uint64_t kHouseholds = 8000;
constexpr int kSetups = 3;

Counters fleet_counters(const fleet::FleetAggregates& agg) {
  return {{"fleet.households", agg.households},
          {"fleet.devices", agg.devices},
          {"fleet.packets", agg.packets},
          {"fleet.flows", agg.flows}};
}

}  // namespace

Outcome run_fleet(const Options& options, Tracer& tracer) {
  Outcome out;
  fleet::FleetConfig config;
  config.seed = options.seed;
  config.households = kHouseholds;
  config.threads = options.threads;

  // Set-up: the worker pool. Then one unmeasured fleet lets lazy set-up
  // finish (allocator arenas, first-touch pages of the household contexts);
  // it is also the reference every sample must reproduce.
  std::optional<SpeedProbe> setup_probe;
  setup_probe.emplace(out.setup_probe_us, /*rotate=*/false);
  std::optional<exec::TaskPool> pool;
  for (int i = 0; i < kSetups; ++i) {
    pool.reset();
    const auto t0 = Clock::now();
    pool.emplace(options.threads);
    out.setup_s.push_back(seconds_since(t0));
  }
  const auto warm0 = Clock::now();
  const fleet::FleetResults reference = fleet::run_fleet(config, *pool);
  out.warmup_s = seconds_since(warm0);
  setup_probe.reset();
  std::printf("warmup workload=fleet seconds=%.6f result_digest=%s\n", out.warmup_s,
              reference.manifest.result_digest.c_str());

  Tracer untraced(false);
  CounterLedger ledger("fleet");
  ledger.record("warmup", fleet_counters(reference.aggregates));
  std::vector<int> traced_runs;
  std::vector<double> households_per_s;
  double created = 0, reuses = 0, events = 0, frames = 0, tasks = 0;

  {
    // Every worker is busy during a sample: the probe only reads the clock.
    const SpeedProbe probe(out.probe_us, /*rotate=*/false);
    sample_for(options, 1, [&](int index, bool traced) {
      attempt(out, "fleet", index, [&] {
        Tracer& spans = traced ? tracer : untraced;
        spans.set_run(index);
        const std::uint64_t events0 = registry_counter("roomnet_sim_events_fired");
        const std::uint64_t frames0 = registry_counter("roomnet_switch_frames_total");
        const std::uint64_t tasks0 = registry_counter("roomnet_exec_tasks_submitted_total");
        // Traced samples are sampled too, so both kinds start from the same
        // trimmed heap and their wall times stay comparable.
        RssSampler rss;
        if (traced) prof::Profiler::global().begin_run(static_cast<int>(pool->threads()));
        const auto t0 = Clock::now();
        fleet::FleetResults results;
        {
          ScopedSpan span(spans, "fleet.run_fleet");
          results = fleet::run_fleet(config, *pool);
          if (traced) {
            // The sweep and the reduce as the program's profiler reports them.
            const prof::ProfReport profile = prof::Profiler::global().finish();
            spans.part("fleet.run", stages_ns(profile, {stages::kFleetRun}), 1);
            spans.part("fleet.reduce", stages_ns(profile, {stages::kFleetReduce}), 1);
          }
        }
        const double wall = seconds_since(t0);
        const double peak = rss.peak_mb();
        const auto& agg = results.aggregates;
        bool ok = ledger.record(std::to_string(index), fleet_counters(agg));
        ok = ok && results.manifest.result_digest == reference.manifest.result_digest;
        const double pkts = static_cast<double>(agg.packets) / wall;
        print_sample("fleet", std::to_string(index), traced, wall, pkts, peak);
        if (traced) {
          out.traced_wall_s.push_back(wall);
          traced_runs.push_back(index);
          created = static_cast<double>(results.stats.contexts_created);
          reuses = static_cast<double>(results.stats.context_reuses);
          events = static_cast<double>(registry_counter("roomnet_sim_events_fired") - events0);
          frames = static_cast<double>(registry_counter("roomnet_switch_frames_total") - frames0);
          tasks = static_cast<double>(
              registry_counter("roomnet_exec_tasks_submitted_total") - tasks0);
        } else {
          out.wall_s.push_back(wall);
          out.pkts_per_s.push_back(pkts);
          out.peak_rss_mb.push_back(peak);
          households_per_s.push_back(static_cast<double>(kHouseholds) / wall);
        }
        return ok;
      });
    });
  }
  out.headlines.push_back({"households_per_s", "1/s", households_per_s});
  if (!options.trace) return out;

  // Every household again, one at a time on one recycled context: the
  // per-household latency distribution, and the serial work the parallel
  // sweep spread over its workers. Each row must match the fleet's.
  std::vector<double> household_ms;
  attempt(out, "fleet", -1, [&] {
    tracer.set_run(out.attempted);
    fleet::HouseholdContext context(config.household.cache);
    household_ms.reserve(kHouseholds);
    std::uint64_t mismatched = 0;
    {
      ScopedSpan span(tracer, "fleet.households_serial");
      CallTimer household;
      for (std::uint64_t i = 0; i < kHouseholds; ++i) {
        const std::int64_t before = household.total_ns;
        const fleet::HouseholdResult row = household(
            [&] { return fleet::run_household(config.household, config.seed, i, context); });
        household_ms.push_back(static_cast<double>(household.total_ns - before) / 1e6);
        if (row.sha256 != reference.household_hashes[static_cast<std::size_t>(i)])
          ++mismatched;
      }
      household.commit(tracer, "fleet.household");
    }
    std::printf("serial workload=fleet households=%llu mismatched_rows=%llu\n",
                static_cast<unsigned long long>(kHouseholds),
                static_cast<unsigned long long>(mismatched));
    return mismatched == 0;
  });

  double serial_s = 0;
  for (const double ms : household_ms) serial_s += ms / 1e3;
  auto& L = out.layers;
  for (const auto& [layer, seconds] : median_self_seconds(tracer, traced_runs))
    L[layer + "_s"] = seconds;
  L["fleet.contexts_created"] = created;
  L["fleet.context_reuses"] = reuses;
  L["fleet.household_p50_ms"] = quantile(household_ms, 0.5);
  L["fleet.household_p99_ms"] = quantile(household_ms, 0.99);
  L["exec.parallel_efficiency"] =
      L["fleet.run_s"] > 0
          ? serial_s / (L["fleet.run_s"] * static_cast<double>(pool->threads()))
          : 0;
  L["exec.tasks"] = tasks;
  L["sim.events"] = events;
  L["sim.frames"] = frames;
  return out;
}

}  // namespace perfbench
