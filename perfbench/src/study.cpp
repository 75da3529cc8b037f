// Workload `study`: one default Pipeline::run — the paper's full study on
// the 93-device MonIoTr segment (6 h idle, 500 interactions, scan, 200 apps,
// crowd analysis, batch mode) at threads = the host's hardware threads.
//
// The simulator dominates here: every mDNS/SSDP multicast on the segment
// reaches ~95 receivers, so this is where per-receiver decode and the
// pipeline's tap consumers (capture append, watch, capture SHA-256) act.
//
// The simulator runs on the calling thread, single-threaded, so each sample
// walks that thread round the CPUs (SpeedProbe) and its time does not
// follow whichever CPU it happened to land on.
//
// Set-up is the lab construction, then one short unmeasured study (every
// stage, on a few minutes of traffic) that lets lazy set-up finish:
// first-touch memory, the telemetry registry, static tables.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/stage_names.hpp"
#include "exec/task_pool.hpp"
#include "telemetry/metrics.hpp"
#include "testbed/lab.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace roomnet;

/// Lab construction takes well under a millisecond: many repetitions keep
/// its median steady.
constexpr int kSetups = 51;
/// A study run takes 13-20 s on a 4-thread host, about one run's time
/// budget; two runs per invocation halve the weight of one noisy stretch.
constexpr int kMinSamples = 2;

PipelineConfig study_config(const Options& options) {
  PipelineConfig config;
  config.seed = options.seed;
  config.threads = static_cast<int>(options.threads);
  return config;
}

/// Layers the pipeline's own profiler stages measure, with the stages each
/// covers (PipelineResults::profile; lab_boot only schedules the boot).
const std::vector<std::pair<std::string, std::vector<const char*>>>&
stage_layers() {
  static const std::vector<std::pair<std::string, std::vector<const char*>>>
      layers = {{"sim.idle", {stages::kLabBoot, stages::kIdle}},
                {"sim.interactions", {stages::kInteractions}},
                {"classify.stage", {stages::kClassify}},
                {"scan.stage", {stages::kScan}},
                {"apps.stage", {stages::kApps}},
                {"crowd.stage", {stages::kCrowd}},
                {"watch.finish", {stages::kDegraded, stages::kWatch}}};
  return layers;
}

/// Benchmark-side tap for the traced run: frames delivered, how many were
/// group-addressed, and how many receivers each reached (node_count - 1 for
/// a flooded group frame, else 1).
struct FanoutTap {
  std::uint64_t frames = 0;
  std::uint64_t group_frames = 0;
  std::uint64_t receivers = 0;
};

}  // namespace

Outcome run_study(const Options& options, Tracer& tracer) {
  Outcome out;
  const PipelineConfig config = study_config(options);

  std::optional<SpeedProbe> setup_probe;
  setup_probe.emplace(out.setup_probe_us, /*rotate=*/false);
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    const Pipeline pipeline(config);
    out.setup_s.push_back(seconds_since(t0));
  }
  attempt(out, "study", -1, [&] {
    PipelineConfig warm = config;
    warm.idle_duration = SimTime::from_minutes(10);
    warm.interactions = 20;
    warm.app_sample = 10;
    const auto t0 = Clock::now();
    const PipelineResults results = Pipeline(warm).run();
    out.warmup_s = seconds_since(t0);
    std::printf("warmup workload=study seconds=%.6f result_digest=%s\n", out.warmup_s,
                results.manifest.result_digest.c_str());
    return results.degraded.empty() && results.local_packets > 0;
  });
  setup_probe.reset();

  Tracer untraced(false);
  CounterLedger ledger("study");
  std::string first_digest;
  std::vector<int> traced_runs;
  std::vector<double> arena_mb, group_frames, receivers_per_frame;
  Counters traced_counters;  // named like the layer metrics they feed
  double tasks = 0;

  sample_for(options, kMinSamples, [&](int index, bool traced) {
    attempt(out, "study", index, [&] {
      Pipeline pipeline(config);
      FanoutTap fanout;
      if (traced) {
        Switch& net = pipeline.lab().network();
        net.add_packet_tap([&fanout, &net](SimTime, const PacketView& packet,
                                           BytesView) {
          ++fanout.frames;
          if (packet.eth.dst.is_multicast()) {
            ++fanout.group_frames;
            fanout.receivers += net.node_count() - 1;
          } else {
            ++fanout.receivers;
          }
        });
      }
      const std::uint64_t events0 = registry_counter("roomnet_sim_events_fired");
      const std::uint64_t probes0 = registry_counter("roomnet_scan_probes_sent_total");
      const std::uint64_t apps0 = registry_counter("roomnet_apps_runs_total");
      const std::uint64_t tasks0 =
          registry_counter("roomnet_exec_tasks_submitted_total");

      Tracer& spans = traced ? tracer : untraced;
      spans.set_run(index);
      // Traced samples are sampled too, so both kinds start from the same
      // trimmed heap and their wall times stay comparable.
      PipelineResults results;
      RssSampler rss;
      const auto t0 = Clock::now();
      {
        ScopedSpan span(spans, "core.pipeline_run");
        const SpeedProbe probe(out.probe_us, /*rotate=*/true);
        results = pipeline.run();
        if (traced) {
          // Stage durations as the program reports them, attributed inside
          // the run's span; what is left over is the pipeline's own glue.
          for (const auto& [layer, names] : stage_layers())
            spans.part(layer, stages_ns(results.profile, names), 1);
        }
      }
      const double wall = seconds_since(t0);
      const double peak = rss.peak_mb();

      const Counters counters = {
          {"sim.events", registry_counter("roomnet_sim_events_fired") - events0},
          {"sim.frames", pipeline.lab().network().frames_transmitted()},
          {"capture.local_packets", results.local_packets},
          {"capture.flows", results.flows},
          {"scan.probes", registry_counter("roomnet_scan_probes_sent_total") - probes0},
          {"apps.runs", registry_counter("roomnet_apps_runs_total") - apps0},
      };
      bool ok = ledger.record(std::to_string(index), counters);
      const std::string& digest = results.manifest.result_digest;
      std::printf("digest workload=study sample=%d result_digest=%s\n", index,
                  digest.c_str());
      if (first_digest.empty()) first_digest = digest;
      ok = ok && !digest.empty() && digest == first_digest &&
           results.degraded.empty() && results.local_packets > 0;

      const double pkts = static_cast<double>(results.local_packets) / wall;
      print_sample("study", std::to_string(index), traced, wall, pkts, peak);
      if (traced) {
        out.traced_wall_s.push_back(wall);
        traced_runs.push_back(index);
        arena_mb.push_back(static_cast<double>(results.profile.totals.arena_bytes) /
                           (1024.0 * 1024.0));
        group_frames.push_back(static_cast<double>(fanout.group_frames));
        receivers_per_frame.push_back(
            fanout.frames == 0 ? 0
                               : static_cast<double>(fanout.receivers) /
                                     static_cast<double>(fanout.frames));
        traced_counters = counters;
        tasks = static_cast<double>(
            registry_counter("roomnet_exec_tasks_submitted_total") - tasks0);
      } else {
        out.wall_s.push_back(wall);
        out.pkts_per_s.push_back(pkts);
        out.peak_rss_mb.push_back(peak);
      }
      return ok;
    });
  });
  out.headlines.push_back({"study_wall_s", "s", out.wall_s});
  if (!options.trace) return out;

  // The simulator alone: the same lab booted and idled with no tap at all.
  // Its gap to the traced run's idle stage is what the pipeline's tap
  // consumers cost.
  double bare_idle_s = 0;
  std::uint64_t bare_events = 0;
  attempt(out, "study", -1, [&] {
    const int run = static_cast<int>(out.attempted);
    tracer.set_run(run);
    Lab lab(LabConfig{.seed = options.seed, .record_frames = false});
    const std::uint64_t events0 = registry_counter("roomnet_sim_events_fired");
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "sim.bare_idle");
      std::vector<double> readings;
      const SpeedProbe probe(readings, /*rotate=*/true);
      lab.start_all();
      lab.run_idle(config.idle_duration);
    }
    bare_idle_s = seconds_since(t0);
    bare_events = registry_counter("roomnet_sim_events_fired") - events0;
    std::printf("bare_idle workload=study seconds=%.6f events=%llu\n", bare_idle_s,
                static_cast<unsigned long long>(bare_events));
    return bare_events > 0;
  });

  auto& L = out.layers;
  for (const auto& [layer, seconds] : median_self_seconds(tracer, traced_runs))
    L[layer + "_s"] = seconds;
  L["sim.bare_idle_s"] = bare_idle_s;
  // Idle-stage events are exactly the bare run's: taps observe, never steer.
  L["sim.us_per_event"] =
      bare_events == 0 ? 0 : L["sim.idle_s"] * 1e6 / static_cast<double>(bare_events);
  for (const auto& [name, value] : traced_counters) L[name] = static_cast<double>(value);
  L["sim.group_frames"] = median(group_frames);
  L["sim.receivers_per_frame"] = median(receivers_per_frame);
  L["core.tap_s"] = L["sim.idle_s"] - bare_idle_s;
  L["capture.arena_mb"] = median(arena_mb);
  L["exec.tasks"] = tasks;
  return out;
}

}  // namespace perfbench
