// roomnet benchmark driver: runs one workload per invocation.
//
//   roomnet_perfbench --workload study|fleet|replay_batch|replay_stream
//                     --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Output: one line per sample (wall time, throughput, peak RSS), the exact
// work counters of every sample, the output checks, then a summary of every
// metric with its unit and sample count. The last line is one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics of an untraced run (--trace 0), or the per-layer metrics of a
// traced one (--trace 1). A traced run also writes its spans to --trace-out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports, on every workload; a layer
// the workload never enters reads 0. Keep in step with BENCHMARK.json.
constexpr MetricDef kLayerMetrics[] = {
    {"sim.idle_s", "s"},
    {"sim.interactions_s", "s"},
    {"sim.us_per_event", "us"},
    {"sim.events", "count"},
    {"sim.frames", "count"},
    {"sim.group_frames", "count"},
    {"sim.receivers_per_frame", "count"},
    {"sim.bare_idle_s", "s"},
    {"core.tap_s", "s"},
    {"core.pipeline_run_s", "s"},
    {"classify.stage_s", "s"},
    {"capture.arena_mb", "MB"},
    {"capture.flows", "count"},
    {"scan.stage_s", "s"},
    {"scan.probes", "count"},
    {"apps.stage_s", "s"},
    {"apps.runs", "count"},
    {"crowd.stage_s", "s"},
    {"watch.finish_s", "s"},
    {"exec.tasks", "count"},
    {"exec.parallel_efficiency", "ratio"},
    {"fleet.run_s", "s"},
    {"fleet.reduce_s", "s"},
    {"fleet.contexts_created", "count"},
    {"fleet.context_reuses", "count"},
    {"fleet.household_p50_ms", "ms"},
    {"fleet.household_p99_ms", "ms"},
    {"netcore.pcap_decode_s", "s"},
    {"netcore.frame_decode_s", "s"},
    {"capture.ingest_s", "s"},
    {"analysis.usage_s", "s"},
    {"analysis.graph_s", "s"},
    {"analysis.exposure_s", "s"},
    {"classify.crossval_s", "s"},
    {"classify.responses_s", "s"},
    {"stream.fold_s", "s"},
    {"stream.finish_s", "s"},
    {"stream.peak_flows", "count"},
    {"proto.dns_decode_ns", "ns"},
    {"proto.ssdp_decode_ns", "ns"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload study|fleet|replay_batch|replay_stream "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

double or_zero(double v) { return std::isfinite(v) ? v : 0; }

void print_metric(const std::string& name, const std::vector<double>& samples,
                  double value, const char* unit) {
  std::printf(
      "metric name=%s value=%.9g unit=%s samples=%zu min=%.9g p25=%.9g median=%.9g "
      "p75=%.9g max=%.9g\n",
      name.c_str(), value, unit, samples.size(), quantile(samples, 0),
      quantile(samples, 0.25), median(samples), quantile(samples, 0.75),
      quantile(samples, 1));
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds || !have_trace)
    return usage(argv[0]);
  options.threads = std::max(1u, std::thread::hardware_concurrency());

  std::printf("run workload=%s seed=%llu seconds=%g trace=%d threads=%zu\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.threads);
  Tracer tracer(options.trace);
  Outcome out;
  try {
    if (options.workload == "study") {
      out = run_study(options, tracer);
    } else if (options.workload == "fleet") {
      out = run_fleet(options, tracer);
    } else if (options.workload == "replay_batch") {
      out = run_replay(options, tracer, ReplayPath::kBatch);
    } else if (options.workload == "replay_stream") {
      out = run_replay(options, tracer, ReplayPath::kStream);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    // Set-up failed: there is nothing to measure, so no result line.
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace && !trace_out.empty() && !tracer.write_jsonl(trace_out))
    std::printf("warning: cannot write spans to %s\n", trace_out.c_str());

  // Summary: every figure with its unit and sample count. The end-to-end
  // times and rates are given at the reference speed: scaled by how fast the
  // host ran the probe kernel beside them (SpeedProbe), so that the host's
  // drift between runs largely cancels out of them. The measured figures
  // are printed too.
  const double setup_raw_s = median(out.setup_s) + out.warmup_s;
  const double wall_s = median(out.wall_s);
  const double pkts_per_s = median(out.pkts_per_s);
  const double peak_rss_mb = median(out.peak_rss_mb);
  // Host speed relative to the reference: above 1 when it ran faster.
  const double setup_speed = kReferenceProbeUs / median(out.setup_probe_us);
  const double speed = kReferenceProbeUs / median(out.probe_us);
  const double setup_s = setup_raw_s * setup_speed;
  const double ref_wall_s = wall_s * speed;
  const double ref_pkts_per_s = pkts_per_s / speed;
  const double failed_frac =
      out.attempted == 0 ? 1.0 : static_cast<double>(out.failed) / out.attempted;
  std::printf("setup workload=%s median_s=%.6f repetitions=%zu warmup_s=%.6f\n",
              options.workload.c_str(), median(out.setup_s), out.setup_s.size(),
              out.warmup_s);
  print_metric("setup_raw_s", out.setup_s, setup_raw_s, "s");
  print_metric("setup_probe_us", out.setup_probe_us, median(out.setup_probe_us), "us");
  std::printf("metric name=setup_s value=%.9g unit=s speed=%.6f\n", setup_s, setup_speed);
  print_metric("wall_s", out.wall_s, wall_s, "s");
  print_metric("pkts_per_s", out.pkts_per_s, pkts_per_s, "1/s");
  print_metric("probe_us", out.probe_us, median(out.probe_us), "us");
  std::printf("metric name=ref_wall_s value=%.9g unit=s speed=%.6f\n", ref_wall_s, speed);
  std::printf("metric name=ref_pkts_per_s value=%.9g unit=1/s speed=%.6f\n",
              ref_pkts_per_s, speed);
  print_metric("peak_rss_mb", out.peak_rss_mb, peak_rss_mb, "MB");
  for (const auto& headline : out.headlines)
    print_metric(headline.name, headline.samples, median(headline.samples),
                 headline.unit.c_str());
  std::printf("metric name=failed_frac value=%.9g unit=ratio samples=%d failed=%d\n",
              failed_frac, out.attempted, out.failed);

  if (options.trace) {
    out.layers["trace.overhead_s"] = median(out.traced_wall_s) - wall_s;
    out.layers["trace.overhead_pct"] =
        wall_s > 0 ? 100.0 * out.layers["trace.overhead_s"] / wall_s : 0;
    for (const auto& [name, value] : out.layers)
      std::printf("layer name=%s value=%.9g traced_samples=%zu\n", name.c_str(), value,
                  out.traced_wall_s.size());
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed);
  if (options.trace) {
    const char* sep = "";
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = out.layers.find(def.name);
      const double value = it == out.layers.end() ? 0 : or_zero(it->second);
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, def.name, value,
                  def.unit);
      sep = ", ";
    }
  } else {
    std::printf(
        "\"setup_s\": {\"value\": %.17g, \"unit\": \"s\"}, "
        "\"ref_wall_s\": {\"value\": %.17g, \"unit\": \"s\"}, "
        "\"ref_pkts_per_s\": {\"value\": %.17g, \"unit\": \"1/s\"}, "
        "\"peak_rss_mb\": {\"value\": %.17g, \"unit\": \"MB\"}",
        or_zero(setup_s), or_zero(ref_wall_s), or_zero(ref_pkts_per_s),
        or_zero(peak_rss_mb));
  }
  std::printf("}}\n");
  return 0;
}
