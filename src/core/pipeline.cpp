#include "core/pipeline.hpp"

#include <chrono>
#include <fstream>
#include <optional>

#include "capture/filter.hpp"
#include "core/provenance.hpp"
#include "core/stage_names.hpp"
#include "exec/task_pool.hpp"
#include "obs/log.hpp"
#include "prof/folded.hpp"
#include "prof/profiler.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace roomnet {

namespace {

/// One pipeline stage: a trace span (when tracing is on), a profiler stage
/// bracket (rusage + allocation deltas into perf.json), plus always-on
/// wall/sim duration gauges under `roomnet_pipeline_stage_*{stage=...}`.
class StageTimer {
 public:
  StageTimer(const char* stage, const EventLoop& loop)
      : stage_(stage),
        loop_(&loop),
        span_(stage, "pipeline"),
        prof_(stage),
        wall_start_(std::chrono::steady_clock::now()),
        sim_start_(loop.now()) {
    ROOMNET_LOG(kInfo, "pipeline", "stage_begin", kv("stage", stage_),
                kv("sim_us", sim_start_.us()));
  }

  ~StageTimer() {
    const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - wall_start_)
                             .count();
    auto& registry = telemetry::Registry::global();
    registry.gauge("roomnet_pipeline_stage_wall_ms", {{"stage", stage_}})
        .set(wall_ms);
    registry
        .gauge("roomnet_pipeline_stage_sim_seconds", {{"stage", stage_}})
        .set(static_cast<std::int64_t>((loop_->now() - sim_start_).seconds()));
    ROOMNET_LOG(kInfo, "pipeline", "stage_end", kv("stage", stage_),
                kv("wall_ms", static_cast<std::int64_t>(wall_ms)),
                kv("sim_us", loop_->now().us()));
  }

 private:
  const char* stage_;
  const EventLoop* loop_;
  telemetry::ScopedSpan span_;
  prof::StageScope prof_;
  std::chrono::steady_clock::time_point wall_start_;
  SimTime sim_start_;
};

/// Points the global tracer's and log ledger's sim clocks at this run's
/// event loop for the duration of run(); cleared on exit so spans and log
/// records never read a dead lab.
class SimClockGuard {
 public:
  explicit SimClockGuard(EventLoop& loop) {
    telemetry::Tracer::global().set_sim_clock([&loop] { return loop.now(); });
    obs::Ledger::global().set_sim_clock([&loop] { return loop.now(); });
  }
  ~SimClockGuard() {
    telemetry::Tracer::global().set_sim_clock(nullptr);
    obs::Ledger::global().set_sim_clock(nullptr);
  }
};

telemetry::Counter& degraded_counter(const char* stage) {
  return telemetry::Registry::global().counter("roomnet_faults_degraded_total",
                                               {{"stage", stage}});
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  lab_ = std::make_unique<Lab>(
      LabConfig{.seed = config_.seed, .record_frames = false});
  fault_plan_ = std::make_unique<faults::FaultPlan>(
      config_.faults, faults::fault_seed(config_.seed));
  if (fault_plan_->enabled()) {
    fault_plan_->install(lab_->network());
    // Arm the recovery paths: faults imply loss, loss implies retransmits.
    for (auto& device : lab_->devices()) device->host().dhcp_max_retries = 4;
  }
}

PipelineResults Pipeline::run() {
  const bool telemetry_run = !config_.telemetry_out.empty();
  if (telemetry_run) telemetry::enable();
  telemetry::Registry::global().counter("roomnet_pipeline_runs_total").inc();
  // Worker pool for the analysis stages. The simulation itself (stages 1,
  // 2, the scan sim, the app campaign) and the stage-3 fold stay on the
  // calling thread — only the vulnerability audit and the crowd analysis
  // shard, each with ordered merges, so the results are byte-identical for
  // any worker count.
  exec::TaskPool pool(
      config_.threads <= 0 ? 0 : static_cast<std::size_t>(config_.threads));
  auto& registry = telemetry::Registry::global();
  registry.gauge("roomnet_exec_pool_threads")
      .set(static_cast<std::int64_t>(pool.threads()));
  SimClockGuard sim_clock(lab_->loop());
  prof::Profiler::global().begin_run(static_cast<int>(pool.threads()));
  std::optional<telemetry::ScopedSpan> pipeline_span;
  pipeline_span.emplace("pipeline", "pipeline");

  // Provenance: every stage ends with a content hash of its outputs in the
  // run manifest. Exec task counters are global and cumulative, so stage
  // deltas are taken against this run's starting values.
  telemetry::Counter& tasks_submitted =
      registry.counter("roomnet_exec_tasks_submitted_total");
  telemetry::Counter& tasks_completed =
      registry.counter("roomnet_exec_tasks_completed_total");
  const std::uint64_t tasks_submitted_epoch = tasks_submitted.value();
  const std::uint64_t tasks_completed_epoch = tasks_completed.value();
  const std::uint64_t resolved_fault_seed = faults::fault_seed(config_.seed);
  const std::string config_digest = pipeline_config_digest(config_);
  obs::ManifestBuilder manifest;
  manifest.begin(config_.seed, resolved_fault_seed, config_digest,
                 static_cast<int>(pool.threads()));
  const auto record_stage = [&](const char* name, std::string content_hash) {
    manifest.add_stage(name, std::move(content_hash), lab_->loop().now().us(),
                       tasks_submitted.value() - tasks_submitted_epoch,
                       tasks_completed.value() - tasks_completed_epoch);
  };
  // Log records from this run on (the global ledger outlives the pipeline).
  const std::uint64_t log_epoch = obs::Ledger::global().recorded();
  ROOMNET_LOG(kInfo, "pipeline", "run_start", kv("seed", config_.seed),
              kv("fault_seed", resolved_fault_seed),
              kv("config_digest", config_digest),
              kv("threads", static_cast<std::uint64_t>(pool.threads())),
              kv("faults_enabled", fault_plan_->enabled()));

  PipelineResults results;
  for (const auto& device : lab_->devices())
    results.population.insert(device->mac());

  // Graceful degradation: with faults on, a stage that loses its inputs
  // records the loss instead of aborting the run. Fault-free runs keep the
  // historical fail-fast behavior.
  const auto guarded = [&](const char* stage, auto&& body) {
    if (!fault_plan_->enabled()) {
      body();
      return;
    }
    try {
      body();
    } catch (const std::exception& e) {
      results.degraded.push_back({stage, "stage", e.what()});
      degraded_counter(stage).inc();
      ROOMNET_LOG(kWarn, "pipeline", "stage_degraded", kv("stage", stage),
                  kv("reason", e.what()));
    }
  };

  // The network's own flight recorder: per-device event timelines plus the
  // streaming alert-rule engine, fed from the packet tap below (and, on
  // faulty runs, the switch fate tap and the churn observer). Everything it
  // sees arrives on the sim thread in event order, so the timeline — and
  // the "watch" manifest stage hashed from it — is byte-identical across
  // thread counts.
  std::unique_ptr<watch::Watcher> watcher;
  if (config_.watch.enabled) {
    watcher = std::make_unique<watch::Watcher>(config_.watch);
    for (const auto& device : lab_->devices())
      watcher->register_device(
          device->mac(), device->spec().vendor + " " + device->spec().model);
    watcher->register_device(lab_->router().mac(), "router");
    watcher->register_device(lab_->pixel().mac(), "pixel phone");
    watcher->register_device(lab_->iphone().mac(), "iphone");
    watcher->register_device(MacAddress::from_u64(0x02a0fc0000aaull),
                             "scanbox");
    watcher->add_known_resolver(lab_->router().ip());
    if (!watcher->rule_error().empty())
      ROOMNET_LOG(kWarn, "watch", "rule_parse_error",
                  kv("error", watcher->rule_error()));
    if (fault_plan_->enabled())
      lab_->network().add_fate_tap(
          [&w = *watcher](SimTime at, MacAddress src,
                          const Switch::FrameFate& fate, std::size_t size) {
            w.on_fate(at, src, fate, size);
          });
  }

  if (fault_plan_->enabled() && config_.faults.churn > 0) {
    std::vector<Host*> hosts;
    hosts.reserve(lab_->devices().size());
    for (auto& device : lab_->devices()) hosts.push_back(&device->host());
    churn_ = std::make_unique<faults::ChurnDriver>(*fault_plan_);
    if (watcher != nullptr)
      churn_->set_observer([&w = *watcher](const faults::ChurnEvent& event) {
        w.on_churn(event.at, event.mac, event.label, event.online);
      });
    churn_->attach(lab_->loop(), std::move(hosts));
  }

  // Capture path: no CaptureStore, no FlowTable — each local packet folds
  // straight into the stage-3 analysis builders behind the StreamAnalyzer's
  // flow cache, on the sim thread in event order. Memory is O(active flows).
  //
  // The capture hasher folds every captured frame (timestamp + raw bytes)
  // into a running SHA-256; snapshots at stage boundaries become the sim
  // stages' manifest hashes, pinning a determinism break to the first window
  // whose traffic moved.
  //
  // The capture window is lab boot through interactions: the traffic the
  // passive analyses (§4.1, §5.1, C.2, D.2) read. It closes when stage 3
  // starts. From then on the tap only counts local packets (for the whole
  // run) and feeds the watch layer, whose timeline includes the scan; the
  // scan and app-campaign traffic is never flow-tracked, hashed or folded.
  const LocalFilter filter;
  stream::StreamAnalyzer analyzer(config_.stream, results.population);
  // Flow completions (evictions mid-run, the rest at the classify flush)
  // feed the watch layer's upload-ratio rules in creation order.
  if (watcher != nullptr)
    analyzer.set_flow_observer(
        [&w = *watcher](const FlowRecord& record, PruneReason reason) {
          w.on_flow(record, reason);
        });
  obs::CanonicalHasher capture_hash;
  bool capture_open = true;
  lab_->network().add_packet_tap(
      [&](SimTime at, const PacketView& packet, BytesView raw) {
        if (!filter.matches(packet)) return;
        ++results.local_packets;
        if (watcher != nullptr) watcher->on_packet(at, packet);
        if (!capture_open) return;
        capture_hash.i64(at.us());
        capture_hash.bytes(raw);
        analyzer.on_packet(at, packet);
      });

  // --- Stage 1: idle capture (§3.1) -----------------------------------
  {
    StageTimer stage(stages::kLabBoot, lab_->loop());
    lab_->start_all();
  }
  record_stage(stages::kLabBoot, capture_hash.hex());
  {
    StageTimer stage(stages::kIdle, lab_->loop());
    lab_->run_idle(config_.idle_duration);
  }
  record_stage(stages::kIdle, capture_hash.hex());

  // --- Stage 2: interactions (§3.1) ------------------------------------
  if (config_.interactions > 0) {
    StageTimer stage(stages::kInteractions, lab_->loop());
    lab_->run_interactions(config_.interactions);
    record_stage(stages::kInteractions, capture_hash.hex());
  }

  // --- Stage 3: passive analyses (§4.1, §5.1, C.2, D.2) ----------------
  {
    StageTimer stage(stages::kClassify, lab_->loop());
    capture_open = false;
    guarded(stages::kClassify, [&] {
      // The folds already ran at tap time; finish() flushes the cache
      // (remaining flows complete in creation order) and hands over the
      // accumulated results.
      stream::StreamResults sr = analyzer.finish();
      results.usage = std::move(sr.usage);
      results.graph = std::move(sr.graph);
      results.exposure = std::move(sr.exposure);
      results.crossval = std::move(sr.crossval);
      results.responses = std::move(sr.responses);
      results.flows = sr.flows;
      ROOMNET_LOG(kInfo, "pipeline", "flow_cache",
                  kv("flows_created", sr.cache.flows_created),
                  kv("peak_flows",
                     static_cast<std::uint64_t>(sr.cache.peak_flows)),
                  kv("peak_bytes",
                     static_cast<std::uint64_t>(sr.cache.peak_bytes)),
                  kv("prunes", sr.cache.prunes_total()));
    });
    record_stage(stages::kClassify, hash_classify_stage(results));
  }

  // --- Stage 4: active scan + vulnerability audit (§4.2, §5.2) ----------
  if (config_.run_scan) {
    StageTimer stage(stages::kScan, lab_->loop());
    guarded(stages::kScan, [&] {
      Host scan_box(lab_->network(), MacAddress::from_u64(0x02a0fc0000aaull),
                    "scanbox");
      scan_box.set_static_ip(Ipv4Address(192, 168, 10, 251));
      std::vector<ScanTarget> targets;
      for (const auto& device : lab_->devices()) {
        if (!device->host().has_ip()) {
          // Lost to faults (dropped DHCP past the retry budget, or offline
          // through churn): scan what answered, record what could not.
          if (fault_plan_->enabled()) {
            const std::string label =
                device->spec().vendor + " " + device->spec().model;
            results.degraded.push_back(
                {stages::kScan, label, "no IPv4 lease at scan time"});
            degraded_counter(stages::kScan).inc();
            ROOMNET_LOG(kWarn, "scan", "target_unreachable",
                        kv("device", label),
                        kv("reason", "no IPv4 lease at scan time"));
          }
          continue;
        }
        targets.push_back({device->mac(), device->host().ip(),
                           device->spec().vendor + " " + device->spec().model});
      }
      PortScanConfig scan_config;
      if (fault_plan_->enabled()) scan_config.max_retries = 2;
      PortScanner scanner(scan_box, scan_config);
      scanner.start(targets);
      lab_->run_for(scanner.estimated_duration());
      results.scan_reports = scanner.reports();
      if (fault_plan_->enabled()) {
        for (const auto& report : results.scan_reports) {
          if (report.responded_tcp || report.responded_udp ||
              report.responded_ip)
            continue;
          results.degraded.push_back({stages::kScan, report.target.label,
                                      "silent under scan despite retries"});
          degraded_counter(stages::kScan).inc();
          ROOMNET_LOG(kWarn, "scan", "target_silent",
                      kv("device", report.target.label),
                      kv("reason", "silent under scan despite retries"));
        }
      }

      ServiceProber prober(scan_box);
      prober.start(scanner.reports());
      lab_->run_for(prober.estimated_duration());
      results.audits = prober.audits();
      results.vulnerabilities = scan_vulnerabilities(results.audits, pool);
    });
    record_stage(stages::kScan, hash_scan_stage(results));
  }

  // --- Stage 5: app campaign (§3.2, §6.1, §6.2) -------------------------
  if (config_.app_sample > 0) {
    StageTimer stage(stages::kApps, lab_->loop());
    guarded(stages::kApps, [&] {
      Rng app_rng = lab_->rng().fork("app-dataset");
      const AppDataset dataset = generate_app_dataset(app_rng);
      AppRunner runner(*lab_);
      if (fault_plan_->enabled()) runner.set_scan_retries(2);
      std::vector<AppRunRecord> records;
      const int count = std::min<int>(config_.app_sample,
                                      static_cast<int>(dataset.apps.size()));
      records.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i)
        records.push_back(runner.run(dataset.apps[static_cast<std::size_t>(i)],
                                     SimTime::from_seconds(15)));
      if (fault_plan_->enabled()) {
        for (const auto& record : records) {
          const AppSpec& spec = record.spec;
          const bool scans =
              spec.scans_mdns || spec.scans_ssdp || spec.uses_tplink;
          if (spec.platform == MobilePlatform::kAndroid && scans &&
              record.devices_discovered == 0) {
            results.degraded.push_back(
                {stages::kApps, spec.package, "discovery scans returned no devices"});
            degraded_counter(stages::kApps).inc();
            ROOMNET_LOG(kWarn, "apps", "discovery_empty",
                        kv("package", spec.package),
                        kv("reason", "discovery scans returned no devices"));
          }
        }
      }
      results.app_stats = summarize_campaign(records);
      results.exfiltration = detect_exfiltration(records);
    });
    record_stage(stages::kApps, hash_apps_stage(results));
  }

  // --- Stage 6: crowdsourced entropy analysis (§6.3) --------------------
  if (config_.run_crowd) {
    StageTimer stage(stages::kCrowd, lab_->loop());
    guarded(stages::kCrowd, [&] {
      Rng crowd_rng(config_.seed ^ 0xc0ffee);
      const InspectorDataset dataset = generate_inspector_dataset(crowd_rng);
      results.fingerprints = fingerprint_households(dataset, pool);
    });
    record_stage(stages::kCrowd, hash_crowd_stage(results));
  }

  // Churn ledger: every outage the run absorbed, in deterministic order.
  // Bracketed as a stage so perf.json covers every stage the manifest names.
  {
    StageTimer stage(stages::kDegraded, lab_->loop());
    if (churn_ != nullptr) {
      churn_->detach();
      for (const auto& event : churn_->log()) {
        if (event.online) continue;
        results.degraded.push_back(
            {"churn", event.label,
             "offline at t=" +
                 std::to_string(static_cast<long long>(event.at.seconds())) +
                 "s"});
        degraded_counter("churn").inc();
      }
    }
  }
  // The degradation ledger is itself a manifest stage: churn outages and
  // stage losses under faults must replay identically across thread counts.
  record_stage(stages::kDegraded, hash_degraded_ledger(results.degraded));

  // --- Watch: close the in-network timeline -----------------------------
  // Final rule sweep (lingering alerts resolve, absence rules get one last
  // look), then the merged per-device rings become the run's event stream.
  // Its jsonl serialization is the stage hash, so `roomnet-audit diff`
  // names "watch" the moment any timeline byte moves.
  if (watcher != nullptr) {
    {
      StageTimer stage(stages::kWatch, lab_->loop());
      results.watch = watcher->finish();
      ROOMNET_LOG(kInfo, "watch", "timeline",
                  kv("events", results.watch.events_emitted),
                  kv("kept",
                     static_cast<std::uint64_t>(results.watch.events.size())),
                  kv("dropped", results.watch.events_dropped),
                  kv("devices", results.watch.devices_tracked));
    }
    record_stage(stages::kWatch, watch::hash_events(results.watch.events));
  }
  // Read at the end of the run, not at classify: stage 3's inputs must not
  // have grown since the capture closed.
  results.analyzed_packets = analyzer.packets();
  results.flow_cache = analyzer.cache().stats();
  results.profile = prof::Profiler::global().finish();

  results.manifest = manifest.finish();
  ROOMNET_LOG(kInfo, "pipeline", "run_end",
              kv("result_digest", results.manifest.result_digest),
              kv("stages",
                 static_cast<std::uint64_t>(results.manifest.stages.size())),
              kv("degraded",
                 static_cast<std::uint64_t>(results.degraded.size())));

  pipeline_span.reset();  // close the whole-run span before exporting
  if (telemetry_run) {
    roomnet_telemetry_report(config_.telemetry_out);
    write_text_file(config_.telemetry_out + "/perf.json",
                    prof::to_json(results.profile));
    prof::write_folded_stacks(config_.telemetry_out);
    write_text_file(config_.telemetry_out + "/manifest.json",
                    obs::to_json(results.manifest));
    write_text_file(config_.telemetry_out + "/resources.json",
                    obs::resources_to_json(results.manifest));
    // The in-network event timeline, next to the manifest that hashes it.
    if (watcher != nullptr)
      write_text_file(config_.telemetry_out + "/events.jsonl",
                      watch::events_to_jsonl(results.watch.events));
    // This run's slice of the global ledger (empty file when logging is off
    // — CI uploads the artifact unconditionally).
    std::vector<obs::LogRecord> run_logs;
    for (auto& record : obs::Ledger::global().records())
      if (record.seq >= log_epoch) run_logs.push_back(std::move(record));
    obs::write_jsonl(config_.telemetry_out + "/logs.jsonl", run_logs);
  }
  return results;
}

}  // namespace roomnet
