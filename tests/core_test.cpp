// End-to-end pipeline test: one (reduced-scale) run of the full study.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/roomnet.hpp"
#include "core/stage_names.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace roomnet {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineConfig config;
    config.seed = 42;
    config.idle_duration = SimTime::from_minutes(40);
    config.interactions = 120;
    config.app_sample = 40;
    pipeline_ = new Pipeline(config);
    results_ = new PipelineResults(pipeline_->run());
  }
  static void TearDownTestSuite() {
    delete results_;
    delete pipeline_;
    results_ = nullptr;
    pipeline_ = nullptr;
  }
  static Pipeline* pipeline_;
  static PipelineResults* results_;
};
Pipeline* PipelineFixture::pipeline_ = nullptr;
PipelineResults* PipelineFixture::results_ = nullptr;

TEST_F(PipelineFixture, CapturesSubstantialLocalTraffic) {
  EXPECT_GT(results_->local_packets, 5000u);
  EXPECT_GT(results_->flows, 100u);
  EXPECT_EQ(results_->population.size(), 93u);
}

TEST_F(PipelineFixture, Rq1ProtocolDiversity) {
  // The paper's Figure 2 shows >20 protocols in passive traffic.
  const auto labels = results_->usage.all_labels();
  EXPECT_GE(labels.size(), 12u);
  // The headline ordering: ARP/DHCP near-universal, mDNS ~44%, SSDP ~1/3.
  const auto pct = [&](ProtocolLabel label) {
    return 100.0 *
           static_cast<double>(
               results_->usage.devices_using(label, results_->population)) /
           93.0;
  };
  EXPECT_GT(pct(ProtocolLabel::kArp), 80);
  EXPECT_GT(pct(ProtocolLabel::kDhcp), 85);
  EXPECT_GT(pct(ProtocolLabel::kArp), pct(ProtocolLabel::kMdns));
  EXPECT_GT(pct(ProtocolLabel::kMdns), pct(ProtocolLabel::kTuyaLp));
}

TEST_F(PipelineFixture, Rq1CommunicationGraphHasVendorClusters) {
  EXPECT_GT(results_->graph.connected_nodes().size(), 10u);
  EXPECT_FALSE(results_->graph.edges.empty());
}

TEST_F(PipelineFixture, Rq2ExposureMatrixPopulated) {
  EXPECT_TRUE(results_->exposure.exposed(ProtocolLabel::kArp, ExposedData::kMac));
  EXPECT_TRUE(
      results_->exposure.exposed(ProtocolLabel::kDhcp, ExposedData::kOsVersion));
  EXPECT_TRUE(
      results_->exposure.exposed(ProtocolLabel::kTuyaLp, ExposedData::kGwId));
}

TEST_F(PipelineFixture, Rq2VulnerabilitiesFound) {
  EXPECT_FALSE(results_->vulnerabilities.empty());
  bool weak_key = false;
  for (const auto& finding : results_->vulnerabilities)
    weak_key |= finding.id == "CVE-2016-2183";
  EXPECT_TRUE(weak_key);
}

TEST_F(PipelineFixture, Rq3AppCampaignAndEntropy) {
  EXPECT_EQ(results_->app_stats.total_apps, 40u);
  EXPECT_FALSE(results_->exfiltration.empty());
  EXPECT_FALSE(results_->fingerprints.rows.empty());
}

TEST_F(PipelineFixture, ClassifierDisagreementIsRealistic) {
  // Appendix C.2: the tools disagree on a noticeable but minor fraction.
  EXPECT_GT(results_->crossval.total, 100u);
  EXPECT_GT(results_->crossval.agreement_rate(), 0.3);
  EXPECT_GT(results_->crossval.disagreement_rate(), 0.0);
  EXPECT_LT(results_->crossval.disagreement_rate(), 0.6);
}

// A short seed-42 lab run (10 virtual minutes idle plus a few
// interactions), hashed frame by frame off the switch. The value is pinned:
// a refactor of the simulator's receive path (how often hosts read the
// wire, not what they put on it) must leave every transmitted frame, and
// its timestamp, exactly as it was.
class LabWireFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LabConfig config;
    config.seed = 42;
    config.record_frames = false;
    Lab lab(config);
    obs::CanonicalHasher hasher;
    lab.network().add_packet_tap(
        [&](SimTime at, const PacketView& packet, BytesView raw) {
          ++frames_;
          hasher.i64(at.us());
          hasher.bytes(raw);
          if (packet.udp && (value(packet.udp->src_port) == kMdnsPort ||
                             value(packet.udp->dst_port) == kMdnsPort))
            ++mdns_frames_;
        });
    const std::uint64_t decodes_before = dns_decodes().value();
    lab.start_all();
    lab.run_idle(SimTime::from_minutes(10));
    lab.run_interactions(10);
    hash_ = hasher.hex();
    dns_decodes_ = dns_decodes().value() - decodes_before;
  }
  static telemetry::Counter& dns_decodes() {
    return telemetry::Registry::global().counter(
        "roomnet_sim_app_decodes_total", {{"proto", "dns"}});
  }
  static inline std::string hash_;
  static inline std::uint64_t frames_ = 0;
  static inline std::uint64_t mdns_frames_ = 0;
  static inline std::uint64_t dns_decodes_ = 0;
};

TEST_F(LabWireFixture, CaptureHashIsPinned) {
  EXPECT_EQ(frames_, 18725u);
  EXPECT_EQ(hash_, "c2ef1f33bc262c2c1035f15753cfeffe979c9d915409afb857155e02fb439564");
}

// mDNS multicast reaches every host on the segment, but responders filter
// on the wire: an owning decode is only paid where an observer keeps the
// message, never once per receiver.
TEST_F(LabWireFixture, AtMostOneOwningDnsDecodePerMdnsFrame) {
  ASSERT_GT(mdns_frames_, 100u);
  EXPECT_LE(dns_decodes_, mdns_frames_);
}

TEST(PipelineDeterminism, SameSeedSameHeadlineNumbers) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = false;
  config.run_crowd = false;
  Pipeline p1(config), p2(config);
  const auto r1 = p1.run();
  const auto r2 = p2.run();
  EXPECT_EQ(r1.local_packets, r2.local_packets);
  EXPECT_EQ(r1.flows, r2.flows);
  EXPECT_EQ(r1.graph.edges.size(), r2.graph.edges.size());
}

TEST(PipelineDeterminism, ByteIdenticalAcrossThreadCounts) {
  // The exec runtime's contract: partial results always merge in index
  // order, so the full result tables — including the parallelized
  // cross-validation, vulnerability audit, and fingerprint analysis — are
  // identical for every worker count, and threads=1 is the historical
  // sequential path.
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  config.run_scan = true;
  config.run_crowd = true;

  const auto run_with = [&](int threads) {
    PipelineConfig c = config;
    c.threads = threads;
    Pipeline pipeline(c);
    return pipeline.run();
  };
  const PipelineResults base = run_with(1);
  EXPECT_FALSE(base.vulnerabilities.empty());
  EXPECT_FALSE(base.fingerprints.rows.empty());
  EXPECT_GT(base.crossval.total, 100u);
  EXPECT_FALSE(base.manifest.stages.empty());
  EXPECT_FALSE(base.manifest.result_digest.empty());

  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PipelineResults r = run_with(threads);

    EXPECT_EQ(r.local_packets, base.local_packets);
    EXPECT_EQ(r.flows, base.flows);
    EXPECT_EQ(r.population, base.population);
    EXPECT_EQ(r.usage.by_device, base.usage.by_device);

    ASSERT_EQ(r.graph.edges.size(), base.graph.edges.size());
    for (std::size_t i = 0; i < r.graph.edges.size(); ++i) {
      EXPECT_EQ(r.graph.edges[i].a, base.graph.edges[i].a) << i;
      EXPECT_EQ(r.graph.edges[i].b, base.graph.edges[i].b) << i;
      EXPECT_EQ(r.graph.edges[i].packets, base.graph.edges[i].packets) << i;
    }

    EXPECT_EQ(r.crossval.matrix, base.crossval.matrix);
    EXPECT_EQ(r.crossval.total, base.crossval.total);
    EXPECT_EQ(r.crossval.agreed, base.crossval.agreed);
    EXPECT_EQ(r.crossval.disagreed, base.crossval.disagreed);
    EXPECT_EQ(r.crossval.neither_labeled, base.crossval.neither_labeled);
    EXPECT_EQ(r.crossval.spec_labeled, base.crossval.spec_labeled);
    EXPECT_EQ(r.crossval.deep_labeled, base.crossval.deep_labeled);

    EXPECT_EQ(r.exposure.cells, base.exposure.cells);
    EXPECT_EQ(r.responses.discovery_protocols,
              base.responses.discovery_protocols);
    EXPECT_EQ(r.responses.answered_protocols, base.responses.answered_protocols);
    EXPECT_EQ(r.responses.matches.size(), base.responses.matches.size());

    EXPECT_EQ(r.scan_reports.size(), base.scan_reports.size());
    EXPECT_EQ(r.audits.size(), base.audits.size());
    ASSERT_EQ(r.vulnerabilities.size(), base.vulnerabilities.size());
    for (std::size_t i = 0; i < r.vulnerabilities.size(); ++i) {
      EXPECT_EQ(r.vulnerabilities[i].mac, base.vulnerabilities[i].mac) << i;
      EXPECT_EQ(r.vulnerabilities[i].device, base.vulnerabilities[i].device) << i;
      EXPECT_EQ(r.vulnerabilities[i].severity, base.vulnerabilities[i].severity)
          << i;
      EXPECT_EQ(r.vulnerabilities[i].id, base.vulnerabilities[i].id) << i;
      EXPECT_EQ(r.vulnerabilities[i].title, base.vulnerabilities[i].title) << i;
      EXPECT_EQ(r.vulnerabilities[i].evidence, base.vulnerabilities[i].evidence)
          << i;
    }

    ASSERT_EQ(r.fingerprints.rows.size(), base.fingerprints.rows.size());
    for (std::size_t i = 0; i < r.fingerprints.rows.size(); ++i) {
      const auto& a = r.fingerprints.rows[i];
      const auto& b = base.fingerprints.rows[i];
      EXPECT_EQ(a.types, b.types) << i;
      EXPECT_EQ(a.products, b.products) << i;
      EXPECT_EQ(a.vendors, b.vendors) << i;
      EXPECT_EQ(a.devices, b.devices) << i;
      EXPECT_EQ(a.households, b.households) << i;
      EXPECT_EQ(a.uniquely_identified, b.uniquely_identified) << i;
      // Bit-exact: entropy is computed in the sequential aggregation stage
      // from inputs that are themselves worker-count invariant.
      EXPECT_EQ(a.entropy_bits, b.entropy_bits) << i;
    }

    // The flight-recorder manifest is the machine-checkable form of all the
    // assertions above: byte-identical manifest.json across thread counts.
    EXPECT_EQ(obs::to_json(r.manifest), obs::to_json(base.manifest));
    const obs::ManifestDiff diff = obs::diff_manifests(base.manifest, r.manifest);
    EXPECT_TRUE(diff.equal) << diff.detail;
  }
}

TEST(PipelineDeterminism, ByteIdenticalAcrossThreadCountsWithFaults) {
  // The zero-copy capture path (arena + shared delivery buffers) must not
  // introduce thread-count-dependent behavior even when fault injection
  // perturbs the frame stream: same seed + same fault plan ⇒ byte-identical
  // manifest at every worker count.
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 10;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  config.faults.loss = 0.03;
  config.faults.duplicate = 0.02;
  config.faults.truncate = 0.02;
  config.faults.corrupt = 0.01;

  const auto run_with = [&](int threads) {
    PipelineConfig c = config;
    c.threads = threads;
    Pipeline pipeline(c);
    return pipeline.run();
  };
  const PipelineResults base = run_with(1);
  EXPECT_FALSE(base.manifest.stages.empty());
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const PipelineResults r = run_with(threads);
    EXPECT_EQ(r.local_packets, base.local_packets);
    EXPECT_EQ(obs::to_json(r.manifest), obs::to_json(base.manifest));
    const obs::ManifestDiff diff = obs::diff_manifests(base.manifest, r.manifest);
    EXPECT_TRUE(diff.equal) << diff.detail;
  }
}

TEST(PipelineDeterminism, AuditNamesFirstDivergentStageAcrossFaultSeeds) {
  // Two runs that differ only in the injected fault stream: the manifests
  // must disagree, and diff_manifests() must attribute the divergence to a
  // named stage rather than a generic "results differ".
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 0;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;
  config.faults.loss = 0.05;

  const auto run_with_fault_seed = [&](const char* seed) {
    EXPECT_EQ(setenv("ROOMNET_FAULT_SEED", seed, /*overwrite=*/1), 0);
    Pipeline pipeline(config);
    const PipelineResults r = pipeline.run();
    unsetenv("ROOMNET_FAULT_SEED");
    return r.manifest;
  };
  const obs::RunManifest a = run_with_fault_seed("0x1111");
  const obs::RunManifest b = run_with_fault_seed("0x2222");
  EXPECT_EQ(a.sim_seed, b.sim_seed);
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_NE(a.fault_seed, b.fault_seed);

  const obs::ManifestDiff diff = obs::diff_manifests(a, b);
  EXPECT_FALSE(diff.equal);
  // The fault-seed mismatch is noted but does not stop the audit: the walk
  // continues to name the first stage the diverging fault stream touched.
  EXPECT_EQ(diff.component, "stage") << diff.detail;
  EXPECT_FALSE(diff.stage.empty());
}

TEST(PipelineDeterminism, StructuredLoggingDoesNotPerturbResults) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = false;
  config.run_crowd = false;
  config.faults.loss = 0.02;  // exercise the fault-path kDebug log sites

  obs::Ledger& ledger = obs::Ledger::global();
  const obs::LogLevel saved = ledger.level();
  ledger.set_level(obs::LogLevel::kOff);
  Pipeline quiet(config);
  const PipelineResults r_quiet = quiet.run();

  ledger.set_level(obs::LogLevel::kDebug);
  Pipeline verbose(config);
  const PipelineResults r_verbose = verbose.run();
  const std::uint64_t recorded = ledger.recorded();
  ledger.set_level(saved);

  // Logging observed plenty...
  EXPECT_GT(recorded, 0u);
  // ...and changed nothing: bit-for-bit identical manifests.
  EXPECT_EQ(obs::to_json(r_quiet.manifest), obs::to_json(r_verbose.manifest));
  EXPECT_TRUE(obs::diff_manifests(r_quiet.manifest, r_verbose.manifest).equal);
  EXPECT_EQ(r_quiet.local_packets, r_verbose.local_packets);
  EXPECT_EQ(r_quiet.flows, r_verbose.flows);
}

// Stage 3 reads the capture from lab boot through interactions; the scan
// probes and app-campaign traffic that follow are counted and watched but
// never stored, flow-tracked or folded. The result digest was pinned before
// the capture learnt to close, so closing it moved no stage hash.
TEST(PipelineDeterminism, CaptureClosesAtStageThree) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = true;
  config.run_crowd = true;

  Pipeline pipeline(config);
  const PipelineResults r = pipeline.run();

  std::size_t closed_stages = 0;
  for (const prof::StageProfile& stage : r.profile.stages) {
    if (stage.name == stages::kScan || stage.name == stages::kApps ||
        stage.name == stages::kCrowd) {
      EXPECT_EQ(stage.arena_bytes, 0u) << stage.name;
      ++closed_stages;
    }
  }
  EXPECT_EQ(closed_stages, 3u);
  EXPECT_GT(r.analyzed_packets, 5000u);
  EXPECT_GT(r.local_packets, r.analyzed_packets);

  std::size_t scan_probes = 0;
  for (const watch::NetEvent& event : r.watch.events)
    scan_probes += event.type == watch::NetEventType::kScanProbe ? 1 : 0;
  EXPECT_GT(scan_probes, 0u);

  // Pinned on the commit before the capture closed at classify.
  EXPECT_EQ(r.local_packets, 466434u);
  EXPECT_EQ(r.manifest.result_digest,
            "5ca2088a6373443ed36b9460a4a360a2342d74be694c82bcf6326c3150179deb");
}

TEST(PipelineTelemetry, PopulatesStageMetricsWithoutChangingResults) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 5;
  config.run_scan = false;
  config.run_crowd = true;

  // Baseline run with telemetry off, then the same config with telemetry on.
  Pipeline plain(config);
  const auto r1 = plain.run();

  const std::filesystem::path out_dir = "telemetry_core_test_out";
  std::filesystem::remove_all(out_dir);
  PipelineConfig instrumented = config;
  instrumented.telemetry_out = out_dir.string();
  Pipeline traced(instrumented);
  const auto r2 = traced.run();
  telemetry::disable();

  // Determinism guard: telemetry must not perturb the study's result tables.
  EXPECT_EQ(r1.local_packets, r2.local_packets);
  EXPECT_EQ(r1.flows, r2.flows);
  EXPECT_EQ(r1.population, r2.population);
  EXPECT_EQ(r1.graph.edges.size(), r2.graph.edges.size());
  EXPECT_EQ(r1.usage.all_labels(), r2.usage.all_labels());
  EXPECT_EQ(r1.crossval.total, r2.crossval.total);
  EXPECT_EQ(r1.app_stats.total_apps, r2.app_stats.total_apps);
  EXPECT_EQ(r1.exfiltration.size(), r2.exfiltration.size());
  EXPECT_EQ(r1.fingerprints.rows.size(), r2.fingerprints.rows.size());

  // Stage metrics are populated for every stage that ran.
  auto& registry = telemetry::Registry::global();
  for (const char* stage :
       {"lab_boot", "idle", "interactions", "classify", "apps", "crowd"}) {
    EXPECT_GE(registry
                  .gauge("roomnet_pipeline_stage_wall_ms", {{"stage", stage}})
                  .value(),
              0)
        << stage;
  }
  EXPECT_EQ(registry
                .gauge("roomnet_pipeline_stage_sim_seconds", {{"stage", "idle"}})
                .value(),
            600);  // exactly the configured 10 virtual minutes
  EXPECT_GT(registry.counter("roomnet_sim_events_fired").value(), 0u);
  EXPECT_GT(registry.counter("roomnet_switch_frames_total").value(), 0u);
  EXPECT_GT(registry.counter("roomnet_switch_bytes_total").value(), 0u);
  EXPECT_GE(registry.counter("roomnet_pipeline_runs_total").value(), 2u);

  // The report landed on disk and the trace carries one span per stage.
  EXPECT_TRUE(std::filesystem::exists(out_dir / "metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(out_dir / "metrics.json"));

  // Run provenance rides along: the deterministic manifest, its volatile
  // resources sidecar, and the JSONL log export (possibly empty).
  EXPECT_TRUE(std::filesystem::exists(out_dir / "resources.json"));
  EXPECT_TRUE(std::filesystem::exists(out_dir / "logs.jsonl"));
  const std::optional<obs::RunManifest> manifest =
      obs::load_manifest((out_dir / "manifest.json").string());
  ASSERT_TRUE(manifest.has_value());
  EXPECT_TRUE(obs::diff_manifests(r2.manifest, *manifest).equal);

  ASSERT_TRUE(std::filesystem::exists(out_dir / "trace.json"));
  std::ifstream trace_file(out_dir / "trace.json");
  std::stringstream trace;
  trace << trace_file.rdbuf();
  for (const char* stage :
       {"pipeline", "lab_boot", "idle", "interactions", "classify", "apps",
        "crowd"}) {
    EXPECT_NE(trace.str().find("\"name\":\"" + std::string(stage) + "\""),
              std::string::npos)
        << stage;
  }
  std::filesystem::remove_all(out_dir);
}

}  // namespace
}  // namespace roomnet
