// roomnet::prof tests: counter substrate, rusage sampling, the per-stage
// profiler, perf.json round-trips, the regression differ, folded-stack
// export, and the pipeline-level determinism contract (perf.json's
// deterministic core is identical across thread counts).
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "capture/capture_store.hpp"
#include "capture/filter.hpp"
#include "core/pipeline.hpp"
#include "netcore/frame_store.hpp"
#include "prof/counters.hpp"
#include "prof/folded.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "prof/rusage.hpp"
#include "proto/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace roomnet {
namespace {

TEST(ResourceSampleTest, SamplesAreSane) {
  const prof::ResourceSample a = prof::ResourceSample::now();
  // Burn a little CPU so the second sample can only move forward.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<std::uint64_t>(i);
  const prof::ResourceSample b = prof::ResourceSample::now();

  EXPECT_GE(b.wall_us, a.wall_us);
  EXPECT_GE(b.user_us, a.user_us);
  EXPECT_GE(b.sys_us, a.sys_us);
  // rss_kb (statm) and peak_rss_kb (ru_maxrss) come from different kernel
  // accounting and are not mutually ordered — only sanity-check each alone.
  EXPECT_GT(a.rss_kb, 0);
  EXPECT_GT(a.peak_rss_kb, 0);
  EXPECT_GE(prof::page_size_bytes(), 4096);

  const prof::ResourceDelta d = prof::delta(a, b);
  EXPECT_GE(d.wall_us, 0);
  EXPECT_EQ(d.rss_kb, b.rss_kb);
}

TEST(CountersTest, FrameStoreArenaHooksCountChunks) {
  const prof::AllocSnapshot before = prof::snapshot_alloc_counters();
  const std::uint64_t tl_before = prof::t_alloc_counters.arena_bytes;

  FrameStore store(1024);
  std::vector<std::uint8_t> frame(400, 0xab);
  // Three 400B frames into 1KiB chunks: frames 1+2 share the first chunk,
  // frame 3 opens the second.
  for (int i = 0; i < 3; ++i)
    store.append(BytesView(frame.data(), frame.size()));
  std::vector<std::uint8_t> big(5000, 0xcd);
  store.append(BytesView(big.data(), big.size()));  // dedicated large chunk

  const prof::AllocSnapshot after = prof::snapshot_alloc_counters();
  EXPECT_EQ(after.arena_allocs - before.arena_allocs, 3u);
  EXPECT_EQ(after.arena_bytes - before.arena_bytes, 1024u + 1024u + 5000u);
  EXPECT_EQ(prof::t_alloc_counters.arena_bytes - tl_before,
            1024u + 1024u + 5000u);
  EXPECT_EQ(store.large_chunk_count(), 1u);
}

TEST(CountersTest, HeapCountersMatchBuildConfiguration) {
  const prof::AllocSnapshot before = prof::snapshot_alloc_counters();
  auto* block = new std::uint8_t[4096];
  // Escape the pointer so the compiler cannot elide the new/delete pair
  // (C++14 allocation elision would otherwise skip the hooks entirely).
  asm volatile("" : : "g"(block) : "memory");
  const prof::AllocSnapshot mid = prof::snapshot_alloc_counters();
  delete[] block;
  const prof::AllocSnapshot after = prof::snapshot_alloc_counters();

  if (prof::heap_hooks_active()) {
    EXPECT_GE(mid.heap_allocs - before.heap_allocs, 1u);
    EXPECT_GE(mid.heap_bytes - before.heap_bytes, 4096u);
    EXPECT_GE(after.heap_frees - mid.heap_frees, 1u);
  } else {
    EXPECT_EQ(mid.heap_allocs, before.heap_allocs);
    EXPECT_EQ(after.heap_bytes, before.heap_bytes);
  }
}

prof::ProfReport make_report() {
  prof::ProfReport report;
  report.compiler = "test-cc 1.0";
  report.profile_heap = false;
  report.threads = 2;
  report.hardware_threads = 8;
  report.page_size = 4096;
  const auto stage = [](const char* name, std::int64_t wall,
                        std::uint64_t arena_bytes) {
    prof::StageProfile s;
    s.name = name;
    s.wall_us = wall;
    s.user_us = wall / 2;
    s.sys_us = wall / 10;
    s.minor_faults = 100;
    s.major_faults = 1;
    s.rss_delta_kb = 256;
    s.rss_kb = 100 * 1024;
    s.peak_rss_kb = 120 * 1024;
    s.arena_allocs = 2000;
    s.arena_bytes = arena_bytes;
    s.pool_tasks = 7;
    s.heap_allocs = 0;
    s.heap_bytes = 0;
    s.heap_peak_live_bytes = 1 << 20;
    return s;
  };
  report.stages.push_back(stage("lab_boot", 50000, 8 << 20));
  report.stages.push_back(stage("idle", 900000, 16 << 20));
  report.stages.push_back(stage("classify", 700000, 8 << 20));
  report.totals = stage("total", 1650000, 32 << 20);
  return report;
}

TEST(ReportTest, JsonRoundTripIsLossless) {
  const prof::ProfReport report = make_report();
  const std::string text = prof::to_json(report);
  const auto parsed = prof::parse_report(text);
  ASSERT_TRUE(parsed.has_value());
  // Canonical serialization: parse(to_json(x)) re-serializes byte-identical.
  EXPECT_EQ(prof::to_json(*parsed), text);
  EXPECT_EQ(parsed->compiler, "test-cc 1.0");
  EXPECT_EQ(parsed->threads, 2);
  ASSERT_EQ(parsed->stages.size(), 3u);
  EXPECT_EQ(parsed->stages[1].name, "idle");
  EXPECT_EQ(parsed->stages[1].wall_us, 900000);
  EXPECT_EQ(parsed->stages[1].arena_bytes, 16u << 20);
  EXPECT_EQ(parsed->totals.name, "total");

  EXPECT_FALSE(prof::parse_report("not json").has_value());
  EXPECT_FALSE(prof::parse_report("{\"schema\": 1}").has_value());
}

TEST(ReportTest, LoadReportReadsFile) {
  const std::filesystem::path path = "prof_test_report.json";
  {
    std::ofstream out(path);
    out << prof::to_json(make_report());
  }
  const auto loaded = prof::load_report(path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->stages.size(), 3u);
  std::filesystem::remove(path);
  EXPECT_FALSE(prof::load_report(path.string()).has_value());
}

TEST(ReportTest, FingerprintCoversOnlyDeterministicFields) {
  const prof::ProfReport a = make_report();
  prof::ProfReport b = make_report();
  // Host-dependent noise: not part of the fingerprint.
  b.stages[0].wall_us *= 3;
  b.stages[1].peak_rss_kb += 4096;
  b.stages[2].heap_allocs = 12345;
  b.stages[2].pool_tasks = 99;
  b.hardware_threads = 2;
  EXPECT_EQ(prof::deterministic_fingerprint(a),
            prof::deterministic_fingerprint(b));

  // The deterministic core: stage names and arena counters.
  b.stages[1].arena_bytes += 1;
  EXPECT_NE(prof::deterministic_fingerprint(a),
            prof::deterministic_fingerprint(b));
}

TEST(DiffTest, IdenticalReportsPass) {
  const prof::ProfReport report = make_report();
  const prof::ProfDiff diff = prof::diff_reports(report, report);
  EXPECT_TRUE(diff.ok);
  EXPECT_GT(diff.compared, 0);
  EXPECT_FALSE(diff.lines.empty());
}

TEST(DiffTest, NamesFirstRegressingStage) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  // Stage 1 ("idle") doubles its arena bytes; stage 2 ("classify") also
  // regresses on wall time. The differ must name the FIRST one.
  current.stages[1].arena_bytes *= 2;
  current.stages[2].wall_us *= 2;
  const prof::ProfDiff diff = prof::diff_reports(current, baseline);
  EXPECT_FALSE(diff.ok);
  EXPECT_EQ(diff.stage, "idle");
  EXPECT_EQ(diff.metric, "arena_bytes");
  EXPECT_NEAR(diff.ratio, 1.0, 1e-9);
  EXPECT_NE(diff.detail.find("idle"), std::string::npos);
}

TEST(DiffTest, SmallRegressionsUnderThresholdPass) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  current.stages[1].arena_bytes += current.stages[1].arena_bytes / 20;  // +5%
  current.stages[1].wall_us += current.stages[1].wall_us / 10;         // +10%
  EXPECT_TRUE(prof::diff_reports(current, baseline).ok);
}

TEST(DiffTest, HardwareMismatchSkipsTimeAndRssGates) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  current.hardware_threads = baseline.hardware_threads + 8;
  current.stages[1].wall_us *= 10;       // would trip the time gate
  current.stages[1].peak_rss_kb *= 10;   // would trip the RSS gate
  const prof::ProfDiff diff = prof::diff_reports(current, baseline);
  EXPECT_TRUE(diff.ok);
  ASSERT_FALSE(diff.lines.empty());
  EXPECT_NE(diff.lines[0].find("SKIP"), std::string::npos);

  // Arena gates still fire across hardware: they are deterministic.
  current.stages[0].arena_bytes *= 2;
  const prof::ProfDiff diff2 = prof::diff_reports(current, baseline);
  EXPECT_FALSE(diff2.ok);
  EXPECT_EQ(diff2.stage, "lab_boot");
  EXPECT_EQ(diff2.metric, "arena_bytes");
}

TEST(DiffTest, StageListMismatchFails) {
  const prof::ProfReport baseline = make_report();
  prof::ProfReport current = make_report();
  current.stages.pop_back();
  const prof::ProfDiff diff = prof::diff_reports(current, baseline);
  EXPECT_FALSE(diff.ok);
  EXPECT_EQ(diff.metric, "stage_list");
}

TEST(ProfilerTest, AttributesArenaAllocsToTheOpenStage) {
  prof::Profiler profiler;
  profiler.begin_run(1);
  {
    prof::StageScope stage("alloc_stage", profiler);
    prof::note_arena_alloc(4096);
    prof::note_arena_alloc(4096);
  }
  {
    prof::StageScope stage("quiet_stage", profiler);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
  }
  const prof::ProfReport report = profiler.finish();

  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].name, "alloc_stage");
  EXPECT_EQ(report.stages[0].arena_allocs, 2u);
  EXPECT_EQ(report.stages[0].arena_bytes, 8192u);
  EXPECT_EQ(report.stages[1].name, "quiet_stage");
  EXPECT_EQ(report.stages[1].arena_allocs, 0u);
  for (const prof::StageProfile& s : report.stages) {
    EXPECT_GE(s.wall_us, 0);
    EXPECT_GT(s.rss_kb, 0) << s.name;
    EXPECT_GT(s.peak_rss_kb, 0) << s.name;
  }
  EXPECT_EQ(report.totals.name, "total");
  EXPECT_EQ(report.totals.arena_allocs, 2u);
  EXPECT_EQ(report.threads, 1);
  EXPECT_GT(report.hardware_threads, 0);
  EXPECT_EQ(report.profile_heap, prof::heap_hooks_active());
  EXPECT_FALSE(report.compiler.empty());

  // The profiler is reusable: a new run starts from a clean slate.
  profiler.begin_run(2);
  const prof::ProfReport empty = profiler.finish();
  EXPECT_TRUE(empty.stages.empty());
  EXPECT_EQ(empty.threads, 2);
}

TEST(FoldedTest, ReconstructsNestingAndSelfWeights) {
  auto& tracer = telemetry::Tracer::global();
  tracer.enable(1024);
  // Two spans on this thread: child [10,30) nested inside root [0,100).
  // Recorded directly (not via ScopedSpan) so the intervals are exact.
  tracer.record_complete("root", "test", 0, 100, SimTime{}, SimTime{},
                         /*alloc_count=*/0, /*alloc_bytes=*/0,
                         /*arena_bytes=*/1000);
  tracer.record_complete("child", "test", 10, 20, SimTime{}, SimTime{},
                         /*alloc_count=*/0, /*alloc_bytes=*/0,
                         /*arena_bytes=*/300);

  const std::string wall =
      prof::folded_stacks(tracer, prof::FoldedWeight::kWallMicros);
  // Self wall time: root owns 100 - 20 = 80, the child keeps its 20.
  EXPECT_NE(wall.find(";root 80\n"), std::string::npos) << wall;
  EXPECT_NE(wall.find(";root;child 20\n"), std::string::npos) << wall;
  // Every line is "frame(;frame)* <weight>".
  std::istringstream lines(wall);
  std::string line;
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    const std::string weight = line.substr(space + 1);
    EXPECT_FALSE(weight.empty()) << line;
    EXPECT_EQ(weight.find_first_not_of("0123456789"), std::string::npos)
        << line;
  }

  if (!prof::heap_hooks_active()) {
    // Alloc weighting falls back to the arena counters when the heap hooks
    // are off; children subtract from parents the same way.
    const std::string alloc =
        prof::folded_stacks(tracer, prof::FoldedWeight::kAllocBytes);
    EXPECT_NE(alloc.find(";root 700\n"), std::string::npos) << alloc;
    EXPECT_NE(alloc.find(";root;child 300\n"), std::string::npos) << alloc;
  }

  // Deterministic: folding the same snapshot twice is byte-identical.
  EXPECT_EQ(wall, prof::folded_stacks(tracer, prof::FoldedWeight::kWallMicros));
  tracer.disable();
}

TEST(FoldedTest, SanitizesSeparatorsInSpanNames) {
  auto& tracer = telemetry::Tracer::global();
  tracer.enable(64);
  tracer.record_complete("bad;name with space", "test", 0, 50, SimTime{},
                         SimTime{});
  const std::string wall =
      prof::folded_stacks(tracer, prof::FoldedWeight::kWallMicros);
  EXPECT_NE(wall.find("bad_name_with_space 50\n"), std::string::npos) << wall;
  tracer.disable();
}

TEST(ProfPipelineTest, PerfReportIsDeterministicAcrossThreadCounts) {
  PipelineConfig config;
  config.idle_duration = SimTime::from_minutes(5);
  config.interactions = 10;
  config.app_sample = 0;
  config.run_scan = false;
  config.run_crowd = false;

  const std::filesystem::path dir1 = "prof_pipeline_t1";
  const std::filesystem::path dir2 = "prof_pipeline_t2";
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);

  // The pipeline folds stage 3 without a capture arena. A tap-fed
  // CaptureStore in each run keeps the arena counters moving, so their
  // thread-count invariance is checked on non-zero values.
  const LocalFilter filter;
  CaptureStore store1, store2;
  const auto capture_into = [&filter](Pipeline& pipeline, CaptureStore& store) {
    pipeline.lab().network().add_packet_tap(
        [&filter, &store](SimTime at, const PacketView& packet, BytesView raw) {
          if (filter.matches(packet)) store.append(at, packet, raw);
        });
  };

  config.threads = 1;
  config.telemetry_out = dir1.string();
  Pipeline p1(config);
  capture_into(p1, store1);
  const PipelineResults r1 = p1.run();

  config.threads = 2;
  config.telemetry_out = dir2.string();
  Pipeline p2(config);
  capture_into(p2, store2);
  const PipelineResults r2 = p2.run();
  telemetry::disable();

  // The deterministic core (stage set + arena counters) must be
  // byte-identical across thread counts — the perf twin of the manifest's
  // determinism contract.
  EXPECT_EQ(prof::deterministic_fingerprint(r1.profile),
            prof::deterministic_fingerprint(r2.profile));
  EXPECT_EQ(r1.profile.threads, 1);
  EXPECT_EQ(r2.profile.threads, 2);

  // perf.json names exactly the stages the manifest hashes, in order.
  ASSERT_EQ(r1.profile.stages.size(), r1.manifest.stages.size());
  for (std::size_t i = 0; i < r1.profile.stages.size(); ++i)
    EXPECT_EQ(r1.profile.stages[i].name, r1.manifest.stages[i].name);

  // The capture stages actually moved the arena counters.
  EXPECT_EQ(store1.size(), r1.analyzed_packets);
  std::uint64_t total_arena = 0;
  for (const prof::StageProfile& s : r1.profile.stages)
    total_arena += s.arena_bytes;
  EXPECT_GT(total_arena, 0u);
  EXPECT_EQ(r1.profile.totals.arena_bytes, total_arena);

  // perf.json landed next to manifest.json and round-trips.
  const auto on_disk = prof::load_report((dir1 / "perf.json").string());
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_EQ(prof::to_json(*on_disk), prof::to_json(r1.profile));

  // trace.json parses as strict JSON and carries the alloc attribution keys.
  std::ifstream trace_file(dir1 / "trace.json");
  ASSERT_TRUE(trace_file.is_open());
  std::stringstream trace;
  trace << trace_file.rdbuf();
  const auto doc = json::parse(trace.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(trace.str().find("\"alloc_bytes\""), std::string::npos);

  // The folded exports exist and the wall-weighted one names the stages.
  for (const char* name : {"trace.folded", "alloc.folded"})
    EXPECT_TRUE(std::filesystem::exists(dir1 / name)) << name;
  std::ifstream folded_file(dir1 / "trace.folded");
  std::stringstream folded;
  folded << folded_file.rdbuf();
  EXPECT_NE(folded.str().find(";pipeline"), std::string::npos);
  EXPECT_NE(folded.str().find("idle"), std::string::npos);

  // Satellite telemetry: arena occupancy gauges and per-stage prof gauges
  // were published during the run.
  auto& registry = telemetry::Registry::global();
  EXPECT_GT(registry.gauge("roomnet_capture_arena_bytes_used").value(), 0);
  EXPECT_GT(registry.gauge("roomnet_capture_arena_chunks").value(), 0);
  EXPECT_GE(registry.gauge("roomnet_capture_arena_bytes_reserved").value(),
            registry.gauge("roomnet_capture_arena_bytes_used").value());
  EXPECT_GT(registry
                .gauge("roomnet_prof_stage_wall_us", {{"stage", "idle"}})
                .value(),
            0);
  EXPECT_GT(registry
                .gauge("roomnet_prof_stage_arena_bytes", {{"stage", "idle"}})
                .value(),
            0);

  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir2);
}

}  // namespace
}  // namespace roomnet
