// roomnet-audit: run-provenance determinism auditor.
//
//   roomnet-audit run <out_dir> [options]   run the pipeline, write
//                                           manifest.json / resources.json /
//                                           logs.jsonl into out_dir
//   roomnet-audit diff <manifest_a> <manifest_b>
//                                           compare two manifest.json files
//                                           and name the first divergent
//                                           stage
//
// `diff` exits 0 when the manifests agree, 1 on divergence, 2 on usage or
// I/O errors — so CI can assert "threads=1 and threads=4 produced the same
// run" and fail with the stage that broke the determinism contract.
//
// run options:
//   --seed N           sim seed (default 42)
//   --threads N        worker parallelism (default 1)
//   --idle-minutes N   idle-capture window (default 10)
//   --interactions N   interaction count (default 20)
//   --app-sample N     apps executed (default 0: skip the campaign)
//   --loss P           frame-loss probability (default 0; enables the fault
//                      layer, so ROOMNET_FAULT_SEED makes runs diverge and
//                      `diff` names the first stage the fault stream touched)
//   --no-scan          skip the active scan stage
//   --no-crowd         skip the crowd entropy stage
//   --memcap-bytes N   stage-3 flow-cache memcap (arms eviction)
//   --max-flows N      stage-3 flow-cache flow ceiling (arms eviction)
//   --idle-timeout-s N stage-3 flow idle timeout, seconds (arms eviction)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/pipeline.hpp"
#include "obs/manifest.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: roomnet-audit run <out_dir> [--seed N] [--threads N]\n"
               "                        [--idle-minutes N] [--interactions N]\n"
               "                        [--app-sample N] [--loss P] "
               "[--no-scan] [--no-crowd]\n"
               "                        [--memcap-bytes N] [--max-flows N] "
               "[--idle-timeout-s N]\n"
               "       roomnet-audit diff <manifest_a> <manifest_b>\n");
  return 2;
}

std::int64_t parse_int(const char* text, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 0);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "roomnet-audit: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return v;
}

int run_command(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string out_dir = argv[0];
  roomnet::PipelineConfig config;
  config.telemetry_out = out_dir;
  config.seed = 42;
  config.threads = 1;
  config.idle_duration = roomnet::SimTime::from_minutes(10);
  config.interactions = 20;
  config.app_sample = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "roomnet-audit: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--seed") == 0)
      config.seed = static_cast<std::uint64_t>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--threads") == 0)
      config.threads = static_cast<int>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--idle-minutes") == 0)
      config.idle_duration =
          roomnet::SimTime::from_minutes(parse_int(value(), arg));
    else if (std::strcmp(arg, "--interactions") == 0)
      config.interactions = static_cast<int>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--app-sample") == 0)
      config.app_sample = static_cast<int>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--loss") == 0)
      config.faults.loss = std::strtod(value(), nullptr);
    else if (std::strcmp(arg, "--no-scan") == 0)
      config.run_scan = false;
    else if (std::strcmp(arg, "--no-crowd") == 0)
      config.run_crowd = false;
    else if (std::strcmp(arg, "--memcap-bytes") == 0)
      config.stream.memcap_bytes =
          static_cast<std::size_t>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--max-flows") == 0)
      config.stream.max_flows =
          static_cast<std::size_t>(parse_int(value(), arg));
    else if (std::strcmp(arg, "--idle-timeout-s") == 0)
      config.stream.idle_timeout =
          roomnet::SimTime::from_seconds(
              static_cast<double>(parse_int(value(), arg)));
    else
      return usage();
  }

  roomnet::Pipeline pipeline(config);
  const roomnet::PipelineResults results = pipeline.run();
  const roomnet::obs::RunManifest& m = results.manifest;
  std::printf("run: seed=%#llx fault_seed=%#llx threads=%d\n",
              static_cast<unsigned long long>(m.sim_seed),
              static_cast<unsigned long long>(m.fault_seed), m.threads);
  const roomnet::FlowCacheStats& fc = results.flow_cache;
  std::printf(
      "flow cache: created=%llu peak_flows=%zu peak_bytes=%zu "
      "prunes=%llu (idle=%llu est=%llu memcap=%llu excess=%llu "
      "flush=%llu)\n",
      static_cast<unsigned long long>(fc.flows_created), fc.peak_flows,
      fc.peak_bytes, static_cast<unsigned long long>(fc.prunes_total()),
      static_cast<unsigned long long>(fc.prunes[0]),
      static_cast<unsigned long long>(fc.prunes[1]),
      static_cast<unsigned long long>(fc.prunes[2]),
      static_cast<unsigned long long>(fc.prunes[3]),
      static_cast<unsigned long long>(fc.prunes[4]));
  std::printf("config digest: %s\n", m.config_digest.c_str());
  for (const roomnet::obs::StageRecord& stage : m.stages)
    std::printf("  %-14s %s  sim_us=%lld\n", stage.name.c_str(),
                stage.sha256.c_str(), static_cast<long long>(stage.sim_us));
  std::printf("result digest: %s\n", m.result_digest.c_str());
  std::printf("wrote %s/manifest.json\n", out_dir.c_str());
  return 0;
}

int diff_command(int argc, char** argv) {
  if (argc != 2) return usage();
  const auto a = roomnet::obs::load_manifest(argv[0]);
  if (!a) {
    std::fprintf(stderr, "roomnet-audit: cannot load %s\n", argv[0]);
    return 2;
  }
  const auto b = roomnet::obs::load_manifest(argv[1]);
  if (!b) {
    std::fprintf(stderr, "roomnet-audit: cannot load %s\n", argv[1]);
    return 2;
  }
  const roomnet::obs::ManifestDiff diff = roomnet::obs::diff_manifests(*a, *b);
  if (diff.equal) {
    std::printf("identical: %s\n", diff.detail.c_str());
    return 0;
  }
  std::printf("DIVERGED [%s]%s%s: %s\n", diff.component.c_str(),
              diff.stage.empty() ? "" : " at stage ",
              diff.stage.c_str(), diff.detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "run") == 0)
    return run_command(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "diff") == 0)
    return diff_command(argc - 2, argv + 2);
  return usage();
}
