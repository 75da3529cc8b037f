// roomnet-fleet: the multi-household fleet driver CLI.
//
//   roomnet-fleet run <out_dir> [options]   sample and run a household fleet,
//                                           writing fleet_manifest.json,
//                                           fleet_aggregates.json, and
//                                           perf.json into out_dir
//   roomnet-fleet summary <out_dir>         print the headline aggregates of
//                                           a previous run from its artifacts
//
// run options:
//   --households N    fleet size (default 1000)
//   --seed N          fleet seed (default 42); household k is reproducible
//                     from (seed, k) alone
//   --threads N       worker parallelism (default: ROOMNET_THREADS env var,
//                     else hardware concurrency)
//   --shard-size N    households per TaskPool chunk (default 64)
//   --idle-s N        per-household idle capture window, sim seconds
//                     (default 150)
//   --max-devices N   device-count ceiling per household (default 8)
//
// Determinism: fleet_manifest.json and fleet_aggregates.json are
// byte-identical for any --threads and any --shard-size (CI compares them
// with cmp across thread counts). perf.json is the volatile resource twin.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "exec/task_pool.hpp"
#include "fleet/fleet.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"

namespace {

using roomnet::SimTime;
using roomnet::fleet::FleetConfig;
using roomnet::fleet::FleetResults;

int usage() {
  std::fprintf(
      stderr,
      "usage: roomnet-fleet run <out_dir> [--households N] [--seed N]\n"
      "                        [--threads N] [--shard-size N]\n"
      "                        [--idle-s N] [--max-devices N]\n"
      "       roomnet-fleet summary <out_dir>\n");
  return 2;
}

std::int64_t parse_int(const char* text, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 0);
  if (end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "roomnet-fleet: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return v;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

int run_command(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string out_dir = argv[0];
  FleetConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "roomnet-fleet: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--households") == 0) {
      config.households = static_cast<std::uint64_t>(
          parse_int(value(), "--households"));
    } else if (std::strcmp(arg, "--seed") == 0) {
      config.seed = static_cast<std::uint64_t>(parse_int(value(), "--seed"));
    } else if (std::strcmp(arg, "--threads") == 0) {
      config.threads = static_cast<std::size_t>(
          parse_int(value(), "--threads"));
    } else if (std::strcmp(arg, "--shard-size") == 0) {
      config.shard_size = static_cast<std::size_t>(
          parse_int(value(), "--shard-size"));
    } else if (std::strcmp(arg, "--idle-s") == 0) {
      config.household.idle =
          SimTime::from_seconds(static_cast<double>(
              parse_int(value(), "--idle-s")));
    } else if (std::strcmp(arg, "--max-devices") == 0) {
      config.household.max_devices = static_cast<std::size_t>(
          parse_int(value(), "--max-devices"));
    } else {
      std::fprintf(stderr, "roomnet-fleet: unknown option: %s\n", arg);
      return usage();
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "roomnet-fleet: cannot create %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  roomnet::exec::TaskPool pool(config.threads);
  roomnet::prof::Profiler::global().begin_run(
      static_cast<int>(pool.threads()));
  const FleetResults results = roomnet::fleet::run_fleet(config, pool);
  const roomnet::prof::ProfReport profile =
      roomnet::prof::Profiler::global().finish();

  if (!write_text_file(out_dir + "/fleet_manifest.json",
                       to_json(results.manifest)) ||
      !write_text_file(out_dir + "/fleet_aggregates.json",
                       to_json(results.aggregates)) ||
      !write_text_file(out_dir + "/perf.json",
                       roomnet::prof::to_json(profile))) {
    std::fprintf(stderr, "roomnet-fleet: cannot write into %s\n",
                 out_dir.c_str());
    return 1;
  }

  const auto& agg = results.aggregates;
  const auto& stats = results.stats;
  std::printf("fleet: %llu households, %llu devices, %llu local packets, "
              "%llu flows\n",
              static_cast<unsigned long long>(agg.households),
              static_cast<unsigned long long>(agg.devices),
              static_cast<unsigned long long>(agg.packets),
              static_cast<unsigned long long>(agg.flows));
  std::printf("rate: %.1f households/s on %zu threads (%.2fs wall, "
              "%lld kB peak RSS)\n",
              stats.households_per_sec, stats.threads, stats.wall_s,
              static_cast<long long>(stats.peak_rss_kb));
  std::printf("contexts: %llu created, %llu reuses\n",
              static_cast<unsigned long long>(stats.contexts_created),
              static_cast<unsigned long long>(stats.context_reuses));
  std::printf("result_digest: %s\n", results.manifest.result_digest.c_str());
  std::printf("wrote %s/fleet_manifest.json, fleet_aggregates.json, "
              "perf.json\n", out_dir.c_str());
  return 0;
}

int summary_command(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string out_dir = argv[0];
  const auto manifest = read_text_file(out_dir + "/fleet_manifest.json");
  const auto aggregates = read_text_file(out_dir + "/fleet_aggregates.json");
  if (!manifest || !aggregates) {
    std::fprintf(stderr,
                 "roomnet-fleet: no fleet artifacts under %s "
                 "(run `roomnet-fleet run %s` first)\n",
                 out_dir.c_str(), out_dir.c_str());
    return 1;
  }
  std::printf("== %s/fleet_manifest.json ==\n%s", out_dir.c_str(),
              manifest->c_str());
  std::printf("== %s/fleet_aggregates.json ==\n%s", out_dir.c_str(),
              aggregates->c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string verb = argv[1];
  if (verb == "run") return run_command(argc - 2, argv + 2);
  if (verb == "summary") return summary_command(argc - 2, argv + 2);
  return usage();
}
