// The benchmark's workloads. Each one generates its inputs from the seed,
// lets lazy set-up finish, then runs untraced samples for the requested
// number of seconds; a traced invocation alternates untraced and traced
// samples and adds the one-off layer measurements the workload owns.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "prof/report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Worker threads for every parallel layer: the host's hardware threads.
  std::size_t threads = 1;
};

Outcome run_study(const Options& options, Tracer& tracer);
Outcome run_fleet(const Options& options, Tracer& tracer);
enum class ReplayPath { kBatch, kStream };
Outcome run_replay(const Options& options, Tracer& tracer, ReplayPath path);

/// Exact work counters of one sample, in print order.
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// Prints every sample's work counters and holds them to the first
/// sample's: these counts are deterministic in the seed, so a counter that
/// moves between samples of one invocation is a failure, not noise.
class CounterLedger {
 public:
  explicit CounterLedger(std::string workload) : workload_(std::move(workload)) {}
  /// Returns false when `counters` differ from the first recorded set.
  bool record(const std::string& sample, const Counters& counters);

 private:
  std::string workload_;
  std::optional<Counters> first_;
};

/// Value of a process-wide telemetry counter (cumulative; callers diff).
[[nodiscard]] std::uint64_t registry_counter(const std::string& name);

/// Wall time the program's profiler reports for the named stages, summed.
[[nodiscard]] std::int64_t stages_ns(const roomnet::prof::ProfReport& profile,
                                     const std::vector<const char*>& names);

/// Runs one sample: counts it as attempted, and as failed when it returns
/// false or throws.
template <typename Body>
void attempt(Outcome& out, const char* workload, int index, Body&& body) {
  ++out.attempted;
  bool ok = false;
  try {
    ok = body();
  } catch (const std::exception& e) {
    std::printf("error workload=%s sample=%d what=%s\n", workload, index, e.what());
  }
  if (!ok) {
    ++out.failed;
    std::printf("failed workload=%s sample=%d\n", workload, index);
  }
}

/// Calls sample(i, traced) until `seconds` have passed, and at least
/// `min_samples` times. In a traced invocation the samples alternate
/// untraced/traced (starting untraced) and at least one of each runs, so the
/// tracing overhead is a paired difference taken under the same machine
/// conditions.
template <typename Sample>
void sample_for(const Options& options, int min_samples, Sample&& sample) {
  const auto start = Clock::now();
  if (options.trace) min_samples = 2;
  for (int i = 0; i < min_samples || seconds_since(start) < options.seconds; ++i)
    sample(i, options.trace && i % 2 == 1);
}

/// One line per sample: what was timed, and the sample's own peak resident
/// set where it has one.
void print_sample(const char* workload, const std::string& sample, bool traced,
                  double wall_s, double pkts_per_s,
                  std::optional<double> peak_rss_mb = std::nullopt);

}  // namespace perfbench
