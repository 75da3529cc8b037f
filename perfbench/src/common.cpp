#include <cstdio>

#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

bool CounterLedger::record(const std::string& sample, const Counters& counters) {
  std::printf("counters workload=%s sample=%s", workload_.c_str(), sample.c_str());
  for (const auto& [name, value] : counters)
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
  std::printf("\n");
  if (!first_) {
    first_ = counters;
    return true;
  }
  return counters == *first_;
}

std::uint64_t registry_counter(const std::string& name) {
  return roomnet::telemetry::Registry::global().counter(name).value();
}

std::int64_t stages_ns(const roomnet::prof::ProfReport& profile,
                       const std::vector<const char*>& names) {
  std::int64_t total = 0;
  for (const auto& stage : profile.stages)
    for (const char* name : names)
      if (stage.name == name) total += stage.wall_us * 1000;
  return total;
}

void print_sample(const char* workload, const std::string& sample, bool traced,
                  double wall_s, double pkts_per_s, std::optional<double> peak_rss_mb) {
  std::printf("sample workload=%s sample=%s traced=%d wall_s=%.6f pkts_per_s=%.1f",
              workload, sample.c_str(), traced ? 1 : 0, wall_s, pkts_per_s);
  if (peak_rss_mb) std::printf(" peak_rss_mb=%.1f", *peak_rss_mb);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace perfbench
