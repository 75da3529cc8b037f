#include "harness.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// Resident pages from an open /proc/self/statm descriptor.
std::int64_t resident_pages(int fd) {
  char buf[128];
  const ssize_t n = pread(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return 0;
  buf[n] = '\0';
  long long size = 0;
  long long resident = 0;
  return std::sscanf(buf, "%lld %lld", &size, &resident) == 2 ? resident : 0;
}

double pages_to_mb(std::int64_t pages) {
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace

RssSampler::RssSampler() : fd_(open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {
  malloc_trim(0);
  peak_pages_.store(resident_pages(fd_), std::memory_order_relaxed);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::int64_t now = resident_pages(fd_);
      if (now > peak_pages_.load(std::memory_order_relaxed))
        peak_pages_.store(now, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() {
  stop();
  if (fd_ >= 0) close(fd_);
}

void RssSampler::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

double RssSampler::peak_mb() {
  stop();
  const std::int64_t last = resident_pages(fd_);
  return pages_to_mb(std::max(last, peak_pages_.load(std::memory_order_relaxed)));
}

namespace {

/// The probe's kernel: four independent xorshift64 streams. The core's
/// integer ports bound it, not a single dependency chain, so like the
/// program's own code it slows when another tenant shares the core, as
/// well as when the clock drops. ~20 us on a quiet 4-thread Xeon VM.
std::uint64_t probe_kernel(std::uint64_t seed) {
  std::uint64_t a = seed, b = seed ^ 1, c = seed ^ 2, d = seed ^ 3;
  for (int i = 0; i < 5000; ++i) {
    a ^= a << 13, a ^= a >> 7, a ^= a << 17;
    b ^= b << 13, b ^= b >> 7, b ^= b << 17;
    c ^= c << 13, c ^= c >> 7, c ^= c << 17;
    d ^= d << 13, d ^= d >> 7, d ^= d << 17;
  }
  return a ^ b ^ c ^ d;
}

}  // namespace

SpeedProbe::SpeedProbe(std::vector<double>& readings, bool rotate)
    : readings_(readings), tid_(gettid()) {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  thread_ = std::thread([this, rotate] { loop(rotate && cpus_.size() > 1); });
}

SpeedProbe::~SpeedProbe() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  readings_.insert(readings_.end(), own_.begin(), own_.end());
}

void SpeedProbe::loop(bool rotate) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::unique_lock lock(mutex_);
  // The first reading is taken at once, so that even a probe shorter than
  // one period has one.
  for (std::size_t step = 0;; ++step) {
    if (step > 0) {
      if (wake_.wait_for(lock, std::chrono::milliseconds(25), [this] { return stop_; }))
        break;
    }
    if (rotate && step > 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[step % cpus_.size()], &one);
      // Failure (the thread has ended) leaves nothing to undo.
      if (sched_setaffinity(tid_, sizeof one, &one) == 0)
        sched_setaffinity(tid_, sizeof allowed_, &allowed_);
    }
    x = probe_kernel(x);  // wakes the CPU up; untimed
    const auto t0 = Clock::now();
    x = probe_kernel(x);
    own_.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e3);
  }
  sink_.store(x, std::memory_order_relaxed);
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.start_ns = ns_between(origin_, Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = ns_between(origin_, Clock::now());
  // Spans close in LIFO order (ScopedSpan); tolerate a stray id anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::part(const std::string& name, std::int64_t total_ns,
                  std::uint64_t calls) {
  if (!enabled_) return;
  parts_.push_back(
      {name, open_.empty() ? -1 : open_.back(), run_, total_ns, calls});
}

std::map<std::string, double> Tracer::self_seconds(int run) const {
  std::map<std::string, std::int64_t> self_ns;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.run != run || span.parent < 0) continue;
    child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
  }
  for (const Part& part : parts_) {
    if (part.run != run) continue;
    if (part.parent >= 0) child_ns[static_cast<std::size_t>(part.parent)] += part.total_ns;
    self_ns[part.name] += part.total_ns;
  }
  for (const Span& span : spans_) {
    if (span.run != run) continue;
    self_ns[span.name] += span.end_ns - span.start_ns -
                          child_ns[static_cast<std::size_t>(span.id)];
  }
  std::map<std::string, double> out;
  for (const auto& [name, ns] : self_ns) out[name] = static_cast<double>(ns) / 1e9;
  return out;
}

std::map<std::string, double> median_self_seconds(const Tracer& tracer,
                                                 const std::vector<int>& runs) {
  std::map<std::string, std::vector<double>> samples;
  for (const int run : runs)
    for (const auto& [layer, seconds] : tracer.self_seconds(run))
      samples[layer].push_back(seconds);
  std::map<std::string, double> out;
  for (auto& [layer, values] : samples) {
    values.resize(runs.size(), 0.0);
    out[layer] = median(std::move(values));
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"kind\":\"span\",\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"run\":" << span.run
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  for (const Part& part : parts_) {
    out << "{\"kind\":\"part\",\"name\":\"" << part.name << "\",\"parent\":"
        << part.parent << ",\"run\":" << part.run << ",\"total_ns\":" << part.total_ns
        << ",\"calls\":" << part.calls << "}\n";
  }
  return out.good();
}

}  // namespace perfbench
