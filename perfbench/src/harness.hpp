// Shared machinery of the roomnet benchmark: sample statistics, a per-sample
// resident-set sampler, and the in-memory span tracer the traced runs use.
//
// Everything here lives in the benchmark, outside the library: the layers
// are timed from the outside, around calls into their public functions, and
// the tracer never reaches into src/.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile by linear interpolation between order statistics (q in [0,1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set over one sample. Construction returns freed heap to
/// the kernel and starts a thread polling /proc/self/statm every 2 ms;
/// peak_mb() stops it. The peak therefore belongs to the
/// sample it brackets, not to whatever ran earlier in the process (which
/// the cumulative getrusage high-water mark would report).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (idempotent) and returns the peak in MiB.
  double peak_mb();

 private:
  void stop();

  int fd_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> peak_pages_{0};
  std::thread thread_;  // last member: it reads the atomics above
};

/// Runs beside the measured work on a helper thread, until destroyed.
/// At once and then every 25 ms it times a fixed integer kernel, the
/// benchmark's own code that never depends on the program under test, and
/// appends its duration in microseconds to `readings`. On a shared host the
/// speed a thread gets drifts by tens of percent over minutes with the
/// other tenants' load. A run scales its times by the kernel's median
/// duration against kReferenceProbeUs, so that drift largely cancels while
/// the program's own cost does not.
///
/// With `rotate`, each period also walks the constructing thread on to the
/// next CPU the process may use. Each CPU drifts between fast and slow
/// stretches independently; a single-threaded phase left on one CPU follows
/// that CPU's stretch, while one walked round them all runs at their
/// average speed. The step pins the thread to the next CPU, which migrates
/// it there, and at once restores the full mask, so threads it starts
/// inherit no pin.
class SpeedProbe {
 public:
  SpeedProbe(std::vector<double>& readings, bool rotate);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

 private:
  void loop(bool rotate);

  std::vector<double>& readings_;
  std::vector<double> own_;  // the helper's readings until it is joined
  pid_t tid_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::atomic<std::uint64_t> sink_{0};  // keeps the kernel's result alive
  std::thread thread_;  // last member: it reads the ones above
};

/// The probe kernel's duration at the reference speed the benchmark's
/// scaled times are given at: about its duration on a quiet host.
inline constexpr double kReferenceProbeUs = 20.0;

/// In-memory span recorder for the traced run. A span is one interval the
/// benchmark timed around a call into a layer: name, start, end, parent span
/// and run id (the sample it belongs to). A part is time attributed to a
/// layer inside the current span without an interval of its own: the sum of
/// per-call timings of a hot call site (one decode per frame), or a stage
/// duration the program itself reports (PipelineResults::profile).
///
/// Self time of a layer in one run = the durations of its spans minus the
/// spans and parts directly beneath them, plus its own parts. Spans are
/// opened and closed on the benchmark's driving thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  /// Opens a span under the innermost open span; returns its id (-1 when
  /// tracing is off).
  int begin(const std::string& name);
  void end(int id);
  /// Attributes `total_ns` over `calls` calls to layer `name`, under the
  /// innermost open span.
  void part(const std::string& name, std::int64_t total_ns,
            std::uint64_t calls);

  /// Layer -> self seconds, for one run id.
  [[nodiscard]] std::map<std::string, double> self_seconds(int run) const;
  /// Writes one JSON object per span and part. Returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;
    int run = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Part {
    std::string name;
    int parent = -1;
    int run = 0;
    std::int64_t total_ns = 0;
    std::uint64_t calls = 0;
  };

  bool enabled_;
  int run_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Part> parts_;
};

/// Median over `runs` of each layer's self seconds (a layer absent from a
/// run counts as 0 there).
[[nodiscard]] std::map<std::string, double> median_self_seconds(
    const Tracer& tracer, const std::vector<int>& runs);

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(&tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_->end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Sum of per-call durations at one hot call site; commit() hands it to the
/// tracer as a part.
struct CallTimer {
  std::int64_t total_ns = 0;
  std::uint64_t calls = 0;

  template <typename F>
  decltype(auto) operator()(F&& call) {
    const auto t0 = Clock::now();
    struct Stop {
      CallTimer* timer;
      Clock::time_point t0;
      ~Stop() {
        timer->total_ns += ns_between(t0, Clock::now());
        ++timer->calls;
      }
    } stop{this, t0};
    return call();
  }
  void commit(Tracer& tracer, const std::string& name) const {
    tracer.part(name, total_ns, calls);
  }
};

/// What one workload invocation measured. End-to-end series come from the
/// untraced samples; `layers` from the traced ones.
struct Outcome {
  /// Set-up repetitions (input generation), seconds each.
  std::vector<double> setup_s;
  /// One-off warm-up pass that lets lazy set-up finish before timing;
  /// charged to setup_s, never to a sample.
  double warmup_s = 0;
  /// Per untraced sample.
  std::vector<double> wall_s;
  std::vector<double> pkts_per_s;
  std::vector<double> peak_rss_mb;
  /// SpeedProbe readings (us) taken beside the set-up and warm-up, and
  /// beside the samples.
  std::vector<double> setup_probe_us;
  std::vector<double> probe_us;
  /// Per traced sample (trace runs only): the traced twin of wall_s.
  std::vector<double> traced_wall_s;
  int attempted = 0;
  int failed = 0;
  /// Per-layer metrics (trace runs): name -> value.
  std::map<std::string, double> layers;
  /// The workload's headline figure under its own name (study_wall_s,
  /// households_per_s, batch_pkts_per_s, stream_pkts_per_s): per sample.
  struct Headline {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };
  std::vector<Headline> headlines;
};

}  // namespace perfbench
