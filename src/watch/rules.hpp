// roomnet::watch alert rules: a Prometheus-alerting-style rule language
// (threshold / rate-over-window / absence / new-label) evaluated
// incrementally on the sim thread as events, flow completions, and metric
// deltas arrive. Firing and resolution are pure functions of the event
// stream and the sim clock, so under a fixed seed every rule fires at the
// same sim timestamp regardless of thread count.
//
// Grammar (one rule per line, '#' comments):
//   alert <name>: rate(event:<type>, <window>s) > <n> severity <sev>
//   alert <name>: threshold(metric:<counter>) > <n> severity <sev>
//   alert <name>: threshold(flow:upload_ratio_pct) > <n> severity <sev>
//   alert <name>: new(event:<type>, <field>) severity <sev>
//   alert <name>: absence(device_activity, <window>s) severity <sev>
// <sev> is info|notice|warning|critical. See DESIGN.md §14.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "netcore/flat_map.hpp"
#include "watch/events.hpp"

namespace roomnet::watch {

enum class RuleKind : std::uint8_t {
  kThreshold = 0,  // instantaneous value over a limit
  kRate = 1,       // matching events within a sliding window over a limit
  kAbsence = 2,    // device silent for longer than the window
  kNewLabel = 3,   // a never-before-seen value of one event field
};

[[nodiscard]] const char* to_string(RuleKind kind);

struct AlertRule {
  std::string name;
  RuleKind kind = RuleKind::kThreshold;
  /// Signal selector: "event:<type>" (NetEvent stream, per device),
  /// "metric:<name>" (global registry counter, delta since run start),
  /// "flow:upload_ratio_pct" (completed flows), or "device_activity".
  std::string source;
  /// kNewLabel only: the event field whose values are tracked.
  std::string field;
  std::int64_t threshold = 0;
  SimTime window{};
  Severity severity = Severity::kWarning;

  friend bool operator==(const AlertRule&, const AlertRule&) = default;
};

/// The built-in ruleset: port-scan fan-out, discovery storms, exfil-like
/// upload ratios, DNS to a never-before-seen resolver, device silence, and
/// fault-plan-driven offline frames.
[[nodiscard]] std::string default_rules();

struct RuleParse {
  std::vector<AlertRule> rules;
  std::string error;  // empty on success; names the first offending line
  [[nodiscard]] bool ok() const { return error.empty(); }
};

[[nodiscard]] RuleParse parse_rules(std::string_view text);

/// Per-rule lifecycle accounting for the run report.
struct AlertRuleSummary {
  std::string name;
  Severity severity = Severity::kWarning;
  std::uint64_t fired = 0;
  std::uint64_t resolved = 0;
  /// Instances still firing at finish().
  std::uint64_t firing = 0;

  friend bool operator==(const AlertRuleSummary&,
                         const AlertRuleSummary&) = default;
};

/// Streaming evaluator. All entry points run on the sim thread; `emit` is
/// called synchronously with every firing/resolved transition, carrying the
/// rule, the attributed device (all-zero MAC for network-wide rules), the
/// observed value, and an optional detail string. Alert events produced by
/// `emit` must NOT be fed back into on_event.
class RuleEngine {
 public:
  struct Transition {
    const AlertRule* rule = nullptr;
    MacAddress device;
    bool firing = false;  // false: resolved
    std::int64_t value = 0;
    std::string detail;
  };
  using Emit = std::function<void(SimTime, const Transition&)>;
  /// Reads the current value of a metric source (delta since run start);
  /// installed by the Watcher, which resolves the counters once.
  using MetricReader =
      std::function<std::optional<std::int64_t>(const std::string&)>;

  RuleEngine(std::vector<AlertRule> rules, SimTime tick_period, Emit emit);

  void set_metric_reader(MetricReader reader) { metrics_ = std::move(reader); }

  /// Adds a device to the absence-rule population (silent since t=0 until
  /// its first on_activity) without marking it active.
  void register_device(MacAddress device) {
    last_activity_.try_emplace(device, SimTime{});
  }
  /// Pre-seeds every new-label rule tracking `field` with a known value
  /// (e.g. the router as the baseline DNS resolver).
  void seed_label(const std::string& field, const std::string& value) {
    for (std::size_t i = 0; i < rules_.size(); ++i)
      if (rules_[i].kind == RuleKind::kNewLabel && rules_[i].field == field)
        states_[i].seen.insert(value);
  }

  /// Feeds one non-alert timeline event into rate and new-label rules.
  void on_event(const NetEvent& event);
  /// Feeds one completed flow's upload ratio (client bytes as a percent of
  /// total) into flow-threshold rules.
  void on_flow_signal(SimTime at, MacAddress device, const std::string& flow,
                      std::int64_t upload_ratio_pct);
  /// Marks a device as alive at `at` (absence rules).
  void on_activity(SimTime at, MacAddress device);
  /// Stable pointer to a device's last-activity stamp (std::map nodes are
  /// never invalidated). The Watcher caches this per device so the common
  /// per-packet case — stamp activity, no absence instance firing — is one
  /// store instead of a map probe; when absence_firing() is true it must
  /// call on_activity() instead so firings resolve.
  [[nodiscard]] SimTime* activity_slot(MacAddress device) {
    return &last_activity_[device];
  }
  [[nodiscard]] bool absence_firing() const { return absence_firing_ > 0; }
  /// Advances the evaluation clock: runs every whole tick in (last, at].
  /// Call from every signal entry point with the signal's timestamp.
  /// Inline fast path: between ticks this is a single comparison.
  void advance(SimTime at) {
    if (tick_period_.us() > 0 && next_tick_ <= at) catch_up(at);
  }
  /// Final sweep at `at`; returns per-rule lifecycle counts sorted by name.
  [[nodiscard]] std::vector<AlertRuleSummary> finish(SimTime at);

  [[nodiscard]] const std::vector<AlertRule>& rules() const { return rules_; }

 private:
  struct RuleState {
    /// Sliding event-time window per device (kRate).
    std::map<MacAddress, std::deque<SimTime>> windows;
    /// Devices (or the zero MAC) currently firing.
    std::set<MacAddress> firing;
    /// Seen label values (kNewLabel).
    std::set<std::string> seen;
    /// Last offending flow per device (kThreshold over flows): pulse rules
    /// resolve one tick after the offense stops.
    std::map<MacAddress, SimTime> last_offense;
    std::uint64_t fired = 0;
    std::uint64_t resolved = 0;
  };

  /// Out-of-line slow path of advance(): runs the due ticks.
  void catch_up(SimTime at);
  void tick(SimTime now);
  void fire(SimTime at, std::size_t index, MacAddress device,
            std::int64_t value, std::string detail);
  void resolve(SimTime at, std::size_t index, MacAddress device,
               std::int64_t value);

  std::vector<AlertRule> rules_;
  std::vector<RuleState> states_;
  /// Pre-resolved "event:<type>" sources, one slot per rule, so on_event
  /// compares an enum per rule instead of rebuilding a string per event.
  std::vector<std::optional<NetEventType>> event_sources_;
  /// Event types at least one rule listens to: on_event runs for every
  /// emitted timeline event and skips the rule scan for the rest.
  std::array<bool, kNetEventTypeCount> listened_types_{};
  SimTime tick_period_;
  SimTime next_tick_;
  Emit emit_;
  MetricReader metrics_;
  std::map<MacAddress, SimTime> last_activity_;
  /// Absence instances currently firing across all rules: on_activity runs
  /// once per tap packet and only needs the resolve scan when nonzero.
  std::size_t absence_firing_ = 0;
  /// Per-packet index into last_activity_ (std::map nodes are stable, so
  /// the cached slot pointers stay valid; the map itself is kept for the
  /// deterministic, sorted absence sweep in tick()). Keys biased +1 so the
  /// all-zero MAC stays representable.
  FlatMap<SimTime*> activity_index_;
};

}  // namespace roomnet::watch
