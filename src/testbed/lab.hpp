// Lab: the assembled MonIoTr testbed. Builds the router, all 93 catalog
// devices with their behavior profiles, companion smartphones, and the
// platform clusters; provides the idle-capture and interaction scenarios of
// §3.1 plus the AP capture tap.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "capture/capture.hpp"
#include "netcore/rng.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "testbed/device.hpp"

namespace roomnet {

struct LabConfig {
  std::uint64_t seed = 42;
  Ipv4Address router_ip = Ipv4Address(192, 168, 10, 1);
  /// Stagger window for device boot (devices DHCP at random offsets here).
  double boot_window_s = 120;
  /// When false, the capture sink is not attached: long-running scenarios
  /// can stream decoded packets via network().add_packet_tap() without
  /// retaining every frame in memory.
  bool record_frames = true;
  /// §7 mitigation ablation: apply privacy-by-design policies to every
  /// device — randomized DHCP hostnames (the GE/TiVo approach), no MAC or
  /// UUID material in mDNS instance names, no MAC serial numbers in UPnP
  /// descriptions. The ablation bench compares exposure with/without.
  bool privacy_hardening = false;
};

/// The home-building steps every simulated home shares: the Lab and each
/// fleet household (src/fleet) build their own devices, since MAC policy,
/// privacy hardening and RNG draw order are theirs, then finish with these.
///
/// wire_home gives statically configured devices addresses above the DHCP
/// pool (.200 up, in device order) and wires Figure 4's hub-and-spoke
/// platform clusters. A cluster's coordinator is the first TLS-capable
/// device of the platform OWNER's vendor (HomeKit coordinates through an
/// Apple device, not a Hue hub), falling back to the first TLS-capable
/// member, then the first member; every other member dials it.
void wire_home(const std::vector<std::unique_ptr<TestbedDevice>>& devices,
               Ipv4Address router_ip);
/// Staggered boot: schedules each device's start() (DHCP) at a uniform
/// offset in [0, window_s) seconds, one `rng` draw per device in order.
void boot_home(EventLoop& loop,
               const std::vector<std::unique_ptr<TestbedDevice>>& devices,
               Rng& rng, double window_s);

class Lab {
 public:
  explicit Lab(LabConfig config = {});

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] Switch& network() { return net_; }
  [[nodiscard]] Router& router() { return *router_; }
  [[nodiscard]] CaptureSink& capture() { return capture_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  [[nodiscard]] std::vector<std::unique_ptr<TestbedDevice>>& devices() {
    return devices_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<TestbedDevice>>& devices()
      const {
    return devices_;
  }
  /// First device whose "<vendor> <model>" contains `needle` (nullptr if
  /// absent).
  [[nodiscard]] TestbedDevice* find(std::string_view needle);

  /// The companion smartphones of §3.1 (a Pixel and an iPhone).
  [[nodiscard]] Host& pixel() { return *pixel_; }
  [[nodiscard]] Host& iphone() { return *iphone_; }

  /// Boots every device (staggered DHCP) — call once, then run the loop.
  void start_all();
  /// Advances virtual time.
  void run_for(SimTime duration);
  /// Idle capture: no interactions, just background behavior (§3.1's
  /// "five consecutive days of traffic without human interaction", at a
  /// configurable length).
  void run_idle(SimTime duration) { run_for(duration); }
  /// Scripted interactions: companion-phone/voice-assistant control
  /// exchanges with random devices, §3.1's 7,191-interaction experiments.
  void run_interactions(int count, SimTime spacing = SimTime::from_seconds(5));

 private:
  void interact_once(TestbedDevice& device);
  void schedule_interop();
  static void apply_privacy_hardening(DeviceBehavior& behavior);

  LabConfig config_;
  Rng rng_;
  EventLoop loop_;
  Switch net_;
  CaptureSink capture_;
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<TestbedDevice>> devices_;
  std::unique_ptr<Host> pixel_;
  std::unique_ptr<Host> iphone_;
};

}  // namespace roomnet
