// Information-exposure analysis (Table 1): which sensitive data types each
// discovery protocol leaks, extracted from the actual payload bytes of a
// capture — MAC addresses in mDNS hostnames, models and display names in
// DHCP hostnames, UUIDs and UPnP versions in SSDP, GWid/product keys in
// TuyaLP, OEM IDs and geolocation in TPLINK-SHP sysinfo.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "capture/capture_store.hpp"
#include "classify/label.hpp"
#include "netcore/flat_map.hpp"
#include "netcore/packet.hpp"
#include "netcore/time.hpp"

namespace roomnet {

enum class ExposedData {
  kMac,
  kDeviceModel,
  kOsVersion,
  kDisplayName,
  kUuid,
  kGwId,
  kProductKey,
  kOemId,
  kGeolocation,
  kOutdatedSoftware,
};

std::string to_string(ExposedData data);

struct ExposureMatrix {
  /// (protocol, data type) -> devices (source MACs) observed exposing it.
  std::map<std::pair<ProtocolLabel, ExposedData>, std::set<MacAddress>> cells;

  [[nodiscard]] bool exposed(ProtocolLabel protocol, ExposedData data) const {
    return cells.count({protocol, data}) != 0;
  }
  [[nodiscard]] std::size_t device_count(ProtocolLabel protocol,
                                         ExposedData data) const {
    const auto it = cells.find({protocol, data});
    return it == cells.end() ? 0 : it->second.size();
  }
};

/// Exact memo of the discovery announcements an ExposureBuilder has already
/// extracted, keyed by (source MAC, protocol, payload bytes). A lab's mDNS
/// and SSDP traffic is a few hundred announcements repeated thousands of
/// times. A payload's marks depend only on its source, its bytes and the
/// branch its UDP ports select, so a repeat adds nothing to the matrix and
/// can be skipped. The key holds the branch rather than the raw ports:
/// SSDP NOTIFYs leave from a fresh ephemeral port each time.
/// - Equality is exact: the hash only finds the candidate, the stored key
///   bytes decide.
/// - A repeat allocates nothing. A first sighting appends its key to one
///   flat store (plus amortized index growth).
/// - Each source may store at most kBytesPerSource key bytes; the busiest
///   lab source needs about 3 KiB. Past that its new payloads are not
///   recorded and are extracted every time, so results stay exact and
///   memory stays O(sources) on any capture.
class AnnouncementMemo {
 public:
  static constexpr std::size_t kBytesPerSource = 8 * 1024;

  /// True when exactly this key was recorded before. Otherwise records it if
  /// `src` has budget left, and returns false.
  bool repeat(MacAddress src, ProtocolLabel protocol, BytesView payload);

  /// Stored key bytes, over all sources.
  [[nodiscard]] std::size_t bytes() const { return store_.size(); }
  /// Distinct keys recorded.
  [[nodiscard]] std::size_t entries() const { return index_.size(); }

 private:
  struct Entry {
    std::size_t offset = 0;
    std::size_t size = 0;
  };
  FlatMap<Entry> index_;               // key hash -> key bytes in store_
  FlatMap<std::size_t> source_bytes_;  // source MAC + 1 -> bytes it stored
  std::vector<std::uint8_t> store_;    // concatenated keys
};

/// Incremental fold behind analyze_exposure(): each packet marks
/// (protocol, data type, device) cells in a map of sets, so the matrix is
/// independent of packet order and the streaming fold equals the batch scan
/// by construction. The UDP-discovery and TCP-serialNumber extractions are
/// disjoint per packet; the builder applies both in one pass. mDNS and SSDP
/// payloads already extracted from the same source are skipped
/// (AnnouncementMemo): marks are set inserts, so the matrix is unchanged.
class ExposureBuilder {
 public:
  /// Folds one packet. Returns true when it is an mDNS or SSDP payload the
  /// memo did not skip: the first sighting of its (source, branch, payload),
  /// or any sighting once its source's memo budget is spent. A caller that
  /// derives more from announcements (the fleet's identifier harvest) reads
  /// exactly the payloads this builder extracted.
  bool on_packet(const PacketView& packet);
  [[nodiscard]] ExposureMatrix finish() { return std::move(matrix_); }

  [[nodiscard]] const AnnouncementMemo& memo() const { return memo_; }

 private:
  ExposureMatrix matrix_;
  AnnouncementMemo memo_;
};

/// Walks a decoded capture and fills the matrix. Detection is payload-based:
/// nothing is taken from simulator ground truth.
ExposureMatrix analyze_exposure(
    const std::vector<std::pair<SimTime, Packet>>& capture);
/// Zero-copy variant: reads payload slices straight out of the arena.
ExposureMatrix analyze_exposure(const CaptureStore& capture);

/// The protocols Table 1 rows cover, in paper order.
const std::vector<ProtocolLabel>& exposure_protocols();
/// The data types Table 1 columns cover, in paper order.
const std::vector<ExposedData>& exposure_data_types();

}  // namespace roomnet
