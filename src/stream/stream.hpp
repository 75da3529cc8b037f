// roomnet::stream — the pipeline's stage-3 analysis path. Where the batch
// entry points read a finished CaptureStore/FlowTable, a StreamAnalyzer
// folds each packet into the analysis builders the moment the tap fires,
// labelling it once (PacketLabels) for all of them, and keeps per-flow state
// behind a bounded FlowCache — memory is O(active flows), independent of run
// length.
//
// Determinism: on_packet runs on the sim thread in event order (it is called
// straight from the packet tap), every builder fold is order-canonical, and
// the cache flush emits surviving flows in creation order — so with the
// default non-evicting StreamConfig the results are byte-identical to the
// batch entry points over the same capture, at any thread count. Arming an
// eviction knob (memcap/max_flows/timeouts) trades that equivalence for
// bounded memory: long flows may split and payload-less records may
// classify generically. DESIGN.md §12 spells out the contract.
#pragma once

#include <cstddef>
#include <functional>
#include <set>

#include "analysis/exposure.hpp"
#include "analysis/overview.hpp"
#include "capture/flow_cache.hpp"
#include "classify/crossval.hpp"
#include "classify/response.hpp"

namespace roomnet::stream {

/// Flow-cache bounds for a streaming run. The default (everything 0 /
/// disabled) never evicts: every flow survives to the final flush and the
/// run is byte-identical to the batch entry points. Setting any knob arms
/// eviction.
struct StreamConfig {
  std::size_t max_flows = 0;
  std::size_t memcap_bytes = 0;
  SimTime idle_timeout{};
  SimTime established_timeout{};

  /// True when any eviction knob is armed — i.e. when results may
  /// legitimately differ from the batch entry points (and the run's config
  /// digest says so; see pipeline_config_digest).
  [[nodiscard]] bool evicting() const {
    return max_flows != 0 || memcap_bytes != 0 || idle_timeout.us() > 0 ||
           established_timeout.us() > 0;
  }

  [[nodiscard]] FlowCacheConfig cache_config() const {
    return FlowCacheConfig{max_flows, memcap_bytes, idle_timeout,
                           established_timeout};
  }
};

/// Everything stage 3 produces, plus the cache's own accounting.
struct StreamResults {
  ProtocolUsage usage;
  CommGraph graph;
  CrossValidation crossval;
  ResponseStats responses;
  ExposureMatrix exposure;
  /// Completed FlowRecords (== batch flow count when never evicting).
  std::size_t flows = 0;
  FlowCacheStats cache;
};

/// Single-owner streaming consumer: install on_packet() as the packet tap
/// body, call finish() once at the classify stage. finish() is terminal:
/// its builders are moved out and its cache flushed, so nothing may be
/// folded afterwards. Not thread-safe — both run on the sim thread, which is
/// what keeps eviction order deterministic.
class StreamAnalyzer {
 public:
  StreamAnalyzer(const StreamConfig& config, std::set<MacAddress> population);

  /// Folds one local packet into every per-packet analysis and the flow
  /// cache, classifying it at most once per classifier. The views in
  /// `packet` are only borrowed for the call.
  /// Precondition: finish() has not been called.
  void on_packet(SimTime at, const PacketView& packet);

  /// Flushes the cache (remaining flows complete in creation order) and
  /// returns every analysis result. Call once; no on_packet() may follow.
  [[nodiscard]] StreamResults finish();

  /// Secondary consumer of completed flows (the watch layer): invoked after
  /// the analyzer's own fold, same sim-thread/creation-order guarantees as
  /// the cache sink. Install before the first packet.
  void set_flow_observer(
      std::function<void(const FlowRecord&, PruneReason)> observer) {
    flow_observer_ = std::move(observer);
  }

  [[nodiscard]] const FlowCache& cache() const { return cache_; }
  [[nodiscard]] std::size_t packets() const { return packets_; }

 private:
  void on_flow(const FlowRecord& record, PruneReason reason);

  ProtocolUsageBuilder usage_;
  CommGraphBuilder graph_;
  ExposureBuilder exposure_;
  CrossValidator crossval_;
  ResponseCorrelator responses_;
  std::size_t flows_completed_ = 0;
  std::size_t packets_ = 0;
  bool finished_ = false;
  std::function<void(const FlowRecord&, PruneReason)> flow_observer_;
  FlowCache cache_;  // last member: its sink captures `this`
};

}  // namespace roomnet::stream
