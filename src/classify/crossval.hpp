// Classifier cross-validation (Appendix C.2 / Figure 3): run the spec and
// deep classifiers over the same packets+flows and tabulate agreement,
// disagreement, and the confusion matrix between their label vocabularies.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "capture/capture_store.hpp"
#include "capture/flow.hpp"
#include "classify/classifier.hpp"

namespace roomnet::exec {
class TaskPool;
}  // namespace roomnet::exec

namespace roomnet {

struct CrossValidation {
  /// (spec label, deep label) -> count.
  std::map<std::pair<ProtocolLabel, ProtocolLabel>, std::size_t> matrix;
  std::size_t total = 0;
  std::size_t agreed = 0;
  std::size_t disagreed = 0;       // both labeled, different labels
  std::size_t neither_labeled = 0; // both generic/unknown
  std::size_t spec_labeled = 0;    // spec produced a non-generic label
  std::size_t deep_labeled = 0;

  [[nodiscard]] double agreement_rate() const {
    return total == 0 ? 0 : static_cast<double>(agreed) / static_cast<double>(total);
  }
  [[nodiscard]] double disagreement_rate() const {
    return total == 0 ? 0 : static_cast<double>(disagreed) / static_cast<double>(total);
  }
  [[nodiscard]] double unlabeled_rate() const {
    return total == 0 ? 0
                      : static_cast<double>(neither_labeled) / static_cast<double>(total);
  }
};

/// True when a label names a concrete protocol (vs generic/unknown bins).
bool is_concrete_label(ProtocolLabel label);

/// Incremental fold behind cross_validate(): feed packets as they occur and
/// flows as they complete, in any interleaving. Every CrossValidation field
/// is an additive count (keyed at most by label pair), so the streaming
/// tabulation equals the batch flows-then-packets order by construction.
class CrossValidator {
 public:
  void on_packet(const PacketLabels& labels);
  void on_flow(const Flow& flow);
  [[nodiscard]] CrossValidation finish() { return std::move(cv_); }

 private:
  SpecClassifier spec_;
  DeepClassifier deep_;
  CrossValidation cv_;
};

/// Cross-validates over flows plus the packet-level L2/L3 traffic in the
/// arena-backed capture. The per-packet pass classifies the stored views
/// directly — no Packet is materialized.
CrossValidation cross_validate(const std::vector<Flow>& flows,
                               const CaptureStore& capture);

/// Parallel variant: shards the per-flow and per-packet classification
/// loops over `pool` and merges the per-chunk confusion counts in index
/// order, so the result is byte-identical for any worker count (threads=1
/// reproduces the sequential tabulation exactly).
CrossValidation cross_validate(const std::vector<Flow>& flows,
                               const CaptureStore& capture,
                               exec::TaskPool& pool);

/// Owning-Packet conveniences (offline pcap analysis, tests).
CrossValidation cross_validate(const std::vector<Flow>& flows,
                               const std::vector<Packet>& l2_l3_packets);
CrossValidation cross_validate(
    const std::vector<Flow>& flows,
    const std::vector<std::pair<SimTime, Packet>>& capture);
CrossValidation cross_validate(
    const std::vector<Flow>& flows,
    const std::vector<std::pair<SimTime, Packet>>& capture,
    exec::TaskPool& pool);

}  // namespace roomnet
