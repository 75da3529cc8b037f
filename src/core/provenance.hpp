// Canonical serialization of the pipeline's stage outputs into SHA-256
// content hashes — the per-stage entries of the run manifest (obs/manifest).
// Every function walks only deterministic containers (std::map / std::set /
// vectors with contractual ordering), so two runs that agree produce
// identical hashes and a determinism break is pinned to the first stage
// whose hash moved. Doubles fold in by IEEE-754 bit pattern: the simulator
// computes them with integer-exact inputs, so bit-equality is the contract
// (the same one PipelineDeterminism asserts on entropy_bits).
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/manifest.hpp"

namespace roomnet {

/// Digest of the result-determining PipelineConfig fields. `threads` and
/// `telemetry_out` are excluded by contract: neither may change results, and
/// the manifest comparison is what enforces that promise. Armed stream
/// eviction knobs fold in — they legitimately change results.
std::string pipeline_config_digest(const PipelineConfig& config);

/// Stage-3 outputs: protocol usage, comm graph, cross-validation, exposure
/// matrix, discovery-response correlation, and the flow count.
std::string hash_classify_stage(const PipelineResults& results);

/// Stage-4 outputs: port-scan reports, service audits, vulnerability
/// findings.
std::string hash_scan_stage(const PipelineResults& results);

/// Stage-5 outputs: campaign statistics and exfiltration findings.
std::string hash_apps_stage(const PipelineResults& results);

/// Stage-6 outputs: the household fingerprint analysis.
std::string hash_crowd_stage(const PipelineResults& results);

/// The graceful-degradation ledger (faulty runs; empty hash input when
/// clean) — recorded as its own trailing manifest stage so churn outages
/// and stage degradations are themselves audited for determinism.
std::string hash_degraded_ledger(
    const std::vector<faults::DegradedResult>& degraded);

}  // namespace roomnet
