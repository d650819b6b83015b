#pragma once
// Experiment harness: runs independent replicas (distinct master seeds) of a
// configuration, optionally in parallel, and averages the reports. All
// figure benches are parameter sweeps over this.

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"

namespace wrsn {

// One full simulation of `config` (seed taken from the config). When
// `telemetry` is non-null the world records event-loop counters and
// scheduler timings into it (see obs/telemetry.hpp); physics is unaffected.
[[nodiscard]] MetricsReport run_replica(const SimConfig& config,
                                        obs::TelemetryRegistry* telemetry = nullptr);

// Field-wise arithmetic mean of reports (counters become averages too).
[[nodiscard]] MetricsReport mean_report(const std::vector<MetricsReport>& reports);

// Runs `num_replicas` replicas with seeds config.seed, config.seed+1, ...
// When `pool` is non-null the replicas run concurrently on it. When
// `telemetry` is non-null each replica records into a private registry which
// is merged into `telemetry` as the replica finishes (counters/histograms
// sum, gauges keep the maximum), so one registry can aggregate a whole sweep.
[[nodiscard]] std::vector<MetricsReport> run_replicas(
    const SimConfig& config, std::size_t num_replicas, ThreadPool* pool = nullptr,
    obs::TelemetryRegistry* telemetry = nullptr);

// Convenience: mean over replicas.
[[nodiscard]] MetricsReport run_mean(const SimConfig& config,
                                     std::size_t num_replicas,
                                     ThreadPool* pool = nullptr,
                                     obs::TelemetryRegistry* telemetry = nullptr);

}  // namespace wrsn
