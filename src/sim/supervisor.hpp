#pragma once
// Replica supervision: watchdog timeouts, retry with exponential backoff,
// and quarantine-instead-of-abort.
//
// Campaign runs (wrsn_sweep) execute thousands of replicas; one wedged or
// crashing replica must not take the whole sweep down. The supervisor wraps
// each replica attempt in a policy loop:
//
//   attempt -> ok?        -> done
//           -> timeout /  -> retried (exponential backoff) up to the retry
//              error         cap, then QUARANTINED: the supervisor returns a
//                            failure result instead of throwing, and the
//                            campaign records the cell in `failed_points`
//                            and carries on.
//
// The watchdog is cooperative, built on World's checkpoint hook: the hook
// fires after every processed event, so a deadline check there bounds the
// wall-clock budget of a replica without signals or threads — a run stopped
// by the watchdog simply returns with World::finished() == false, which the
// supervisor reports as a timeout. (A replica stuck *inside* one event
// cannot be interrupted this way; the process-level kill in CI covers that.)
//
// Telemetry (all under "supervisor/"): retries, timeouts, errors,
// quarantines. The sleep between retries is injectable so tests can assert
// the backoff sequence without waiting it out.

#include <cstdint>
#include <functional>
#include <string>

#include "core/config.hpp"
#include "core/units.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"

namespace wrsn {

class World;

struct SupervisorOptions {
  // Wall-clock budget per attempt, seconds; <= 0 disables the watchdog.
  // Must be finite and fit steady_clock (validated by ReplicaSupervisor).
  double watchdog_s = 0.0;
  // Retries after the first attempt before quarantining.
  std::size_t max_retries = 2;
  // First retry delay in milliseconds; doubles on every further retry.
  // Must be finite and >= 0.
  double backoff_ms = 100.0;
  // Injectable sleep (milliseconds). Null = real std::this_thread sleep.
  std::function<void(double)> sleep_ms;
};

// Outcome of one supervised attempt (the test seam: anything that can run
// once and report ok / timeout / error can be supervised).
struct AttemptOutcome {
  enum class Status : std::uint8_t { kOk, kTimeout, kError };
  Status status = Status::kOk;
  MetricsReport report;  // valid when kOk
  std::string error;     // human-readable cause when kError
};

struct ReplicaResult {
  bool ok = false;             // false = quarantined after exhausting retries
  MetricsReport report;        // valid when ok
  std::size_t attempts = 1;    // total attempts (1 = first try succeeded)
  bool timed_out = false;      // any attempt hit the watchdog
  std::string error;           // last failure cause when quarantined
};

class ReplicaSupervisor {
 public:
  // Throws InvalidArgument when `options` fails validate().
  explicit ReplicaSupervisor(SupervisorOptions options,
                             obs::TelemetryRegistry* telemetry = nullptr);

  // Rejects a NaN, infinite or steady_clock-overflowing watchdog_s and a
  // NaN, infinite or negative backoff_ms; the message names the field.
  static void validate(const SupervisorOptions& options);

  // Runs one replica of `config` under the watchdog + retry policy. Never
  // throws on replica failure: a replica that keeps failing comes back
  // quarantined.
  [[nodiscard]] ReplicaResult run(const SimConfig& config);

  // One attempt on a caller-built (and instrumented) world: arms the
  // watchdog, runs to `horizon`, and reports ok with the report, or timeout.
  [[nodiscard]] AttemptOutcome run_watched(World& world, Second horizon) const;

  // Policy core: runs `attempt` until it succeeds or the retry cap is hit,
  // sleeping the backoff schedule in between. Exceptions escaping `attempt`
  // count as errors (and are absorbed — supervision exists so one bad
  // replica cannot abort a campaign).
  [[nodiscard]] ReplicaResult supervise(
      const std::function<AttemptOutcome()>& attempt);

  [[nodiscard]] const SupervisorOptions& options() const { return options_; }

 private:
  void count(const char* name);

  SupervisorOptions options_;
  obs::TelemetryRegistry* telemetry_;
};

}  // namespace wrsn
