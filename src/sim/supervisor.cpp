#include "sim/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "core/error.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

using Clock = std::chrono::steady_clock;

// Longest wall-clock span, in seconds, that still fits a steady_clock
// deadline: half the clock's range leaves the other half for now().
double max_clock_seconds() {
  return std::chrono::duration<double>(Clock::duration::max()).count() / 2.0;
}

}  // namespace

ReplicaSupervisor::ReplicaSupervisor(SupervisorOptions options,
                                     obs::TelemetryRegistry* telemetry)
    : options_(std::move(options)), telemetry_(telemetry) {
  validate(options_);
  if (!options_.sleep_ms) {
    options_.sleep_ms = [](double ms) {
      // Doubling can outgrow the clock; a capped sleep is still "forever".
      const double capped = std::min(ms, max_clock_seconds() * 1e3);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(capped));
    };
  }
}

void ReplicaSupervisor::validate(const SupervisorOptions& options) {
  WRSN_REQUIRE(std::isfinite(options.watchdog_s) &&
                   options.watchdog_s <= max_clock_seconds(),
               "watchdog_s must be a finite number of seconds that fits "
               "steady_clock (<= 0 disables the watchdog)");
  WRSN_REQUIRE(std::isfinite(options.backoff_ms) && options.backoff_ms >= 0.0,
               "backoff_ms must be finite and >= 0");
}

void ReplicaSupervisor::count(const char* name) {
  if (telemetry_ != nullptr) telemetry_->counter(name).add();
}

ReplicaResult ReplicaSupervisor::run(const SimConfig& config) {
  return supervise([&]() {
    World world(config);
    return run_watched(world, config.sim_duration);
  });
}

AttemptOutcome ReplicaSupervisor::run_watched(World& world, Second horizon) const {
  if (options_.watchdog_s > 0.0) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options_.watchdog_s));
    // Throttle the clock read: one syscall per event would dominate small
    // replicas, and a 1024-event overshoot is noise at wall-clock scale.
    std::uint32_t tick = 0;
    world.set_checkpoint_hook([deadline, tick](const World&) mutable {
      if (++tick % 1024 != 0) return false;
      return Clock::now() >= deadline;
    });
  }
  world.run_until(horizon);
  AttemptOutcome out;
  out.status = world.finished() ? AttemptOutcome::Status::kOk
                                : AttemptOutcome::Status::kTimeout;
  if (world.finished()) out.report = world.report();
  return out;
}

ReplicaResult ReplicaSupervisor::supervise(
    const std::function<AttemptOutcome()>& attempt) {
  ReplicaResult result;
  double backoff = options_.backoff_ms;
  for (std::size_t tries = 0;; ++tries) {
    result.attempts = tries + 1;
    AttemptOutcome out;
    try {
      out = attempt();
    } catch (const std::exception& e) {
      out.status = AttemptOutcome::Status::kError;
      out.error = e.what();
    } catch (...) {
      out.status = AttemptOutcome::Status::kError;
      out.error = "unknown exception";
    }
    switch (out.status) {
      case AttemptOutcome::Status::kOk:
        result.ok = true;
        result.report = out.report;
        result.error.clear();
        return result;
      case AttemptOutcome::Status::kTimeout:
        result.timed_out = true;
        result.error = "watchdog timeout";
        count("supervisor/timeouts");
        break;
      case AttemptOutcome::Status::kError:
        result.error = out.error;
        count("supervisor/errors");
        break;
    }
    if (tries >= options_.max_retries) {
      result.ok = false;
      count("supervisor/quarantines");
      return result;
    }
    count("supervisor/retries");
    if (backoff > 0.0) options_.sleep_ms(backoff);
    backoff *= 2.0;
  }
}

}  // namespace wrsn
