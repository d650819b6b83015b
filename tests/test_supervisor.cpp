// ReplicaSupervisor: retry with exponential backoff, watchdog timeouts,
// quarantine-instead-of-abort, and the "supervisor/*" telemetry counters.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "obs/telemetry.hpp"
#include "sim/snapshot.hpp"
#include "sim/supervisor.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

// Options with a recorded (not slept) backoff schedule.
SupervisorOptions fake_sleep_options(std::vector<double>* sleeps,
                                     std::size_t max_retries = 3,
                                     double backoff_ms = 50.0) {
  SupervisorOptions opt;
  opt.max_retries = max_retries;
  opt.backoff_ms = backoff_ms;
  opt.sleep_ms = [sleeps](double ms) { sleeps->push_back(ms); };
  return opt;
}

AttemptOutcome ok_outcome() {
  AttemptOutcome out;
  out.status = AttemptOutcome::Status::kOk;
  return out;
}

TEST(Supervisor, FirstTrySucceedsWithoutSleeping) {
  std::vector<double> sleeps;
  obs::TelemetryRegistry telemetry;
  ReplicaSupervisor sup(fake_sleep_options(&sleeps), &telemetry);
  const ReplicaResult res = sup.supervise([] { return ok_outcome(); });
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_FALSE(res.timed_out);
  EXPECT_TRUE(res.error.empty());
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(telemetry.counter("supervisor/retries").value(), 0u);
}

TEST(Supervisor, RetriesWithDoublingBackoffThenSucceeds) {
  std::vector<double> sleeps;
  obs::TelemetryRegistry telemetry;
  ReplicaSupervisor sup(fake_sleep_options(&sleeps, 5, 50.0), &telemetry);
  int calls = 0;
  const ReplicaResult res = sup.supervise([&calls] {
    if (++calls <= 3) throw std::runtime_error("flaky");
    return ok_outcome();
  });
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 4u);
  EXPECT_TRUE(res.error.empty());  // success clears the stale failure cause
  EXPECT_EQ(sleeps, (std::vector<double>{50.0, 100.0, 200.0}));
  EXPECT_EQ(telemetry.counter("supervisor/retries").value(), 3u);
  EXPECT_EQ(telemetry.counter("supervisor/errors").value(), 3u);
  EXPECT_EQ(telemetry.counter("supervisor/quarantines").value(), 0u);
}

TEST(Supervisor, AlwaysFailingReplicaIsQuarantinedNotThrown) {
  std::vector<double> sleeps;
  obs::TelemetryRegistry telemetry;
  ReplicaSupervisor sup(fake_sleep_options(&sleeps, 2, 10.0), &telemetry);
  const ReplicaResult res = sup.supervise(
      []() -> AttemptOutcome { throw std::runtime_error("always broken"); });
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.attempts, 3u);  // 1 try + 2 retries
  EXPECT_EQ(res.error, "always broken");
  EXPECT_EQ(sleeps, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(telemetry.counter("supervisor/quarantines").value(), 1u);
  EXPECT_EQ(telemetry.counter("supervisor/errors").value(), 3u);
  EXPECT_EQ(telemetry.counter("supervisor/retries").value(), 2u);
}

TEST(Supervisor, NonStdExceptionIsAbsorbed) {
  std::vector<double> sleeps;
  ReplicaSupervisor sup(fake_sleep_options(&sleeps, 0));
  const ReplicaResult res = sup.supervise([]() -> AttemptOutcome { throw 42; });
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "unknown exception");
}

TEST(Supervisor, TimeoutOutcomeMarksTimedOut) {
  std::vector<double> sleeps;
  obs::TelemetryRegistry telemetry;
  ReplicaSupervisor sup(fake_sleep_options(&sleeps, 1, 5.0), &telemetry);
  const ReplicaResult res = sup.supervise([] {
    AttemptOutcome out;
    out.status = AttemptOutcome::Status::kTimeout;
    return out;
  });
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.timed_out);
  EXPECT_EQ(res.error, "watchdog timeout");
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_EQ(telemetry.counter("supervisor/timeouts").value(), 2u);
  EXPECT_EQ(telemetry.counter("supervisor/quarantines").value(), 1u);
}

TEST(Supervisor, ZeroBackoffNeverSleeps) {
  std::vector<double> sleeps;
  ReplicaSupervisor sup(fake_sleep_options(&sleeps, 2, 0.0));
  const ReplicaResult res = sup.supervise(
      []() -> AttemptOutcome { throw std::runtime_error("x"); });
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(sleeps.empty());
}

SimConfig small_config() {
  SimConfig cfg;
  cfg.num_sensors = 30;
  cfg.num_targets = 3;
  cfg.num_rvs = 1;
  cfg.field_side = meters(80.0);
  cfg.sim_duration = hours(2.0);
  cfg.seed = 11;
  cfg.battery.capacity = Joule{150.0};
  return cfg;
}

TEST(Supervisor, RealReplicaRunsToCompletionWithoutWatchdog) {
  std::vector<double> sleeps;
  SupervisorOptions opt = fake_sleep_options(&sleeps);
  opt.watchdog_s = 0.0;  // disabled
  ReplicaSupervisor sup(opt);
  const ReplicaResult res = sup.run(small_config());
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.attempts, 1u);
  EXPECT_GT(res.report.duration.value(), 0.0);
}

TEST(Supervisor, TinyWatchdogTimesOutRealReplica) {
  // A microscopic wall-clock budget: the deadline has passed by the first
  // throttled check (event 1024), so every attempt times out and the
  // replica is quarantined without aborting the caller.
  std::vector<double> sleeps;
  obs::TelemetryRegistry telemetry;
  SupervisorOptions opt = fake_sleep_options(&sleeps, 1, 5.0);
  opt.watchdog_s = 1e-9;
  ReplicaSupervisor sup(opt, &telemetry);
  SimConfig cfg = small_config();
  cfg.sim_duration = hours(240.0);  // thousands of events past the first check
  const ReplicaResult res = sup.run(cfg);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.timed_out);
  EXPECT_EQ(res.error, "watchdog timeout");
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_EQ(sleeps, (std::vector<double>{5.0}));
  EXPECT_EQ(telemetry.counter("supervisor/timeouts").value(), 2u);
  EXPECT_EQ(telemetry.counter("supervisor/quarantines").value(), 1u);
}

TEST(Supervisor, RejectsWatchdogAndBackoffOutsideTheClock) {
  // A budget past steady_clock's range used to overflow the deadline into
  // the past (every replica timed out), an infinite backoff overflowed the
  // sleep, and NaN silently disabled either setting.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double watchdog : {1e10, inf, -inf, nan}) {
    SupervisorOptions opt;
    opt.watchdog_s = watchdog;
    EXPECT_THROW(ReplicaSupervisor{opt}, InvalidArgument) << watchdog;
  }
  for (const double backoff : {inf, nan, -1.0}) {
    SupervisorOptions opt;
    opt.backoff_ms = backoff;
    EXPECT_THROW(ReplicaSupervisor{opt}, InvalidArgument) << backoff;
  }
  // A large budget that does fit the clock leaves a real replica alone.
  std::vector<double> sleeps;
  SupervisorOptions opt = fake_sleep_options(&sleeps, 0);
  opt.watchdog_s = 1e9;
  ReplicaSupervisor sup(opt);
  EXPECT_TRUE(sup.run(small_config()).ok);
}

TEST(Supervisor, WatchdogStopLeavesWorldResumable) {
  // The cooperative watchdog stops via the checkpoint hook, so a timed-out
  // world is quiescent: it can be checkpointed or resumed, not just thrown
  // away. (The supervisor itself retries from scratch for determinism.)
  World world(small_config());
  world.set_checkpoint_hook([](const World&) { return true; });
  world.run_until(hours(2.0));
  EXPECT_FALSE(world.finished());
  EXPECT_EQ(world.events_processed(), 1u);
  EXPECT_NO_THROW((void)world.checkpoint());
}

}  // namespace
}  // namespace wrsn
