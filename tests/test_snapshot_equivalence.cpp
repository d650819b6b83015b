// Checkpoint/restore equivalence: save-at-t then restore-and-run must be
// BYTE-IDENTICAL to an uninterrupted run — report JSON, event trace, final
// battery bit patterns, span files — across both world engines, both event
// queue implementations, with and without fault injection, and for every
// scheduler, with the snapshot taken at a pseudo-random event index of each
// run (or, without failover, while a broken-down RV holds claims). Any
// divergence pinpoints a member missing from SnapshotAccess::io or a restore
// that recomputes state instead of reinstating it.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "obs/spans.hpp"
#include "sched/policy.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

struct Scenario {
  std::uint64_t seed = 0;
  WorldEngine engine = WorldEngine::kIncremental;
  std::string queue = "calendar";
  bool faults = false;
  std::string scheduler = "combined";
  // With failover off a broken-down RV keeps its claims; such a scenario
  // checkpoints at the first event that leaves one in that state.
  bool failover = true;
};

std::string describe(const Scenario& sc) {
  std::ostringstream os;
  os << "seed=" << sc.seed
     << " engine=" << (sc.engine == WorldEngine::kIncremental ? "incremental" : "reference")
     << " queue=" << sc.queue << " faults=" << (sc.faults ? "on" : "off")
     << " scheduler=" << sc.scheduler
     << " failover=" << (sc.failover ? "on" : "off");
  return os.str();
}

// Whether some RV is broken down while still holding claimed requests.
bool broken_rv_holds_claims(const World& w) {
  for (const Rv& rv : w.rvs()) {
    if (rv.state == Rv::State::kBrokenDown && !rv.service_queue.empty()) {
      return true;
    }
  }
  return false;
}

// Small, battery-stressed instances (the test_world_equivalence recipe):
// deaths, recharge tours, target moves and — when enabled — uplink faults,
// breakdowns and hw-fault windows all fire within a short horizon.
SimConfig eq_config(const Scenario& sc) {
  SimConfig cfg;
  cfg.num_sensors = 36 + (sc.seed % 3) * 12;  // 36..60
  cfg.num_targets = 4;
  cfg.num_rvs = 2;
  cfg.field_side = meters(90.0);
  cfg.sim_duration = hours(3.0);
  cfg.seed = 0xC0DE + sc.seed * 7919;
  cfg.target_motion = sc.seed % 2 == 0 ? TargetMotion::kRandomWaypoint
                                       : TargetMotion::kTeleport;
  cfg.target_period = minutes(30.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.scheduler = sc.scheduler;
  cfg.battery.capacity = Joule{150.0};
  cfg.radio.listen_duty_cycle = 0.2;
  cfg.event_queue = sc.queue;
  if (sc.faults) {
    cfg.fault.enabled = true;
    cfg.fault.request_loss_prob = 0.2;
    cfg.fault.request_delay_prob = 0.1;
    cfg.fault.request_retry_timeout = minutes(5.0);
    cfg.fault.rv_mtbf_hours = 4.0;
    cfg.fault.rv_repair_duration = hours(1.0);
    cfg.fault.sensor_fault_rate_per_day = 4.0;
    cfg.fault.sensor_fault_duration = minutes(30.0);
    cfg.fault.battery_noise_per_day = 0.05;
    cfg.fault.rv_failover = sc.failover;
  }
  return cfg;
}

struct RunResult {
  std::string report_json;
  std::vector<World::TraceEvent> trace;
  std::vector<std::uint64_t> battery_bits;
  std::uint64_t consumed_bits = 0;
  std::uint64_t events = 0;
  std::string span_jsonl;
};

void harvest(World& w, RunResult& out) {
  out.report_json = to_json(w.report());
  out.battery_bits.clear();
  for (const Sensor& s : w.network().sensors()) {
    out.battery_bits.push_back(std::bit_cast<std::uint64_t>(s.battery.level().value()));
  }
  out.consumed_bits = std::bit_cast<std::uint64_t>(w.sensor_energy_consumed().value());
  out.events = w.events_processed();
}

// Uninterrupted golden run.
RunResult run_golden(const SimConfig& cfg, WorldEngine engine) {
  RunResult out;
  std::ostringstream span_out;
  obs::JsonlSpanSink sink(span_out);
  obs::SpanLog spans(&sink);
  World w(cfg, engine);
  w.set_tracer([&out](const World::TraceEvent& ev) { out.trace.push_back(ev); });
  w.set_span_log(&spans);
  w.run_until(cfg.sim_duration);
  spans.finish(w.now().value());
  harvest(w, out);
  out.span_jsonl = span_out.str();
  return out;
}

// Everything after the first line (the sink's meta record): a restored run
// opens a fresh sink, so its meta line is a duplicate when stitching.
std::string strip_meta_line(const std::string& jsonl) {
  const auto nl = jsonl.find('\n');
  return nl == std::string::npos ? std::string{} : jsonl.substr(nl + 1);
}

void expect_same(const RunResult& golden, const RunResult& got,
                 const std::string& what) {
  EXPECT_EQ(golden.report_json, got.report_json) << what;
  EXPECT_EQ(golden.battery_bits, got.battery_bits) << what;
  EXPECT_EQ(golden.consumed_bits, got.consumed_bits) << what;
  EXPECT_EQ(golden.events, got.events) << what;
  ASSERT_EQ(golden.trace.size(), got.trace.size()) << what;
  for (std::size_t i = 0; i < golden.trace.size(); ++i) {
    const auto& a = golden.trace[i];
    const auto& b = got.trace[i];
    ASSERT_TRUE(a.time == b.time && a.kind == b.kind && a.subject == b.subject &&
                a.epoch == b.epoch && a.queue_size == b.queue_size)
        << what << " trace diverges at event " << i;
  }
  EXPECT_EQ(golden.span_jsonl, got.span_jsonl) << what;
}

void expect_checkpoint_equivalent(const Scenario& sc) {
  const std::string what = describe(sc);
  const SimConfig cfg = eq_config(sc);
  const RunResult golden = run_golden(cfg, sc.engine);
  ASSERT_GT(golden.events, 2u) << what;

  // Snapshot index: pseudo-random in (0, events), derived from the scenario
  // so every instance stops somewhere else.
  Xoshiro256 pick = RngStreams(cfg.seed ^ 0x5A5A).stream("snapshot-index");
  const std::uint64_t stop_at = 1 + pick.uniform_int(golden.events - 1);

  // Part 1: run to the stop index, checkpoint, serialize through the full
  // file codec.
  RunResult stitched;
  std::ostringstream span_part1;
  WorldSnapshot snap;
  {
    obs::JsonlSpanSink sink(span_part1);
    obs::SpanLog spans(&sink);
    World w(cfg, sc.engine);
    w.set_tracer([&stitched](const World::TraceEvent& ev) { stitched.trace.push_back(ev); });
    w.set_span_log(&spans);
    if (sc.failover) {
      w.set_checkpoint_hook(
          [stop_at](const World& world) { return world.events_processed() >= stop_at; });
    } else {
      w.set_checkpoint_hook(broken_rv_holds_claims);
    }
    w.run_until(cfg.sim_duration);
    ASSERT_FALSE(w.finished()) << what;
    if (sc.failover) {
      ASSERT_EQ(w.events_processed(), stop_at) << what;
    } else {
      ASSERT_TRUE(broken_rv_holds_claims(w)) << what;
    }
    snap = deserialize_snapshot(serialize_snapshot(w.checkpoint()));
    sink.finish();
  }

  // Restore → re-checkpoint must be a fixed point (proves load reinstates
  // exactly what save captured, with nothing recomputed differently).
  {
    World restored(snap);
    const WorldSnapshot again = restored.checkpoint();
    EXPECT_EQ(again.state, snap.state) << what << " (restore is not a fixed point)";
    EXPECT_EQ(again.now, snap.now) << what;
    EXPECT_EQ(again.config_text, snap.config_text) << what;
  }

  // Part 2: restore into a fresh world (fresh span log deserialized from the
  // snapshot, fresh sinks) and run to the horizon.
  std::ostringstream span_part2;
  {
    obs::JsonlSpanSink sink(span_part2);
    obs::SpanLog spans(&sink);
    if (!snap.span_state.empty()) {
      BinReader r(snap.span_state);
      spans.deserialize(r);
      r.expect_end();
    }
    World w(snap);
    w.set_tracer([&stitched](const World::TraceEvent& ev) { stitched.trace.push_back(ev); });
    w.set_span_log(&spans);
    w.run_until(cfg.sim_duration);
    EXPECT_TRUE(w.finished()) << what;
    spans.finish(w.now().value());
    harvest(w, stitched);
  }
  stitched.span_jsonl = span_part1.str() + strip_meta_line(span_part2.str());
  expect_same(golden, stitched, what);
}

class SnapshotEquivalence : public testing::TestWithParam<Scenario> {};

TEST_P(SnapshotEquivalence, RestoredRunIsByteIdentical) {
  expect_checkpoint_equivalent(GetParam());
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (const WorldEngine engine : {WorldEngine::kIncremental, WorldEngine::kReference}) {
    for (const std::string& queue : {std::string("calendar"), std::string("heap")}) {
      for (const bool faults : {false, true}) {
        for (std::uint64_t seed = 0; seed < 5; ++seed) {
          out.push_back({seed, engine, queue, faults});
        }
      }
    }
  }
  return out;  // 2 x 2 x 2 x 5 = 40 instances
}

std::string scenario_name(const testing::TestParamInfo<Scenario>& info) {
  const Scenario& sc = info.param;
  std::ostringstream os;
  os << (sc.engine == WorldEngine::kIncremental ? "inc" : "ref") << "_"
     << sc.queue << "_" << (sc.faults ? "faults" : "clean") << "_s" << sc.seed;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(AllEnginesQueuesFaults, SnapshotEquivalence,
                         testing::ValuesIn(scenarios()), scenario_name);

// Every scheme with faults on (so claims are released by failover and
// re-planned), plus one with failover off, whose broken-down RV keeps its
// claims through the checkpoint and resumes them after the repair.
std::vector<Scenario> scheduler_scenarios() {
  std::vector<Scenario> out;
  for (const std::string& name : scheduler_names()) {
    out.push_back({2, WorldEngine::kIncremental, "calendar", true, name, true});
  }
  out.push_back({0, WorldEngine::kIncremental, "calendar", true, "combined", false});
  return out;
}

std::string scheduler_scenario_name(const testing::TestParamInfo<Scenario>& info) {
  std::string name = info.param.scheduler;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + (info.param.failover ? "" : "_no_failover");
}

INSTANTIATE_TEST_SUITE_P(EveryScheduler, SnapshotEquivalence,
                         testing::ValuesIn(scheduler_scenarios()),
                         scheduler_scenario_name);

// Resuming the SAME world object after a hook stop (hook cleared) must also
// match the golden run: checkpoint capture is observational.
TEST(SnapshotEquivalence, InProcessResumeAfterHookStop) {
  const Scenario sc{3, WorldEngine::kIncremental, "calendar", true};
  const SimConfig cfg = eq_config(sc);
  const RunResult golden = run_golden(cfg, sc.engine);
  ASSERT_GT(golden.events, 2u);

  RunResult resumed;
  std::ostringstream span_out;
  obs::JsonlSpanSink sink(span_out);
  obs::SpanLog spans(&sink);
  World w(cfg, sc.engine);
  w.set_tracer([&resumed](const World::TraceEvent& ev) { resumed.trace.push_back(ev); });
  w.set_span_log(&spans);
  const std::uint64_t stop_at = golden.events / 2;
  w.set_checkpoint_hook(
      [stop_at](const World& world) { return world.events_processed() >= stop_at; });
  w.run_until(cfg.sim_duration);
  ASSERT_FALSE(w.finished());
  (void)w.checkpoint();  // capture and discard: must not perturb the run
  w.set_checkpoint_hook(nullptr);
  w.run_until(cfg.sim_duration);
  ASSERT_TRUE(w.finished());
  spans.finish(w.now().value());
  harvest(w, resumed);
  resumed.span_jsonl = span_out.str();
  expect_same(golden, resumed, "in-process resume");
}

// A hook stop on an event at exactly the horizon leaves the events still
// queued at that instant; resuming with run_until(end) must process them and
// finish, like the uninterrupted run.
TEST(SnapshotEquivalence, ResumeAfterHookStopAtHorizon) {
  SimConfig cfg;  // paper defaults
  cfg.sim_duration = days(1.0);
  const RunResult golden = run_golden(cfg, WorldEngine::kIncremental);

  RunResult resumed;
  std::ostringstream span_out;
  obs::JsonlSpanSink sink(span_out);
  obs::SpanLog spans(&sink);
  World w(cfg, WorldEngine::kIncremental);
  w.set_tracer([&resumed](const World::TraceEvent& ev) { resumed.trace.push_back(ev); });
  w.set_span_log(&spans);
  const double end = cfg.sim_duration.value();
  w.set_checkpoint_hook([end](const World& world) { return world.now().value() >= end; });
  w.run_until(cfg.sim_duration);
  ASSERT_FALSE(w.finished());
  ASSERT_EQ(w.now().value(), end);
  ASSERT_LT(w.events_processed(), golden.events);
  w.set_checkpoint_hook(nullptr);
  w.run_until(cfg.sim_duration);
  ASSERT_TRUE(w.finished());
  spans.finish(w.now().value());
  harvest(w, resumed);
  resumed.span_jsonl = span_out.str();
  expect_same(golden, resumed, "resume after a hook stop at the horizon");
}

// Claims are restored through RechargeNodeList::claim, so a snapshot whose
// claim list names a sensor without a pending request, or names one sensor
// twice, is refused instead of loading silently.
TEST(SnapshotClaims, RestoreRefusesUnknownOrRepeatedIds) {
  const Scenario sc{2, WorldEngine::kIncremental, "calendar", false};
  const SimConfig cfg = eq_config(sc);
  World w(cfg, sc.engine);
  w.set_checkpoint_hook([](const World& world) {
    std::size_t claims = 0;
    for (const Rv& rv : world.rvs()) claims += rv.service_queue.size();
    return claims >= 2;
  });
  w.run_until(cfg.sim_duration);
  ASSERT_FALSE(w.finished());
  const WorldSnapshot snap = w.checkpoint();
  const RechargeNodeList& list = w.recharge_list();

  // The claim list follows the request records and the per-sensor
  // request-time vector; locate it by the request records' encoding.
  BinWriter records;
  records.u64(list.size());
  for (const RechargeRequest& r : list.requests()) {
    records.u64(r.sensor);
    records.u64(r.cluster);
    records.f64(r.pos.x);
    records.f64(r.pos.y);
    records.f64(r.demand.value());
    records.boolean(r.critical);
    records.f64(r.fraction);
  }
  const std::size_t at = snap.state.find(records.bytes());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(snap.state.find(records.bytes(), at + 1), std::string::npos);
  const std::size_t claims_at =
      at + records.bytes().size() + 8 + 8 * cfg.num_sensors;

  std::vector<SensorId> claimed;
  SensorId stranger = kInvalidId;  // a sensor with no pending request
  for (SensorId s = 0; s < cfg.num_sensors; ++s) {
    if (list.contains(s) && list.request(s).claimed) claimed.push_back(s);
    if (!list.contains(s) && stranger == kInvalidId) stranger = s;
  }
  ASSERT_GE(claimed.size(), 2u);
  ASSERT_NE(stranger, kInvalidId);
  BinWriter ascending;
  ascending.u64(claimed.size());
  for (const SensorId s : claimed) ascending.u64(s);
  ASSERT_EQ(snap.state.substr(claims_at, ascending.bytes().size()),
            ascending.bytes());

  // Overwrites the k-th claimed id.
  auto patched = [&](std::size_t k, std::uint64_t id) {
    WorldSnapshot bad = snap;
    BinWriter v;
    v.u64(id);
    bad.state.replace(claims_at + 8 + 8 * k, 8, v.bytes());
    return bad;
  };
  EXPECT_NO_THROW(World restored(snap));
  EXPECT_THROW(World restored(patched(0, stranger)), InvalidArgument);
  EXPECT_THROW(World restored(patched(1, claimed[0])), InvalidArgument);
}

// A snapshot taken between run_until calls (settled horizon, no hook) also
// restores byte-identically. The golden here is the same SPLIT run without a
// snapshot: run_until(1h) settles batteries at the 1h horizon, which regroups
// the lazy-settlement FP sums at ULP level relative to one uninterrupted
// run_until(3h) — a pre-existing property of horizon settlement, orthogonal
// to checkpointing. Snapshotting must add no divergence on top of it.
TEST(SnapshotEquivalence, QuiescentSnapshotBetweenRuns) {
  const Scenario sc{1, WorldEngine::kIncremental, "calendar", false};
  const SimConfig cfg = eq_config(sc);
  RunResult golden;
  {
    World w(cfg, sc.engine);
    w.run_until(hours(1.0));
    w.run_until(cfg.sim_duration);
    harvest(w, golden);
  }

  std::ostringstream span_dummy;
  obs::JsonlSpanSink sink(span_dummy);
  obs::SpanLog spans(&sink);
  World w(cfg, sc.engine);
  w.set_span_log(&spans);
  w.run_until(hours(1.0));
  const WorldSnapshot snap =
      deserialize_snapshot(serialize_snapshot(w.checkpoint()));

  std::ostringstream span2;
  obs::JsonlSpanSink sink2(span2);
  obs::SpanLog spans2(&sink2);
  BinReader r(snap.span_state);
  spans2.deserialize(r);
  World restored(snap);
  restored.set_span_log(&spans2);
  restored.run_until(cfg.sim_duration);
  EXPECT_TRUE(restored.finished());
  RunResult got;
  harvest(restored, got);
  EXPECT_EQ(golden.report_json, got.report_json);
  EXPECT_EQ(golden.battery_bits, got.battery_bits);
}

}  // namespace
}  // namespace wrsn
