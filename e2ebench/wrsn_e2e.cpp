// wrsn_e2e — end-to-end benchmark program for the WRSN simulator.
//
//   wrsn_e2e --workload NAME --seed N --seconds S --trace 0|1 [--short]
//
// Runs whole simulations of one workload back to back, single-threaded, for
// S seconds (at least one unit of work) and prints one JSON document on
// stdout: the machine fingerprint, the attempted/failed replica counts and
// every metric of the chosen mode by name with its unit. e2ebench/run.py
// builds this program and turns the document into the benchmark's record
// and result lines; see e2ebench/README.md for the workloads and metrics.
//
// --trace 0 measures the end-to-end metrics with no observer attached.
// --trace 1 runs every replica twice — untraced, then with a per-event
//   tracer and a telemetry registry attached — and reports per-layer
//   metrics. All spans are taken from here, around calls into the
//   simulator's public API; nothing under src/ is instrumented for this.
// --short runs exactly one unit of a shortened horizon and, for n <= 2000,
//   cross-checks it byte-for-byte against the reference engine on the heap
//   queue (the benchmark's own test, e2ebench/test_e2e.py).
//
// Every replica passes a correctness gate (energy conservation, finite
// report fields, and in traced runs untraced == traced == restored report
// and battery vector); a violation counts as a failed replica and makes the
// program exit 1. Usage and environment errors exit 2 with no output.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "activity/clustering.hpp"
#include "core/config_io.hpp"
#include "core/json.hpp"
#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"
#include "obs/telemetry.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;
using Clock = std::chrono::steady_clock;

std::int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}
double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double seconds(Clock::duration d) { return seconds(nanos(d)); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workloads. A unit is the work done for one derived replica seed: one World
// for paper_table2 and waypoint_100k, three (one per paper scheme) for
// dispatch_stress. Every replica seed is a pure function of --seed and the
// unit index, so a run consumes a prefix of the same input sequence.
// ---------------------------------------------------------------------------

constexpr const char* kPaperConfig = "configs/paper_table2.cfg";

// bench_world_hotpath's battery-stressed scenario: constant sensor density,
// random-waypoint targets at n/100, 200 J batteries and a 0.3 listen duty
// cycle, so requests, recharges, deaths and revivals all happen within
// hours of simulated time.
SimConfig stressed_config(std::size_t n, double horizon_h) {
  SimConfig cfg;
  cfg.num_sensors = n;
  cfg.num_targets = std::max<std::size_t>(4, n / 100);
  cfg.num_rvs = 2;
  cfg.field_side = meters(200.0 * std::sqrt(static_cast<double>(n) / 500.0));
  cfg.sim_duration = hours(horizon_h);
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.target_period = minutes(1.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.activation = ActivationPolicy::kRoundRobin;
  cfg.activation_slot = Second{30.0};
  cfg.battery.capacity = Joule{200.0};
  cfg.radio.listen_duty_cycle = 0.3;
  cfg.rv.speed = MeterPerSecond{5.0};
  cfg.rv.charge_power = watts(10.0);
  cfg.scheduler = "combined";
  return cfg;
}

class Workload {
 public:
  Workload(std::string name, bool short_mode)
      : name_(std::move(name)), short_(short_mode) {
    if (name_ == "paper_table2") {
      paper_ = load_config(kPaperConfig);
    } else if (name_ != "dispatch_stress" && name_ != "waypoint_100k") {
      throw std::invalid_argument(
          "unknown workload '" + name_ +
          "' (paper_table2, dispatch_stress, waypoint_100k)");
    }
  }

  [[nodiscard]] std::vector<SimConfig> unit(std::uint64_t run_seed,
                                            std::size_t index) const {
    const std::uint64_t seed = splitmix64(run_seed ^ splitmix64(index + 1));
    std::vector<SimConfig> out;
    if (name_ == "paper_table2") {
      SimConfig cfg = paper_;
      if (short_) cfg.sim_duration = days(8.0);
      out.push_back(cfg);
    } else if (name_ == "dispatch_stress") {
      for (const char* scheme : {"greedy", "partition", "combined"}) {
        SimConfig cfg = stressed_config(2000, short_ ? 3.0 : 24.0);
        cfg.scheduler = scheme;
        out.push_back(cfg);
      }
    } else {
      out.push_back(stressed_config(100000, short_ ? 0.1 : 1.8));
    }
    for (SimConfig& cfg : out) {
      cfg.seed = seed;
      cfg.threads = 1;  // ROADMAP: intra-replica threads gave 0.85-1.03x
      // The benchmark measures the fault-free paper model; fault events
      // would also fall outside the traced event kinds.
      if (cfg.fault.enabled) throw std::logic_error("workload enables faults");
    }
    return out;
  }

 private:
  std::string name_;
  bool short_;
  SimConfig paper_;
};

// ---------------------------------------------------------------------------
// Correctness gate (public accessors only).
// ---------------------------------------------------------------------------

std::vector<double> battery_levels(const World& w) {
  std::vector<double> out;
  out.reserve(w.network().num_sensors());
  for (const Sensor& s : w.network().sensors()) out.push_back(s.battery.level().value());
  return out;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// The identities and tolerances of tests/test_properties.cpp, plus finite
// report fields (JsonWriter writes a non-finite double as null).
void check_invariants(const World& w, const MetricsReport& r,
                      const std::string& report_json) {
  const SimConfig& cfg = w.config();
  require(report_json.find("null") == std::string::npos,
          "non-finite field in report " + report_json);

  double rv_residual = 0.0;
  for (const Rv& rv : w.rvs()) rv_residual += rv.battery.level().value();
  const double rv_initial =
      cfg.rv.capacity.value() * static_cast<double>(cfg.num_rvs);
  const double rv_lhs =
      r.rv_travel_energy.value() + r.energy_recharged.value() + rv_residual;
  const double rv_rhs = rv_initial + r.rv_base_energy_drawn.value();
  require(std::isfinite(rv_lhs) &&
              std::abs(rv_lhs - rv_rhs) <= 1e-6 * (1.0 + rv_rhs),
          "RV energy not conserved");

  double levels = 0.0;
  for (const double l : battery_levels(w)) {
    require(std::isfinite(l), "non-finite sensor battery level");
    levels += l;
  }
  const double lhs = cfg.battery.capacity.value() * static_cast<double>(cfg.num_sensors) +
                     r.energy_recharged.value();
  const double rhs = levels + w.sensor_energy_consumed().value();
  require(std::isfinite(rhs) && std::abs(lhs - rhs) <= 1e-6 * (1.0 + lhs),
          "sensor energy not conserved");
}

struct Outcome {
  std::string report_json;
  std::vector<double> batteries;
  std::uint64_t events = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome checked_outcome(const World& w) {
  const MetricsReport r = w.report();
  Outcome out{to_json(r), battery_levels(w), w.events_processed()};
  check_invariants(w, r, out.report_json);
  return out;
}

// One untraced replica: construction (setup) and run_until timed apart.
struct PlainRun {
  std::vector<double> setup_s;
  std::int64_t run_ns = 0;
  Outcome outcome;
};

// Construction is timed `setup_reps` times and the last world is run; each
// extra world is destroyed before the next is built, so peak RSS still
// holds one world.
PlainRun run_plain(const SimConfig& cfg, int setup_reps,
                   WorldEngine engine = WorldEngine::kIncremental) {
  PlainRun out;
  for (int i = 1; i < setup_reps; ++i) {
    const auto t0 = Clock::now();
    const World w(cfg, engine);
    out.setup_s.push_back(seconds(Clock::now() - t0));
  }
  const auto t0 = Clock::now();
  World w(cfg, engine);
  const auto t1 = Clock::now();
  w.run_until(cfg.sim_duration);
  const auto t2 = Clock::now();
  out.setup_s.push_back(seconds(t1 - t0));
  out.run_ns = nanos(t2 - t1);
  out.outcome = checked_outcome(w);
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: per-event-kind self time from a tracer callback, telemetry
// counters and scheduler scopes, snapshot save/restore at the horizon.
// ---------------------------------------------------------------------------

constexpr std::array<EventKind, 7> kTracedKinds = {
    EventKind::kSlotRotation,  EventKind::kTargetMove,
    EventKind::kSensorCrossing, EventKind::kRvArrival,
    EventKind::kRvChargeDone,  EventKind::kRvBaseChargeDone,
    EventKind::kMetricsSample};
constexpr std::array<EventKind, 3> kLatencyKinds = {
    EventKind::kTargetMove, EventKind::kSensorCrossing, EventKind::kRvChargeDone};
constexpr std::array<const char*, 6> kScopes = {
    "planner/greedy",       "planner/ctx_greedy", "planner/ctx_insertion",
    "tsp/nearest-neighbor", "planner/partition",  "kmeans/lloyd"};
// Scopes whose time is a per-layer metric: the first four, which every
// workload enters. planner/partition and kmeans/lloyd run only under the
// partition scheme (dispatch_stress); a time that reads exactly 0 on every
// run of the other workloads looks like a stuck clock, so their times are
// reported per scheme in detail.by_scheduler and only their calls here.
constexpr std::size_t kTimedScopes = 4;

// Sums over the traced replicas of one scheduler (or of the whole run).
struct Ledger {
  std::size_t replicas = 0;
  std::array<std::int64_t, kNumEventKinds> self_ns{};
  std::array<std::uint64_t, kNumEventKinds> count{};
  std::int64_t untraced_ns = 0;  // horizon settle after the last event
  std::int64_t traced_ns = 0;    // traced run_until, whole call
  std::int64_t plain_ns = 0;     // the untraced twin's run_until
  std::uint64_t popped = 0;
  std::uint64_t stale = 0;
  std::uint64_t settlements = 0;
  std::uint64_t drain_updates = 0;
  double queue_high_water = 0.0;  // max, not sum
  std::uint64_t teleport_moves = 0;
  std::array<std::uint64_t, kScopes.size()> scope_calls{};
  std::array<double, kScopes.size()> scope_s{};

  void add(const Ledger& o) {
    replicas += o.replicas;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      self_ns[k] += o.self_ns[k];
      count[k] += o.count[k];
    }
    untraced_ns += o.untraced_ns;
    traced_ns += o.traced_ns;
    plain_ns += o.plain_ns;
    popped += o.popped;
    stale += o.stale;
    settlements += o.settlements;
    drain_updates += o.drain_updates;
    queue_high_water = std::max(queue_high_water, o.queue_high_water);
    teleport_moves += o.teleport_moves;
    for (std::size_t i = 0; i < kScopes.size(); ++i) {
      scope_calls[i] += o.scope_calls[i];
      scope_s[i] += o.scope_s[i];
    }
  }
};

struct TraceSamples {
  std::array<std::vector<double>, kLatencyKinds.size()> event_us;
  std::vector<double> snapshot_save_s;
  std::vector<double> snapshot_restore_s;
  std::vector<double> snapshot_bytes;
};

// Timed replays of the setup layers on a freshly constructed world's
// initial network, each checked against the state the World built.
struct Replays {
  std::vector<double> deploy_s;
  std::vector<double> graph_s;
  std::vector<double> routing_build_s;
  std::vector<double> traffic_register_us;
  std::vector<double> cluster_full_us;
};

constexpr int kReplayReps = 5;

void replay_layers(const SimConfig& cfg, const World& w, Replays& out) {
  const Network& net = w.network();
  const std::size_t n = cfg.num_sensors;
  const double side = cfg.field_side.value();
  const Vec2 bs{side / 2.0, side / 2.0};
  std::vector<Vec2> target_pos;
  for (const Target& t : net.targets()) target_pos.push_back(t.pos);
  const std::vector<bool> alive(n, true);  // construction: nobody has died
  const auto router = RoutingRegistry::instance().create(cfg.routing);
  const double rate_pps = cfg.data_rate_pkt_per_min / 60.0;
  // The timed traffic replay is World::recluster()'s: drop every flow, then
  // re-add each monitor's, so the model starts out holding them.
  TrafficModel traffic(n);
  traffic.set_link_model(cfg.link, cfg.comm_range.value());
  const auto register_monitors = [&](const RouteView& routes) {
    traffic.clear_sources();
    for (TargetId t = 0; t < net.num_targets(); ++t) {
      const SensorId m = w.active_monitor(t);
      if (m != kInvalidId) traffic.add_source(routes, m, rate_pps);
    }
  };
  register_monitors(net.routing());

  for (int rep = 0; rep < kReplayReps; ++rep) {
    Xoshiro256 deploy_rng = RngStreams(cfg.seed).stream("deployment");
    auto t0 = Clock::now();
    const std::vector<Vec2> pos = deploy_uniform(n, side, deploy_rng);
    auto t1 = Clock::now();
    out.deploy_s.push_back(seconds(t1 - t0));

    t0 = Clock::now();
    const CommGraph graph(pos, bs, cfg.comm_range.value());
    t1 = Clock::now();
    out.graph_s.push_back(seconds(t1 - t0));

    std::vector<Vec2> nodes = pos;
    nodes.push_back(bs);
    RouteTable routes;
    t0 = Clock::now();
    router->build(RoutingBuildInput{&graph, &nodes, &alive}, routes);
    t1 = Clock::now();
    out.routing_build_s.push_back(seconds(t1 - t0));

    t0 = Clock::now();
    register_monitors(routes);
    t1 = Clock::now();
    out.traffic_register_us.push_back(1e6 * seconds(t1 - t0));

    t0 = Clock::now();
    const ClusterSet clusters =
        balanced_clustering(pos, target_pos, cfg.sensing_range.value(), alive);
    t1 = Clock::now();
    out.cluster_full_us.push_back(1e6 * seconds(t1 - t0));

    if (rep > 0) continue;
    for (SensorId s = 0; s < n; ++s) {
      require(pos[s] == net.sensor(s).pos, "deploy_uniform replay differs");
      require(traffic.tx_rate(s) == w.traffic().tx_rate(s) &&
                  traffic.rx_rate(s) == w.traffic().rx_rate(s),
              "traffic registration replay differs");
    }
    require(graph.num_edges() == net.graph().num_edges(), "CommGraph replay differs");
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      require(routes.next_hop(v) == net.routing().next_hop(v),
              "routing replay differs");
    }
    require(clusters.assignment == w.clusters().assignment,
            "balanced_clustering replay differs");
  }
}

Ledger run_traced(const SimConfig& cfg, const PlainRun& plain, TraceSamples& samples,
                  Replays* replays) {
  Ledger l;
  l.replicas = 1;
  l.plain_ns = plain.run_ns;
  obs::TelemetryRegistry registry;
  World w(cfg, WorldEngine::kIncremental);
  if (replays != nullptr) replay_layers(cfg, w, *replays);
  w.set_telemetry(&registry);

  std::array<std::vector<double>*, kNumEventKinds> keep{};
  for (std::size_t i = 0; i < kLatencyKinds.size(); ++i) {
    keep[static_cast<std::size_t>(kLatencyKinds[i])] = &samples.event_us[i];
  }
  Clock::time_point last;
  w.set_tracer([&](const World::TraceEvent& ev) {
    const Clock::time_point now = Clock::now();
    const std::int64_t d = nanos(now - last);
    last = now;
    const auto k = static_cast<std::size_t>(ev.kind);
    l.self_ns[k] += d;
    ++l.count[k];
    if (keep[k] != nullptr) keep[k]->push_back(static_cast<double>(d) * 1e-3);
  });
  const Clock::time_point start = Clock::now();
  last = start;
  w.run_until(cfg.sim_duration);
  const Clock::time_point end = Clock::now();
  w.set_tracer(nullptr);
  w.set_telemetry(nullptr);
  l.untraced_ns = nanos(end - last);
  l.traced_ns = nanos(end - start);

  // Heisenberg rule: the observers must not change the physics.
  const Outcome traced = checked_outcome(w);
  require(traced == plain.outcome, "traced run differs from the untraced run");

  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    l.popped += registry.counter(std::string("events/popped/") + kind_name(kind)).value();
    if (l.count[k] != 0 &&
        std::find(kTracedKinds.begin(), kTracedKinds.end(), kind) == kTracedKinds.end()) {
      throw std::runtime_error(std::string("unexpected event kind ") + kind_name(kind));
    }
  }
  require(l.popped == w.events_processed(), "telemetry pop count != events processed");
  l.stale = registry.counter("events/stale-discarded").value();
  l.settlements = registry.counter("world/battery-settlements").value();
  l.drain_updates = registry.counter("world/drain-updates").value();
  l.queue_high_water = registry.gauge("events/queue-high-water").value();
  if (cfg.target_motion == TargetMotion::kTeleport) {
    l.teleport_moves = l.count[static_cast<std::size_t>(EventKind::kTargetMove)];
  }
  // Exact sum/count, not the 1 us-floored histogram buckets.
  for (std::size_t i = 0; i < kScopes.size(); ++i) {
    const obs::Histogram& h = registry.timer(kScopes[i]);
    l.scope_calls[i] = h.count();
    l.scope_s[i] = h.sum();
  }

  const auto s0 = Clock::now();
  const std::string bytes = serialize_snapshot(w.checkpoint());
  const auto s1 = Clock::now();
  const World restored(deserialize_snapshot(bytes));
  const auto s2 = Clock::now();
  require(checked_outcome(restored) == plain.outcome,
          "restored snapshot differs from the run it was taken from");
  samples.snapshot_save_s.push_back(seconds(s1 - s0));
  samples.snapshot_restore_s.push_back(seconds(s2 - s1));
  samples.snapshot_bytes.push_back(static_cast<double>(bytes.size()));
  return l;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    std::array<unsigned int, 12> regs{};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs.data(), 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::uint64_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::uint64_t>(CPU_COUNT(&set));
}

// High-water RSS of this process image. getrusage's ru_maxrss is not used:
// Linux carries it across exec, so it would report the launching Python
// interpreter's footprint whenever that is the larger of the two.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool short_mode = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--short") {
      a.short_mode = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
      have_seed = true;
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a.trace = std::stoi(argv[++i]);
    } else {
      throw std::invalid_argument("unknown or incomplete option '" + k + "'");
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: wrsn_e2e --workload NAME --seed N --seconds S --trace 0|1 [--short]");
  }
  return a;
}

// Replica failures are counted here; anything thrown out of run() is a
// usage or environment error.
int run(const Args& args) {
  // What is measured is pinned: these switch engines, queues or threading.
  for (const char* var : {"WRSN_REFERENCE_WORLD", "WRSN_REFERENCE_PLANNERS",
                          "WRSN_EVENT_QUEUE", "WRSN_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      throw std::invalid_argument(std::string(var) + " is set; unset it to benchmark");
    }
  }
  const Workload workload(args.workload, args.short_mode);

  const bool traced = args.trace == 1;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::size_t units = 0;
  std::size_t reference_checked = 0;
  std::size_t replicas_ok = 0;
  std::vector<double> setup_samples;
  std::int64_t run_ns = 0;
  double sim_days = 0.0;
  std::uint64_t events = 0;
  // Simulated days per run_until second of each fully passing unit. Their
  // median, not the pooled ratio, is reported, so a host slowdown that hits
  // a minority of the units in a run does not move the figure.
  std::vector<double> unit_rates;
  Ledger total;
  std::map<std::string, Ledger> by_scheduler;
  TraceSamples samples;
  Replays replays;

  const auto begin = Clock::now();
  do {
    std::int64_t unit_ns = 0;
    double unit_days = 0.0;
    const std::size_t failed_before = failed;
    for (const SimConfig& cfg : workload.unit(args.seed, units)) {
      ++attempted;
      try {
        // A small world builds in about a millisecond, so it is built several
        // times for a steady setup median; the n=100000 one takes ~0.2 s.
        const PlainRun plain = run_plain(cfg, cfg.num_sensors <= 2000 ? 9 : 2);
        if (args.short_mode && cfg.num_sensors <= 2000) {
          SimConfig ref_cfg = cfg;
          ref_cfg.event_queue = "heap";
          const PlainRun ref = run_plain(ref_cfg, 1, WorldEngine::kReference);
          require(ref.outcome == plain.outcome,
                  "incremental engine differs from the reference engine");
          ++reference_checked;
        }
        if (traced) {
          // Setup replays run once, on the first traced replica's network.
          const Ledger l = run_traced(cfg, plain, samples,
                                      replays.deploy_s.empty() ? &replays : nullptr);
          total.add(l);
          by_scheduler[cfg.scheduler].add(l);
        }
        setup_samples.insert(setup_samples.end(), plain.setup_s.begin(),
                             plain.setup_s.end());
        ++replicas_ok;
        unit_ns += plain.run_ns;
        unit_days += cfg.sim_duration.value() / 86400.0;
        events += plain.outcome.events;
      } catch (const std::exception& e) {
        ++failed;
        failures.push_back(cfg.scheduler + " seed " + std::to_string(cfg.seed) +
                           ": " + e.what());
        std::cerr << "wrsn_e2e: replica failed: " << failures.back() << '\n';
      }
    }
    if (failed == failed_before) unit_rates.push_back(unit_days / seconds(unit_ns));
    run_ns += unit_ns;
    sim_days += unit_days;
    ++units;
  } while (!args.short_mode && seconds(Clock::now() - begin) < args.seconds);
  const double wall_s = seconds(Clock::now() - begin);

  // Self times plus the horizon settle telescope to the traced run_until
  // time exactly (integer nanoseconds); anything else is a tracing bug.
  std::int64_t self_sum = total.untraced_ns;
  for (const std::int64_t ns : total.self_ns) self_sum += ns;
  if (self_sum != total.traced_ns) {
    failures.push_back("per-kind self times do not add up to run_until");
    failed = attempted;
  }

  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::vector<Metric> metrics;
  if (!traced) {
    metrics.push_back({"sim_days_per_s", median(unit_rates), "day/s"});
    metrics.push_back({"setup_s", median(setup_samples), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    // Per-layer sums are reported per traced replica so runs that fit a
    // different number of replicas into --seconds stay comparable.
    const double reps = std::max<double>(1.0, static_cast<double>(total.replicas));
    for (const EventKind kind : kTracedKinds) {
      const auto k = static_cast<std::size_t>(kind);
      const std::string base = std::string("sim.") + kind_name(kind);
      metrics.push_back({base + ".count", static_cast<double>(total.count[k]) / reps, "count"});
      metrics.push_back({base + ".self_s", seconds(total.self_ns[k]) / reps, "s"});
    }
    for (std::size_t i = 0; i < kLatencyKinds.size(); ++i) {
      const std::string base = std::string("sim.") + kind_name(kLatencyKinds[i]);
      metrics.push_back({base + ".p50_us", percentile(samples.event_us[i], 0.50), "us"});
      metrics.push_back({base + ".p99_us", percentile(samples.event_us[i], 0.99), "us"});
    }
    const double traced_s = seconds(total.traced_ns);
    const double pops = static_cast<double>(total.popped + total.stale);
    metrics.push_back({"sim.untraced_s", seconds(total.untraced_ns) / reps, "s"});
    metrics.push_back({"sim.events_per_s",
                       traced_s > 0.0 ? static_cast<double>(total.popped) / traced_s : 0.0,
                       "1/s"});
    metrics.push_back({"sim.stale_ratio",
                       pops > 0.0 ? static_cast<double>(total.stale) / pops : 0.0, "ratio"});
    metrics.push_back({"sim.queue_high_water", total.queue_high_water, "count"});
    metrics.push_back({"sim.settlements", static_cast<double>(total.settlements) / reps, "count"});
    metrics.push_back({"sim.drain_updates", static_cast<double>(total.drain_updates) / reps, "count"});

    const double cluster_us = median(replays.cluster_full_us);
    const double plain_s = seconds(total.plain_ns);
    metrics.push_back({"activity.cluster_full_us", cluster_us, "us"});
    // Computed, not measured: one full Algorithm 1 pass at construction plus
    // one per teleport move, against the untraced run_until time.
    metrics.push_back(
        {"activity.cluster_full_share",
         plain_s > 0.0 ? (static_cast<double>(total.teleport_moves) + reps) *
                             cluster_us * 1e-6 / plain_s
                       : 0.0,
         "ratio"});
    metrics.push_back({"net.deploy_s", median(replays.deploy_s), "s"});
    metrics.push_back({"net.graph_s", median(replays.graph_s), "s"});
    metrics.push_back({"net.routing_build_s", median(replays.routing_build_s), "s"});
    metrics.push_back({"net.traffic_register_us", median(replays.traffic_register_us), "us"});
    for (std::size_t i = 0; i < kScopes.size(); ++i) {
      std::string scope = kScopes[i];
      std::replace(scope.begin(), scope.end(), '/', '.');
      metrics.push_back({"sched." + scope + ".calls",
                         static_cast<double>(total.scope_calls[i]) / reps, "count"});
      if (i < kTimedScopes) {
        metrics.push_back({"sched." + scope + ".s", total.scope_s[i] / reps, "s"});
      }
    }
    metrics.push_back({"snapshot.save_s", median(samples.snapshot_save_s), "s"});
    metrics.push_back({"snapshot.bytes", median(samples.snapshot_bytes), "bytes"});
    metrics.push_back({"snapshot.restore_s", median(samples.snapshot_restore_s), "s"});
    metrics.push_back({"obs.trace_overhead", plain_s > 0.0 ? traced_s / plain_s - 1.0 : 0.0,
                       "ratio"});
    metrics.push_back({"failed_frac", failed_frac, "fraction"});
  }

  JsonWriter out;
  out.begin_object()
      .field("schema", "wrsn.e2e.v1")
      .field("workload", args.workload)
      .field("seed", args.seed)
      .field("trace", static_cast<std::int64_t>(args.trace))
      .field("short", args.short_mode)
      .key("fingerprint")
      .begin_object()
      .field("compiler", WRSN_E2E_COMPILER)
      .field("build_type", WRSN_E2E_BUILD_TYPE)
      .field("nproc", nproc())
      .field("cpu_model", cpu_model())
      .end_object()
      .field("attempted", static_cast<std::uint64_t>(attempted))
      .field("failed", static_cast<std::uint64_t>(failed))
      .field("failed_frac", failed_frac)
      .key("failures")
      .begin_array();
  for (const std::string& f : failures) out.value(f);
  out.end_array()
      .key("metrics")
      .begin_object();
  for (const Metric& m : metrics) {
    out.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  out.end_object()
      .key("detail")
      .begin_object()
      .field("units", static_cast<std::uint64_t>(units))
      .field("replicas_ok", static_cast<std::uint64_t>(replicas_ok))
      .field("setup_samples", static_cast<std::uint64_t>(setup_samples.size()))
      .field("reference_checked", static_cast<std::uint64_t>(reference_checked))
      .field("events", events)
      .field("sim_days", sim_days)
      .field("run_until_s", seconds(run_ns))
      .field("wall_s", wall_s)
      .key("unit_sim_days_per_s")
      .begin_array();
  for (const double r : unit_rates) out.value(r);
  out.end_array();
  if (traced) {
    out.field("traced_run_until_s", seconds(total.traced_ns))
        .field("self_plus_untraced_s", seconds(self_sum))
        .field("replay_reps", static_cast<std::int64_t>(kReplayReps))
        .key("by_scheduler")
        .begin_object();
    for (const auto& [name, l] : by_scheduler) {
      out.key(name).begin_object().field("replicas", static_cast<std::uint64_t>(l.replicas));
      for (const EventKind kind : kTracedKinds) {
        out.field(std::string(kind_name(kind)) + ".self_s",
                  seconds(l.self_ns[static_cast<std::size_t>(kind)]));
      }
      for (std::size_t i = 0; i < kScopes.size(); ++i) {
        out.field(std::string(kScopes[i]) + ".s", l.scope_s[i]);
      }
      out.end_object();
    }
    out.end_object();
  }
  out.end_object().end_object();
  std::cout << out.str() << '\n';
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "wrsn_e2e: " << e.what() << '\n';
    return 2;
  }
}
