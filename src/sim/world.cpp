#include "sim/world.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "activity/erp.hpp"
#include "core/error.hpp"
#include "net/deployment.hpp"

namespace wrsn {

namespace {
// Scheduled crossings overshoot by this much so the crossing condition is
// strictly satisfied at the handler despite floating-point residue.
constexpr double kTimeEps = 1e-6;

// "events/popped/<kind>" for every kind, assembled once per process so
// set_telemetry (called once per replica in sweeps) does no string work.
const std::array<std::string, kNumEventKinds>& popped_counter_names() {
  static const std::array<std::string, kNumEventKinds> names = [] {
    std::array<std::string, kNumEventKinds> out;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      out[k] = std::string("events/popped/") + kind_name(static_cast<EventKind>(k));
    }
    return out;
  }();
  return names;
}
}  // namespace

WorldEngine world_default_engine() {
  const char* env = std::getenv("WRSN_REFERENCE_WORLD");
  const bool reference =
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  return reference ? WorldEngine::kReference : WorldEngine::kIncremental;
}

World::World(const SimConfig& config) : World(config, world_default_engine()) {}

World::World(const SimConfig& config, WorldEngine engine)
    : config_(config),
      engine_(engine),
      streams_(config.seed),
      target_rng_(streams_.stream("targets")),
      sched_rng_(streams_.stream("scheduler")),
      net_([&] {
        config.validate();
        Xoshiro256 deploy = streams_.stream("deployment");
        Xoshiro256 placement = streams_.stream("target-placement");
        return Network(config, deploy, placement);
      }()),
      traffic_(config.num_sensors) {
  end_ = config_.sim_duration.value();
  // Re-seat the queue on the configured implementation (the default member
  // construction already consulted WRSN_EVENT_QUEUE; an explicit config key
  // overrides it). Nothing has been pushed yet, so this is a plain swap.
  queue_ = EventQueue(event_queue_impl_from_name(config_.event_queue));

  if (config_.fault.enabled) fault_ = std::make_unique<FaultInjector>(config_);
  uplink_epoch_.assign(config_.num_sensors, 0);
  uplink_attempt_.assign(config_.num_sensors, 0);
  uplink_pending_.assign(config_.num_sensors, UplinkPending::kNone);
  stranded_since_.assign(config_.num_sensors, -1.0);
  rv_breakdown_idx_.assign(config_.num_rvs, 0);
  breakdown_began_.assign(config_.num_rvs, -1.0);

  request_time_.assign(config_.num_sensors, -1.0);
  request_span_.assign(config_.num_sensors, 0);
  req_travel_accum_.assign(config_.num_sensors, 0.0);
  rv_tour_span_.assign(config_.num_rvs, 0);
  rv_leg_span_.assign(config_.num_rvs, 0);
  rv_breakdown_span_.assign(config_.num_rvs, 0);
  leg_began_.assign(config_.num_rvs, 0.0);
  charge_began_.assign(config_.num_rvs, 0.0);
  soa_.init(net_);
  covered_.assign(config_.num_targets, false);
  alive_members_.assign(config_.num_targets, 0);
  // Both engines collect dirty marks (cleared by either refresh flavour) so
  // switching engines never changes the traffic model's behaviour.
  drain_marks_.reset(config_.num_sensors);
  traffic_.set_touch_log(&drain_marks_);

  target_waypoint_.resize(config_.num_targets);
  target_dwelling_.assign(config_.num_targets, true);
  for (TargetId t = 0; t < config_.num_targets; ++t) {
    target_waypoint_[t] = net_.target(t).pos;  // first event picks a waypoint
  }

  rvs_.resize(config_.num_rvs);
  for (RvId r = 0; r < config_.num_rvs; ++r) {
    rvs_[r].id = r;
    rvs_[r].pos = net_.base_station();
    rvs_[r].battery = Battery(config_.rv.capacity);
  }
  // Throws with the registered names when config_.scheduler is unknown.
  policy_ = SchedulerRegistry::instance().create(config_.scheduler);

  // Cell size = sensing range, so candidate queries stay in a 3x3 block.
  target_index_.init(config_.field_side.value(), config_.sensing_range.value(),
                     current_target_positions());

  recluster(/*initial=*/true);

  // Round-robin handover ticks (only meaningful under the RR policy).
  if (config_.activation == ActivationPolicy::kRoundRobin) {
    queue_.push(config_.activation_slot.value(), EventKind::kSlotRotation);
  }
  // Stagger target relocations: each target's first move is uniform in
  // (0, period], then periodic.
  for (TargetId t = 0; t < config_.num_targets; ++t) {
    const double first = target_rng_.uniform(0.0, config_.target_period.value());
    queue_.push(first, EventKind::kTargetMove, t);
  }
  queue_.push(config_.metrics_sample_period.value(), EventKind::kMetricsSample);

  // Fault schedule: the plan's windows are fixed at construction, so the
  // events are pushed up front (unguarded; handlers check current state).
  // kRvRepaired is pushed by the breakdown handler instead, carrying the
  // post-breakdown epoch.
  if (fault_ != nullptr) {
    const FaultPlan& plan = fault_->plan();
    for (RvId r = 0; r < config_.num_rvs; ++r) {
      for (const FaultWindow& w : plan.rv_breakdowns(r)) {
        queue_.push(w.start, EventKind::kRvBreakdown, r);
      }
    }
    for (SensorId s = 0; s < config_.num_sensors; ++s) {
      for (const FaultWindow& w : plan.sensor_faults(s)) {
        queue_.push(w.start, EventKind::kSensorFaultStart, s);
        queue_.push(w.end, EventKind::kSensorFaultEnd, s);
      }
    }
  }
}

MetricsReport World::run() {
  run_until(Second{end_});
  return report();
}

void World::set_telemetry(obs::TelemetryRegistry* registry) {
  telemetry_ = registry;
  if (registry == nullptr) {
    pop_counters_.fill(nullptr);
    stale_counter_ = nullptr;
    settle_counter_ = nullptr;
    drain_update_counter_ = nullptr;
    fault_lost_counter_ = nullptr;
    fault_retried_counter_ = nullptr;
    fault_expired_counter_ = nullptr;
    fault_breakdown_counter_ = nullptr;
    fault_failover_counter_ = nullptr;
    fault_hw_fault_counter_ = nullptr;
    queue_hwm_gauge_ = nullptr;
    return;
  }
  const auto& names = popped_counter_names();
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    pop_counters_[k] = &registry->counter(names[k]);
  }
  stale_counter_ = &registry->counter("events/stale-discarded");
  settle_counter_ = &registry->counter("world/battery-settlements");
  drain_update_counter_ = &registry->counter("world/drain-updates");
  fault_lost_counter_ = &registry->counter("fault/requests-lost");
  fault_retried_counter_ = &registry->counter("fault/requests-retried");
  fault_expired_counter_ = &registry->counter("fault/requests-expired");
  fault_breakdown_counter_ = &registry->counter("fault/rv-breakdowns");
  fault_failover_counter_ = &registry->counter("fault/failover-reinjected");
  fault_hw_fault_counter_ = &registry->counter("fault/sensor-hw-faults");
  queue_hwm_gauge_ = &registry->gauge("events/queue-high-water");
  queue_hwm_gauge_->record_max(static_cast<double>(queue_hwm_));
  // Pre-register the scheduler timing scopes so an export always carries
  // them, even for schedulers that never enter a given path.
  for (const char* scope :
       {"planner/greedy", "planner/insertion", "kmeans/lloyd",
        "tsp/nearest-neighbor", "tsp/two-opt"}) {
    registry->timer(scope);
  }
}

void World::run_until(Second t_in) {
  // Install this world's registry (possibly null) on the running thread so
  // WRSN_OBS_SCOPE sites in the schedulers report here — and so a replica
  // without telemetry never leaks into a pool worker's previous installation.
  const obs::TelemetryScope obs_scope(telemetry_);
  const double t = std::min(t_in.value(), end_);
  if (t <= now_) return;  // past or current horizon: nothing to do
  while (!queue_.empty() && queue_.top().time <= t) {
    const Event ev = queue_.pop();
    queue_hwm_ = std::max(queue_hwm_, queue_.size() + 1);
    // Lazy invalidation: predicted events must match their subject's epoch.
    if (ev.kind == EventKind::kSensorCrossing &&
        ev.epoch != soa_.epoch[ev.subject]) {
      if (stale_counter_ != nullptr) stale_counter_->add();
      continue;
    }
    if ((ev.kind == EventKind::kRvArrival || ev.kind == EventKind::kRvChargeDone ||
         ev.kind == EventKind::kRvBaseChargeDone ||
         ev.kind == EventKind::kRvRepaired) &&
        ev.epoch != rvs_[ev.subject].epoch) {
      if (stale_counter_ != nullptr) stale_counter_->add();
      continue;
    }
    if (ev.kind == EventKind::kRequestUplink &&
        ev.epoch != uplink_epoch_[ev.subject]) {
      if (stale_counter_ != nullptr) stale_counter_->add();
      continue;
    }
    WRSN_DEBUG_ASSERT(ev.time + 1e-9 >= now_, "popped event older than now");
    advance_to(ev.time);
    handle(ev);
    ++events_processed_;
    if (pop_counters_[static_cast<std::size_t>(ev.kind)] != nullptr) {
      pop_counters_[static_cast<std::size_t>(ev.kind)]->add();
    }
    if (tracer_) tracer_({ev.time, ev.kind, ev.subject, ev.epoch, queue_.size()});
    if (trace_sink_ != nullptr || flight_ != nullptr) {
      obs::TraceRecord rec;
      rec.t = ev.time;
      rec.kind = kind_name(ev.kind);
      rec.subject = ev.subject;
      rec.epoch = ev.epoch;
      rec.queue_size = queue_.size();
      if (trace_sink_ != nullptr) trace_sink_->on_event(rec);
      if (flight_ != nullptr) flight_->record(rec);
    }
    // Checkpoint hook: the event is fully handled and now_ == ev.time, so
    // the world is at a quiescent instant. A true return stops the run
    // *before* the horizon settle/advance below — resuming with another
    // run_until (here or in a restored process) replays the remaining
    // events byte-identically, because no state beyond the processed prefix
    // has been touched.
    if (checkpoint_hook_ && checkpoint_hook_(*this)) return;
  }
  if (queue_hwm_gauge_ != nullptr) {
    queue_hwm_gauge_->record_max(static_cast<double>(queue_hwm_));
  }
  advance_to(t);
  // Public horizon: realize every battery at t so levels, alive counts and
  // the energy-conservation invariant are current for callers.
  settle_all_sensors();
  if (t >= end_) {
    finished_ = true;
    if (spans_ != nullptr && !spans_closed_) close_spans();
  }
}

void World::close_spans() {
  spans_closed_ = true;
  // Deterministic close order (sensors ascending, then per-RV leg/breakdown/
  // tour) keeps span files byte-stable across runs.
  for (SensorId s = 0; s < request_span_.size(); ++s) {
    if (request_span_[s] == 0) continue;
    const char* outcome = net_.sensor(s).alive() ? "unserved" : "died-waiting";
    spans_->end(request_span_[s], now_, outcome);
    request_span_[s] = 0;
  }
  for (RvId r = 0; r < rvs_.size(); ++r) {
    if (rv_leg_span_[r] != 0) {
      spans_->end(rv_leg_span_[r], now_, "sim-end");
      rv_leg_span_[r] = 0;
    }
    if (rv_breakdown_span_[r] != 0) {
      spans_->end(rv_breakdown_span_[r], now_, "sim-end");
      rv_breakdown_span_[r] = 0;
    }
    if (rv_tour_span_[r] != 0) {
      spans_->end(rv_tour_span_[r], now_, "sim-end");
      rv_tour_span_[r] = 0;
    }
  }
}

void World::inject_sensor_failure(SensorId s) {
  const obs::TelemetryScope obs_scope(telemetry_);  // dispatch() runs planners
  WRSN_REQUIRE(s < net_.num_sensors(), "sensor id out of range");
  settle_sensor(s);
  if (!soa_.alive(s)) return;  // already down (or death pending its event)
  sensor_energy_consumed_ += soa_.level[s];
  soa_.level[s] = 0.0;
  net_.sensor(s).battery.set_level(Joule{0.0});
  on_sensor_alive_changed(s, false);
  invalidate_crossing(s);
  handle_death(s);
  dispatch();
}

MetricsReport World::report() const { return metrics_.finalize(Second{now_}); }

void World::handle(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kSlotRotation: on_slot_rotation(); break;
    case EventKind::kTargetMove: on_target_move(ev.subject); break;
    case EventKind::kSensorCrossing: on_sensor_crossing(ev.subject); break;
    case EventKind::kRvArrival: on_rv_arrival(ev.subject); break;
    case EventKind::kRvChargeDone: on_rv_charge_done(ev.subject); break;
    case EventKind::kRvBaseChargeDone: on_rv_base_charge_done(ev.subject); break;
    case EventKind::kMetricsSample:
      record_sample();
      queue_.push(now_ + config_.metrics_sample_period.value(),
                  EventKind::kMetricsSample);
      break;
    case EventKind::kRequestUplink: on_request_uplink(ev.subject); break;
    case EventKind::kRvBreakdown: on_rv_breakdown(ev.subject); break;
    case EventKind::kRvRepaired: on_rv_repaired(ev.subject); break;
    case EventKind::kSensorFaultStart: on_sensor_fault_start(ev.subject); break;
    case EventKind::kSensorFaultEnd: on_sensor_fault_end(ev.subject); break;
    case EventKind::kSimEnd: break;
  }
}

// ---------------------------------------------------------------------------
// Continuous state
// ---------------------------------------------------------------------------

void World::advance_to(double t) {
  WRSN_ASSERT(t + 1e-9 >= now_, "time went backwards");
  if (t <= now_) return;
  const double dt = t - now_;
  metrics_.advance(Second{dt}, engine_ == WorldEngine::kReference
                                   ? snapshot_scan()
                                   : snapshot_counters());
  now_ = t;
}

void World::settle_sensor(SensorId s) {
  double& last = soa_.last_settle[s];
  if (now_ <= last) return;
  const double dt = now_ - last;
  last = now_;
  if (soa_.drain[s] <= 0.0) return;
  // Bit-exact replica of Battery::drain's clamp, run over the packed arrays;
  // the resulting level is mirrored back into the Network battery so every
  // external reader (planners, metrics, tests) stays current.
  const double level = soa_.level[s];
  const bool was_alive = level > 0.0;
  const double drawn = std::min(soa_.drain[s] * dt, level);
  soa_.level[s] = level - drawn;
  sensor_energy_consumed_ += drawn;
  net_.sensor(s).battery.set_level(Joule{soa_.level[s]});
  WRSN_DEBUG_ASSERT(soa_.level[s] >= 0.0 && soa_.level[s] <= soa_.capacity[s],
                    "battery level escaped [0, capacity]");
  if (settle_counter_ != nullptr) settle_counter_->add();
  if (was_alive && soa_.level[s] <= 0.0) on_sensor_alive_changed(s, false);
}

void World::settle_all_sensors() {
  const std::size_t n = soa_.last_settle.size();
  for (SensorId s = 0; s < n; ++s) settle_sensor(s);
}

StateSnapshot World::snapshot() const {
  return engine_ == WorldEngine::kReference ? snapshot_scan()
                                            : snapshot_counters();
}

StateSnapshot World::snapshot_scan() const {
  StateSnapshot snap;
  snap.total_sensors = net_.num_sensors();
  snap.alive_sensors = net_.alive_count();
  snap.delivery_rate_pps = traffic_.delivery_rate();
  snap.offered_rate_pps = traffic_.offered_rate();
  snap.avg_delivery_hops = traffic_.average_delivery_hops();
  for (TargetId t = 0; t < net_.num_targets(); ++t) {
    if (!coverable_[t]) continue;
    ++snap.coverable_targets;
    bool covered = false;
    if (config_.activation == ActivationPolicy::kRoundRobin) {
      const SensorId m = active_monitor_[t];
      covered = m != kInvalidId && operational(m);
    } else {
      for (SensorId s : clusters_.members[t]) {
        if (operational(s)) {
          covered = true;
          break;
        }
      }
    }
    if (covered) ++snap.covered_targets;
  }
  return snap;
}

StateSnapshot World::snapshot_counters() const {
  StateSnapshot snap;
  snap.total_sensors = net_.num_sensors();
  snap.alive_sensors = alive_count_;
  snap.coverable_targets = coverable_count_;
  snap.covered_targets = covered_count_;
  snap.delivery_rate_pps = traffic_.delivery_rate();
  snap.offered_rate_pps = traffic_.offered_rate();
  snap.avg_delivery_hops = traffic_.average_delivery_hops();
  return snap;
}

Watt World::sensor_drain(SensorId s) const {
  const Sensor& sensor = net_.sensor(s);
  if (!sensor.alive()) return Watt{0.0};
  const Watt sensing = sensor.monitoring ? config_.sensing.active_power
                                         : config_.sensing.idle_power;
  const Watt self_discharge{config_.battery.self_discharge_per_day *
                            config_.battery.capacity.value() / 86400.0};
  Watt total = sensing + self_discharge + traffic_.radio_power(s, config_.radio);
  if (fault_ != nullptr) total += Watt{fault_->plan().extra_drain_w(s)};
  return total;
}

bool World::update_drain(SensorId s) {
  if (soa_.death_processed[s] == 0) {
    // A depleted — or depleting-within-this-instant — sensor whose death
    // crossing has not fired yet keeps its drain and epoch, so the pending
    // crossing stays valid and handle_death runs exactly once.
    if (!soa_.alive(s)) return false;
    if (soa_.drain[s] > 0.0 &&
        soa_.drain[s] * (now_ - soa_.last_settle[s]) >= soa_.level[s]) {
      return false;
    }
  }
  const double d = sensor_drain(s).value();
  if (d == soa_.drain[s]) return false;
  settle_sensor(s);  // integrate the old drain up to now before switching
  soa_.drain[s] = d;
  // Speculative crossings: replace the pending prediction only when the new
  // one is EARLIER. A prediction that moved later keeps its queued event,
  // which fires early, finds the level still above its target and simply
  // re-predicts (on_sensor_crossing's re-predict branch) — far cheaper at
  // scale than pushing a replacement on every drain change and popping the
  // stale majority later.
  const double when = crossing_prediction(s);
  if (when < soa_.crossing_time[s]) {
    ++soa_.epoch[s];
    soa_.crossing_time[s] = when;
    soa_.crossing_to_death[s] =
        soa_.level[s] <= config_.battery.threshold().value() ? 1 : 0;
    queue_.push(when, EventKind::kSensorCrossing, s, soa_.epoch[s]);
  }
  if (drain_update_counter_ != nullptr) drain_update_counter_->add();
  return true;
}

void World::refresh_drains() {
  const std::size_t n = soa_.drain.size();
  for (SensorId s = 0; s < n; ++s) update_drain(s);
  drain_marks_.clear();
}

void World::flush_drain_marks() {
  // Ascending-id order matches the reference full scan, so equal-time
  // crossings enqueue with identical tie-break sequence numbers. The set is
  // already duplicate-free (DirtySet dedupes at insert), so a plain sort of
  // the marked ids suffices.
  drain_marks_.sort_ids();
  for (const SensorId s : drain_marks_.ids()) update_drain(s);
  drain_marks_.clear();
}

void World::request_drain_refresh() {
  if (engine_ == WorldEngine::kReference) {
    refresh_drains();
  } else {
    flush_drain_marks();
  }
}

double World::crossing_prediction(SensorId s) const {
  const double level = soa_.level[s];
  if (level <= 0.0 || soa_.drain[s] <= 0.0) return kNoCrossing;
  const double threshold = config_.battery.threshold().value();
  const double target = level > threshold ? threshold : 0.0;
  const double dt = (level - target) / soa_.drain[s] + kTimeEps;
  const double when = now_ + dt;
  // Crossings past the simulation end are never popped (run_until clamps its
  // horizon to end_), so keeping them out of the queue trims both the push
  // cost and the cost of every later queue operation.
  return when > end_ ? kNoCrossing : when;
}

void World::schedule_crossing(SensorId s) {
  const double when = crossing_prediction(s);
  soa_.crossing_time[s] = when;
  if (when == kNoCrossing) return;
  soa_.crossing_to_death[s] =
      soa_.level[s] <= config_.battery.threshold().value() ? 1 : 0;
  queue_.push(when, EventKind::kSensorCrossing, s, soa_.epoch[s]);
}

// ---------------------------------------------------------------------------
// Derived-state accounting
// ---------------------------------------------------------------------------

void World::on_sensor_alive_changed(SensorId s, bool alive_now) {
  if (alive_now) {
    ++alive_count_;
  } else {
    --alive_count_;
  }
  const TargetId t = net_.sensor(s).assigned_target;
  if (t == kInvalidId) return;
  // alive_members_ counts operational members; a sensor inside a hardware
  // fault window was already removed at fault start and re-added at fault
  // end, so its death/revival must not adjust the count again.
  if (soa_.hw_fault[s] == 0) {
    if (alive_now) {
      ++alive_members_[t];
    } else {
      --alive_members_[t];
    }
  }
  recompute_covered(t);
}

void World::set_covered(TargetId t, bool v) {
  if (covered_[t] == v) return;
  covered_[t] = v;
  if (!coverable_[t]) return;
  if (v) {
    ++covered_count_;
  } else {
    --covered_count_;
  }
}

void World::set_coverable(TargetId t, bool v) {
  if (coverable_[t] == v) return;
  coverable_[t] = v;
  if (v) {
    ++coverable_count_;
    if (covered_[t]) ++covered_count_;
  } else {
    --coverable_count_;
    if (covered_[t]) --covered_count_;
  }
}

void World::recompute_covered(TargetId t) {
  bool cov = false;
  if (config_.activation == ActivationPolicy::kRoundRobin) {
    const SensorId m = active_monitor_[t];
    cov = m != kInvalidId && operational(m);
  } else {
    cov = alive_members_[t] > 0;
  }
  set_covered(t, cov);
}

void World::rebuild_counters() {
  std::size_t alive = 0;
  for (SensorId s = 0; s < net_.num_sensors(); ++s) {
    if (soa_.alive(s)) ++alive;
  }
  alive_count_ = alive;
  alive_members_.assign(net_.num_targets(), 0);
  for (SensorId s = 0; s < net_.num_sensors(); ++s) {
    const TargetId t = clusters_.assignment[s];
    if (t != kInvalidId && operational(s)) ++alive_members_[t];
  }
  coverable_count_ = 0;
  covered_count_ = 0;
  for (TargetId t = 0; t < net_.num_targets(); ++t) {
    if (coverable_[t]) ++coverable_count_;
    if (config_.activation == ActivationPolicy::kRoundRobin) {
      const SensorId m = active_monitor_[t];
      covered_[t] = m != kInvalidId && operational(m);
    } else {
      covered_[t] = alive_members_[t] > 0;
    }
    if (coverable_[t] && covered_[t]) ++covered_count_;
  }
}

// ---------------------------------------------------------------------------
// Activity management
// ---------------------------------------------------------------------------

double World::effective_erp() const {
  return config_.energy_request_control ? config_.energy_request_percentage : 0.0;
}

bool World::sensor_critical(SensorId s) const {
  const Sensor& sensor = net_.sensor(s);
  return !sensor.alive() || sensor.battery.fraction() < config_.critical_fraction;
}

std::vector<Vec2> World::current_target_positions() const {
  std::vector<Vec2> target_pos;
  target_pos.reserve(net_.num_targets());
  for (const Target& t : net_.targets()) target_pos.push_back(t.pos);
  return target_pos;
}

void World::recluster(bool initial) {
  // Tear down the previous activation state. clear_sources() marks every
  // old source and relay through the traffic touch log; a sensor whose
  // monitoring flag drops is marked here.
  traffic_.clear_sources();
  for (Sensor& s : net_.sensors()) {
    if (!s.monitoring) continue;
    s.monitoring = false;
    mark_drain_dirty(s.id);
  }

  // Algorithm 1. Reference engine: candidates by the O(M*N) distance scan
  // and coverability by a linear scan, kept as the oracle. Incremental
  // engine: one sensing-grid query per target gives both — P(t) is the
  // alive sensors it finds, and t is coverable when it finds any sensor
  // (the any_covering predicate). Both feed the same admission kernel.
  const std::size_t m = net_.num_targets();
  coverable_.assign(m, false);
  if (engine_ == WorldEngine::kReference) {
    std::vector<bool> alive(net_.num_sensors());
    for (SensorId s = 0; s < net_.num_sensors(); ++s) alive[s] = soa_.alive(s);
    // Sensor positions are static for the whole run, so the SoA block
    // doubles as the clustering input without a per-recluster copy.
    clusters_ = balanced_clustering(soa_.pos, current_target_positions(),
                                    config_.sensing_range.value(), alive);
    for (TargetId t = 0; t < m; ++t) {
      coverable_[t] = net_.any_covering_scan(net_.target(t).pos);
    }
  } else {
    admission_.reset(net_.num_sensors());
    for (TargetId t = 0; t < m; ++t) {
      bool any = false;
      net_.for_each_covering(net_.target(t).pos, [&](SensorId s) {
        any = true;
        if (soa_.alive(s)) admission_.add_candidate(s);
      });
      admission_.end_target();
      coverable_[t] = any;
    }
    admission_.admit(clusters_);
  }
  for (SensorId s = 0; s < net_.num_sensors(); ++s) {
    net_.sensor(s).assigned_target = clusters_.assignment[s];
  }

  rotors_.resize(m);
  active_monitor_.assign(m, kInvalidId);

  net_.rebuild_routing();

  const double rate_pps = config_.data_rate_pkt_per_min / 60.0;
  for (TargetId t = 0; t < m; ++t) {
    rotors_[t].reset(clusters_.members[t]);
    if (config_.activation == ActivationPolicy::kRoundRobin) {
      const SensorId first =
          rotors_[t].select_first([&](SensorId s) { return operational(s); });
      if (first != kInvalidId) {
        net_.sensor(first).monitoring = true;
        mark_drain_dirty(first);
        active_monitor_[t] = first;
        traffic_.add_source(net_.routing(), first, rate_pps);
      }
    } else {
      apply_full_time_activation(t);
    }
  }

  rebuild_counters();
  // Construction sets every drain for the first time: full scan. Later the
  // incremental engine flushes only the marked sensors — every monitoring
  // flip and every sensor whose traffic rates changed; all others keep
  // their drain, so update_drain would be a no-op for them.
  if (initial) {
    refresh_drains();
  } else {
    request_drain_refresh();
  }
  for (ClusterId c = 0; c < m; ++c) evaluate_cluster_requests(c);
  dispatch();
}

void World::recluster_moved_target(TargetId t, Vec2 old_pos) {
  const Vec2 new_pos = net_.target(t).pos;
  // Mirror the step into the target grid (maintained under both engines so
  // the index is always current; only the incremental engine queries it).
  target_index_.move(t, new_pos);

  // Dirty region: alive sensors within sensing range of either endpoint of
  // the step. Only their candidate sets can change — and only target t's
  // coverable bit, since sensor positions are static.
  std::vector<SensorId> dirty;
  if (engine_ == WorldEngine::kReference) {
    const double range = config_.sensing_range.value();
    const double r2 = range * range;
    for (SensorId s = 0; s < net_.num_sensors(); ++s) {
      if (!soa_.alive(s)) continue;
      if (squared_distance(soa_.pos[s], old_pos) <= r2 ||
          squared_distance(soa_.pos[s], new_pos) <= r2) {
        dirty.push_back(s);
      }
    }
  } else {
    net_.for_each_covering(old_pos, [&](SensorId s) {
      if (soa_.alive(s)) dirty.push_back(s);
    });
    net_.for_each_covering(new_pos, [&](SensorId s) {
      if (soa_.alive(s)) dirty.push_back(s);
    });
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  }

  set_coverable(t, engine_ == WorldEngine::kReference
                       ? net_.any_covering_scan(new_pos)
                       : net_.any_covering(new_pos));

  // Reference engine: candidate sets by full target scan (the original
  // code path, kept as the oracle). Incremental engine: same sets from the
  // target grid — the equivalence suite checks the runs stay byte-identical.
  RebalanceResult res;
  if (engine_ == WorldEngine::kReference) {
    const std::vector<Vec2> target_pos = current_target_positions();
    res = rebalance_dirty(
        clusters_, [this](SensorId s) { return soa_.pos[s]; }, target_pos,
        config_.sensing_range.value(), dirty);
  } else {
    cand_scratch_.resize(dirty.size());
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      target_index_.candidates(soa_.pos[dirty[i]],
                               config_.sensing_range.value(), cand_scratch_[i]);
    }
    res = rebalance_dirty(clusters_, cand_scratch_, dirty);
  }
  for (const RebalanceResult::Move& mv : res.moves) {
    net_.sensor(mv.sensor).assigned_target = mv.to;
  }
  apply_rebalance(res, res.affected);
  request_drain_refresh();
  dispatch();
}

void World::apply_rebalance(const RebalanceResult& res,
                            std::vector<TargetId> affected) {
  const double rate_pps = config_.data_rate_pkt_per_min / 60.0;
  for (const RebalanceResult::Move& mv : res.moves) {
    Sensor& sensor = net_.sensor(mv.sensor);
    if (mv.from != kInvalidId) {
      rotors_[mv.from].remove_member(mv.sensor);
      if (operational(mv.sensor)) --alive_members_[mv.from];
    }
    if (mv.to != kInvalidId) {
      rotors_[mv.to].add_member(mv.sensor);
      if (operational(mv.sensor)) ++alive_members_[mv.to];
    }
    if (config_.activation == ActivationPolicy::kFullTime &&
        operational(mv.sensor)) {
      const bool want = mv.to != kInvalidId;
      if (sensor.monitoring != want) {
        sensor.monitoring = want;
        if (want) {
          traffic_.add_source(net_.routing(), mv.sensor, rate_pps);
        } else if (traffic_.has_source(mv.sensor)) {
          traffic_.remove_source(mv.sensor);
        }
        mark_drain_dirty(mv.sensor);
      }
    }
  }

  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

  if (config_.activation == ActivationPolicy::kRoundRobin) {
    // First clear every monitor that is no longer an alive member of its
    // cluster — before reselecting, so a monitor that migrated clusters is
    // never cleared after its new cluster adopted it.
    for (const TargetId a : affected) {
      const SensorId m = active_monitor_[a];
      if (m == kInvalidId) continue;
      if (net_.sensor(m).assigned_target == a && operational(m)) continue;
      if (net_.sensor(m).monitoring) {
        net_.sensor(m).monitoring = false;
        if (traffic_.has_source(m)) traffic_.remove_source(m);
        mark_drain_dirty(m);
      }
      active_monitor_[a] = kInvalidId;
      recompute_covered(a);
    }
    for (const TargetId a : affected) {
      if (active_monitor_[a] != kInvalidId) continue;
      const SensorId next = rotors_[a].select_first(
          [&](SensorId id) { return operational(id); });
      if (next != kInvalidId) {
        set_monitor(a, next);
      } else {
        recompute_covered(a);
      }
    }
  } else {
    for (const TargetId a : affected) recompute_covered(a);
  }

  for (const TargetId a : affected) evaluate_cluster_requests(a);
}

void World::revive_membership(SensorId s) {
  RebalanceResult res;
  if (engine_ == WorldEngine::kReference) {
    const std::vector<Vec2> target_pos = current_target_positions();
    res = rebalance_dirty(
        clusters_, [this](SensorId id) { return soa_.pos[id]; }, target_pos,
        config_.sensing_range.value(), {s});
  } else {
    cand_scratch_.resize(1);
    target_index_.candidates(soa_.pos[s], config_.sensing_range.value(),
                             cand_scratch_[0]);
    res = rebalance_dirty(clusters_, cand_scratch_, {s});
  }
  for (const RebalanceResult::Move& mv : res.moves) {
    net_.sensor(mv.sensor).assigned_target = mv.to;
  }
  std::vector<TargetId> affected = res.affected;
  if (net_.sensor(s).assigned_target != kInvalidId) {
    affected.push_back(net_.sensor(s).assigned_target);
  }
  apply_rebalance(res, std::move(affected));
  // Full-time policy: a revived sensor that stayed in its old cluster was
  // deactivated at death; put it back on duty.
  Sensor& sensor = net_.sensor(s);
  if (config_.activation == ActivationPolicy::kFullTime &&
      sensor.assigned_target != kInvalidId && !sensor.monitoring &&
      soa_.hw_fault[s] == 0) {
    sensor.monitoring = true;
    traffic_.add_source(net_.routing(), s, config_.data_rate_pkt_per_min / 60.0);
    mark_drain_dirty(s);
    recompute_covered(sensor.assigned_target);
  }
}

void World::apply_full_time_activation(TargetId t) {
  const double rate_pps = config_.data_rate_pkt_per_min / 60.0;
  for (SensorId s : clusters_.members[t]) {
    if (!operational(s)) continue;
    net_.sensor(s).monitoring = true;
    mark_drain_dirty(s);
    traffic_.add_source(net_.routing(), s, rate_pps);
  }
}

void World::set_monitor(TargetId t, SensorId s) {
  const SensorId old = active_monitor_[t];
  if (old == s) return;
  if (old != kInvalidId) {
    net_.sensor(old).monitoring = false;
    if (traffic_.has_source(old)) traffic_.remove_source(old);
    mark_drain_dirty(old);
  }
  active_monitor_[t] = s;
  if (s != kInvalidId) {
    net_.sensor(s).monitoring = true;
    traffic_.add_source(net_.routing(), s, config_.data_rate_pkt_per_min / 60.0);
    mark_drain_dirty(s);
  }
  recompute_covered(t);
}

void World::on_slot_rotation() {
  for (TargetId t = 0; t < net_.num_targets(); ++t) {
    if (rotors_[t].empty()) continue;
    const SensorId next =
        rotors_[t].advance([&](SensorId s) { return operational(s); });
    set_monitor(t, next);
  }
  request_drain_refresh();
  queue_.push(now_ + config_.activation_slot.value(), EventKind::kSlotRotation);
}

void World::on_target_move(TargetId t) {
  if (config_.target_motion == TargetMotion::kTeleport) {
    net_.relocate_target(t, target_rng_);
    // recluster() rebuilds clusters from scratch, but the target grid still
    // needs the jump mirrored for later scoped queries (revive_membership).
    target_index_.move(t, net_.target(t).pos);
    recluster();
    queue_.push(now_ + config_.target_period.value(), EventKind::kTargetMove, t);
    return;
  }

  // Random waypoint: walk in straight segments of at most one target period
  // (clusters are refreshed per segment), dwell one period on arrival, then
  // pick the next waypoint.
  const Vec2 pos = net_.target(t).pos;
  const double dist = distance(pos, target_waypoint_[t]);
  if (dist < 1e-9) {
    if (!target_dwelling_[t]) {
      target_dwelling_[t] = true;  // arrived: rest for one period
      queue_.push(now_ + config_.target_period.value(), EventKind::kTargetMove, t);
      return;
    }
    target_dwelling_[t] = false;
    target_waypoint_[t] =
        random_location(config_.field_side.value(), target_rng_);
  }
  const Vec2 goal = target_waypoint_[t];
  const double leg = distance(pos, goal);
  const double speed = config_.target_speed.value();
  const double step_time = std::min(config_.target_period.value(), leg / speed);
  const Vec2 next =
      leg <= speed * step_time ? goal : lerp(pos, goal, speed * step_time / leg);
  net_.set_target_position(t, next);
  recluster_moved_target(t, pos);
  queue_.push(now_ + step_time, EventKind::kTargetMove, t);
}

void World::evaluate_cluster_requests(ClusterId c) {
  const auto& members = clusters_.members[c];
  if (members.empty()) return;
  std::size_t below = 0;
  for (SensorId s : members) {
    settle_sensor(s);  // decision point: thresholds compare current levels
    const Sensor& sensor = net_.sensor(s);
    if (!sensor.alive() || sensor.below_threshold(config_.battery.threshold_fraction)) {
      ++below;
    }
  }
  if (below < erp_trigger_count(members.size(), effective_erp())) return;
  for (SensorId s : members) {
    const Sensor& sensor = net_.sensor(s);
    if (!sensor.alive() || sensor.below_threshold(config_.battery.threshold_fraction)) {
      add_request(s);
    }
  }
}

void World::add_request(SensorId s) {
  settle_sensor(s);
  Sensor& sensor = net_.sensor(s);
  if (sensor.recharge_requested) return;
  sensor.recharge_requested = true;
  request_time_[s] = now_;
  req_travel_accum_[s] = 0.0;  // fresh lifecycle: restart the breakdown clock
  metrics_.on_request();
  if (spans_ != nullptr) {
    request_span_[s] = spans_->begin("request", s, "request", now_);
  }
  if (fault_ == nullptr) {
    deliver_request(s);
    return;
  }
  // Fresh uplink cycle: invalidate any stale retry event, then roll the
  // first attempt's verdict.
  ++uplink_epoch_[s];
  uplink_attempt_[s] = 0;
  uplink_pending_[s] = UplinkPending::kNone;
  attempt_uplink(s);
}

void World::deliver_request(SensorId s) {
  Sensor& sensor = net_.sensor(s);
  RechargeRequest request;
  request.sensor = s;
  request.cluster = sensor.assigned_target;
  request.pos = sensor.pos;
  request.demand = sensor.battery.demand();
  request.critical = sensor_critical(s);
  request.fraction = sensor.battery.fraction();
  requests_.add(std::move(request));
  if (spans_ != nullptr && request_span_[s] != 0) {
    spans_->mark(request_span_[s], "uplink-delivered", now_);
  }
}

bool World::attempt_uplink(SensorId s) {
  const FaultPlan& plan = fault_->plan();
  const std::uint64_t attempt = uplink_attempt_[s]++;
  const UplinkDecision d = plan.uplink(s, attempt);
  switch (d.outcome) {
    case UplinkOutcome::kDeliver:
      deliver_request(s);
      return true;
    case UplinkOutcome::kDelay:
      // The packet is in flight; it lands (and is delivered unconditionally)
      // when the event fires.
      metrics_.on_request_delayed();
      if (spans_ != nullptr && request_span_[s] != 0) {
        spans_->mark(request_span_[s], "uplink-delay", now_, "", d.delay_s);
      }
      uplink_pending_[s] = UplinkPending::kDeliver;
      queue_.push(now_ + d.delay_s, EventKind::kRequestUplink, s,
                  uplink_epoch_[s]);
      return false;
    case UplinkOutcome::kDrop:
      metrics_.on_request_lost();
      if (fault_lost_counter_ != nullptr) fault_lost_counter_->add();
      if (spans_ != nullptr && request_span_[s] != 0) {
        spans_->mark(request_span_[s], "uplink-drop", now_);
      }
      if (attempt >= plan.max_retries()) {
        expire_request(s);
        return false;
      }
      // TTL/backoff: the sensor notices the missing acknowledgement after
      // the timeout and re-sends; each drop doubles (by default) the wait.
      uplink_pending_[s] = UplinkPending::kRetry;
      queue_.push(now_ + plan.retry_delay_s(attempt), EventKind::kRequestUplink,
                  s, uplink_epoch_[s]);
      return false;
  }
  return false;
}

void World::expire_request(SensorId s) {
  Sensor& sensor = net_.sensor(s);
  WRSN_ASSERT(sensor.recharge_requested, "expiring a sensor with no request");
  WRSN_ASSERT(!requests_.contains(s), "expiring a delivered request");
  sensor.recharge_requested = false;
  request_time_[s] = -1.0;
  ++uplink_epoch_[s];
  uplink_pending_[s] = UplinkPending::kNone;
  metrics_.on_request_expired();
  if (fault_expired_counter_ != nullptr) fault_expired_counter_->add();
  if (spans_ != nullptr && request_span_[s] != 0) {
    spans_->end(request_span_[s], now_, "expired");
    request_span_[s] = 0;
  }
  // The cluster may re-fire a fresh request at the next ERP evaluation.
}

void World::on_request_uplink(SensorId s) {
  // The epoch guard in run_until discarded events from superseded cycles;
  // the remaining hazards (request satisfied, delivered) are re-checked
  // defensively because charge-done bumps the epoch only when fault_ is set.
  Sensor& sensor = net_.sensor(s);
  const UplinkPending pending = uplink_pending_[s];
  uplink_pending_[s] = UplinkPending::kNone;
  if (!sensor.recharge_requested || requests_.contains(s)) return;
  if (pending == UplinkPending::kDeliver) {
    deliver_request(s);
    dispatch();
    return;
  }
  if (pending == UplinkPending::kNone) return;  // stale safety net
  metrics_.on_request_retried();
  if (fault_retried_counter_ != nullptr) fault_retried_counter_->add();
  if (spans_ != nullptr && request_span_[s] != 0) {
    spans_->mark(request_span_[s], "uplink-retry", now_);
  }
  if (attempt_uplink(s)) dispatch();
}

void World::on_sensor_fault_start(SensorId s) {
  if (soa_.hw_fault[s] != 0) return;  // overlapping windows filtered in plan
  settle_sensor(s);
  soa_.hw_fault[s] = 1;
  metrics_.on_sensor_hw_fault();
  if (fault_hw_fault_counter_ != nullptr) fault_hw_fault_counter_->add();
  Sensor& sensor = net_.sensor(s);
  if (!sensor.alive()) return;  // fault on a dead node only matters on revive

  const TargetId t = sensor.assigned_target;
  if (t != kInvalidId) --alive_members_[t];
  if (sensor.monitoring) {
    sensor.monitoring = false;
    if (traffic_.has_source(s)) traffic_.remove_source(s);
    mark_drain_dirty(s);
  }
  if (t != kInvalidId && active_monitor_[t] == s) {
    // Mirror the death path: hand the slot to the next operational member.
    const SensorId next =
        rotors_[t].advance([&](SensorId id) { return operational(id); });
    active_monitor_[t] = kInvalidId;
    if (next != kInvalidId) {
      set_monitor(t, next);  // recomputes covered
    } else {
      // Cluster went dark; set_monitor(kInvalid -> kInvalid) would no-op, so
      // the coverage flag must be refreshed here (no alive transition fires
      // for a hardware fault, unlike the death path).
      recompute_covered(t);
    }
  } else if (t != kInvalidId) {
    recompute_covered(t);
  }
  request_drain_refresh();
}

void World::on_sensor_fault_end(SensorId s) {
  if (soa_.hw_fault[s] == 0) return;
  settle_sensor(s);
  soa_.hw_fault[s] = 0;
  Sensor& sensor = net_.sensor(s);
  if (!sensor.alive()) return;

  const TargetId t = sensor.assigned_target;
  if (t != kInvalidId) ++alive_members_[t];
  if (t != kInvalidId && config_.activation == ActivationPolicy::kFullTime &&
      !sensor.monitoring) {
    sensor.monitoring = true;
    traffic_.add_source(net_.routing(), s, config_.data_rate_pkt_per_min / 60.0);
    mark_drain_dirty(s);
  }
  if (t != kInvalidId && config_.activation == ActivationPolicy::kRoundRobin &&
      active_monitor_[t] == kInvalidId) {
    // The cluster went dark while this sensor was down; put it on duty now
    // instead of waiting for the next rotation tick.
    const SensorId next =
        rotors_[t].select_first([&](SensorId id) { return operational(id); });
    if (next != kInvalidId) set_monitor(t, next);
  }
  if (t != kInvalidId) recompute_covered(t);
  request_drain_refresh();
}

void World::on_sensor_crossing(SensorId s) {
  soa_.crossing_time[s] = kNoCrossing;  // the pending crossing just fired
  settle_sensor(s);
  Sensor& sensor = net_.sensor(s);
  if (!soa_.alive(s)) {
    handle_death(s);
    dispatch();
    return;
  }
  if (soa_.crossing_to_death[s] == 0 &&
      sensor.below_threshold(config_.battery.threshold_fraction)) {
    if (sensor.assigned_target == kInvalidId) {
      // Unclustered sensors follow the prior-work rule: request immediately.
      add_request(s);
    } else {
      evaluate_cluster_requests(sensor.assigned_target);
    }
    // Next stop: depletion.
    invalidate_crossing(s);
    schedule_crossing(s);
    dispatch();
  } else {
    // Speculative fire: the prediction moved later after this event was
    // queued (level still above threshold, or a death-targeted crossing
    // whose depletion receded). Re-predict without evaluating requests —
    // the threshold evaluation already ran at the genuine crossing.
    invalidate_crossing(s);
    schedule_crossing(s);
  }
}

void World::handle_death(SensorId s) {
  if (soa_.death_processed[s] != 0) return;
  soa_.death_processed[s] = 1;
  Sensor& sensor = net_.sensor(s);
  metrics_.on_sensor_death();
  invalidate_crossing(s);
  mark_drain_dirty(s);
  // Annotation, not a terminal end: an RV can still revive the node, in
  // which case the span ends "served"; if it never does, close_spans turns
  // the open span into the "died-waiting" terminal.
  if (spans_ != nullptr && request_span_[s] != 0) {
    spans_->mark(request_span_[s], "sensor-died", now_);
  }

  if (sensor.monitoring) {
    sensor.monitoring = false;
    if (traffic_.has_source(s)) traffic_.remove_source(s);
  }
  const TargetId t = sensor.assigned_target;
  if (t != kInvalidId && active_monitor_[t] == s) {
    const SensorId next =
        rotors_[t].advance([&](SensorId id) { return operational(id); });
    active_monitor_[t] = kInvalidId;  // force set_monitor to register anew
    set_monitor(t, next);
  } else if (t != kInvalidId) {
    recompute_covered(t);
  }

  // A dead relay changes the topology for everyone.
  if (net_.rebuild_routing()) traffic_.reroute(net_.routing());

  if (t == kInvalidId) {
    add_request(s);
  } else {
    evaluate_cluster_requests(t);
  }
  request_drain_refresh();
}

void World::record_sample() {
  if (!record_series_) return;
  const StateSnapshot snap = snapshot();
  TimeSeriesPoint p;
  p.t = now_;
  p.alive = snap.alive_sensors;
  p.covered = snap.covered_targets;
  p.coverable = snap.coverable_targets;
  p.pending_requests = requests_.size();
  p.rv_travel_distance = metrics_.rv_travel_distance().value();
  series_.push_back(p);
}

}  // namespace wrsn
