// RV dispatch and motion: the scheduling half of the World (Section IV).
#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "energy/charge_profile.hpp"
#include "sched/tsp.hpp"
#include "sim/world.hpp"

namespace wrsn {

Joule World::rv_reserve() const {
  return config_.rv.capacity * config_.rv.reserve_fraction;
}

const std::vector<RechargeItem>& World::unclaimed_items() {
  // Demands drift while requests wait; refresh the unclaimed ones so
  // planners see current values (the base station learns levels from status
  // reports). The item list lives in a reused scratch buffer: rebuilt every
  // call, valid until the next one.
  for (const RechargeRequest& r : requests_.requests()) {
    if (r.claimed) continue;
    settle_sensor(r.sensor);  // decision point: planners see current levels
    requests_.update(r.sensor, net_.sensor(r.sensor).battery.demand(),
                     sensor_critical(r.sensor),
                     net_.sensor(r.sensor).battery.fraction());
  }
  items_scratch_ = aggregate_requests(requests_.requests());
  return items_scratch_;
}

void World::dispatch() {
  const PlannerParams params{config_.rv.move_cost, net_.base_station()};

  for (Rv& rv : rvs_) {
    if (!rv.idle()) continue;

    // Low battery: head home and refill before taking new work.
    if (rv.battery.fraction() < config_.rv.self_recharge_fraction) {
      head_home_and_refill(rv);
      continue;
    }

    const std::vector<RechargeItem>& items = unclaimed_items();
    if (items.empty()) {
      if (rv.in_field) return_to_base(rv);
      continue;
    }

    // Assemble the read-only facade the policy plans against: the items and
    // the recharge node list unclaimed_items() just refreshed. All plan-round
    // allocations come from reused scratch vectors plus the bump arena
    // (reset per round; any PlanContext the policy built is gone by then).
    plan_arena_.reset();
    const RvPlanState state{rv.pos, rv.battery.level() - rv_reserve()};
    fleet_scratch_.clear();
    fleet_scratch_.reserve(rvs_.size());
    for (const Rv& other : rvs_) fleet_scratch_.push_back(other.pos);
    const DispatchContext ctx(items, requests_, state, params, rv.id,
                              fleet_scratch_, config_.num_rvs, sched_rng_,
                              &plan_arena_);

    const DispatchDecision decision = policy_->decide(ctx);
    switch (decision.kind) {
      case DispatchDecision::Kind::kPlan:
        assign_plan(rv, decision.stops);
        break;
      case DispatchDecision::Kind::kReturnToBase:
        if (rv.in_field) return_to_base(rv);
        break;
      case DispatchDecision::Kind::kSelfCharge:
        head_home_and_refill(rv);
        break;
      case DispatchDecision::Kind::kHold:
        break;
    }
  }
}

void World::head_home_and_refill(Rv& rv) {
  if (rv.in_field) {
    return_to_base(rv);
  } else if (rv.battery.level() < rv.battery.capacity()) {
    begin_self_charge(rv);
  }
}

void World::assign_plan(Rv& rv, const std::vector<RechargeItem>& stops) {
  WRSN_ASSERT(rv.idle(), "plans can only be assigned to idle RVs");
  WRSN_ASSERT(rv.service_queue.empty(), "plan assigned over a pending queue");
  WRSN_ASSERT(!stops.empty(), "empty plan");
  std::vector<SensorId> visit;
  Vec2 cur = rv.pos;
  for (const RechargeItem& item : stops) {
    // Inside a cluster the visiting order is a nearest-neighbour tour
    // (Section IV-C).
    std::vector<Vec2> positions;
    positions.reserve(item.sensors.size());
    for (SensorId s : item.sensors) positions.push_back(net_.sensor(s).pos);
    const auto order = nearest_neighbor_tour(cur, positions);
    for (std::size_t k : order) visit.push_back(item.sensors[k]);
    if (!order.empty()) cur = positions[order.back()];
  }
  if (config_.two_opt_tours && visit.size() > 2) {
    // Library extension: polish the whole flattened route.
    std::vector<Vec2> positions;
    positions.reserve(visit.size());
    for (SensorId s : visit) positions.push_back(net_.sensor(s).pos);
    std::vector<std::size_t> order(visit.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    two_opt(rv.pos, positions, order);
    std::vector<SensorId> improved;
    improved.reserve(visit.size());
    for (std::size_t i : order) improved.push_back(visit[i]);
    visit = std::move(improved);
  }
  for (SensorId s : visit) {
    requests_.claim(s);
    rv.service_queue.push_back(s);
    mark_span(request_span_[s], "claimed", static_cast<double>(rv.id));
  }
  if (!rv.in_field) {
    rv.in_field = true;
    metrics_.on_rv_tour_started();
    open_span(rv_tour_span_[rv.id], "rv", rv.id, "tour");
  }
  start_next_leg(rv);
}

void World::start_next_leg(Rv& rv) {
  WRSN_ASSERT(!rv.service_queue.empty(), "no leg to start");
  const SensorId next = rv.service_queue.front();
  const Vec2 dest = net_.sensor(next).pos;
  const Meter leg{distance(rv.pos, dest)};
  const Meter home{distance(dest, net_.base_station())};
  const Joule need = config_.rv.move_cost * leg + config_.rv.move_cost * home +
                     rv_reserve();
  if (rv.battery.level() < need) {
    abandon_plan(rv);
    return_to_base(rv);
    return;
  }
  rv.state = Rv::State::kTraveling;
  ++rv.epoch;
  rv.battery.drain(config_.rv.move_cost * leg);
  metrics_.on_rv_leg(leg, config_.rv.move_cost * leg);
  rv.distance_traveled += leg.value();
  const double arrive = now_ + (leg / config_.rv.speed).value();
  queue_.push(arrive, EventKind::kRvArrival, rv.id, rv.epoch);
  leg_began_[rv.id] = now_;
  open_span(rv_leg_span_[rv.id], "rv", rv.id, "travel", rv_tour_span_[rv.id]);
}

void World::return_to_base(Rv& rv) {
  const Meter leg{distance(rv.pos, net_.base_station())};
  if (leg.value() <= 1e-9) {
    rv.pos = net_.base_station();
    rv.in_field = false;
    close_span(rv_tour_span_[rv.id], "completed");
    if (rv.battery.level() < rv.battery.capacity()) {
      begin_self_charge(rv);
    } else {
      rv.state = Rv::State::kIdle;
    }
    return;
  }
  rv.state = Rv::State::kReturning;
  ++rv.epoch;
  rv.battery.drain(config_.rv.move_cost * leg);
  metrics_.on_rv_leg(leg, config_.rv.move_cost * leg);
  rv.distance_traveled += leg.value();
  const double arrive = now_ + (leg / config_.rv.speed).value();
  queue_.push(arrive, EventKind::kRvArrival, rv.id, rv.epoch);
  open_span(rv_leg_span_[rv.id], "rv", rv.id, "return", rv_tour_span_[rv.id]);
}

void World::begin_self_charge(Rv& rv) {
  rv.state = Rv::State::kSelfCharging;
  ++rv.epoch;
  const Second dwell = rv.battery.demand() / config_.rv.base_recharge_power;
  queue_.push(now_ + dwell.value(), EventKind::kRvBaseChargeDone, rv.id, rv.epoch);
  open_span(rv_leg_span_[rv.id], "rv", rv.id, "self-charge");
}

void World::abandon_plan(Rv& rv) {
  for (SensorId s : rv.service_queue) requests_.release(s);
  rv.service_queue.clear();
}

void World::on_rv_arrival(RvId r) {
  Rv& rv = rvs_[r];
  if (rv.state == Rv::State::kReturning) {
    rv.pos = net_.base_station();
    rv.in_field = false;
    close_span(rv_leg_span_[r], "arrived");
    close_span(rv_tour_span_[r], "completed");
    if (rv.battery.level() < rv.battery.capacity()) {
      begin_self_charge(rv);
    } else {
      rv.state = Rv::State::kIdle;
      dispatch();
    }
    return;
  }
  WRSN_ASSERT(rv.state == Rv::State::kTraveling, "arrival in unexpected state");
  WRSN_ASSERT(!rv.service_queue.empty(), "arrived with empty queue");
  const SensorId s = rv.service_queue.front();
  req_travel_accum_[s] += now_ - leg_began_[r];
  charge_began_[r] = now_;
  rv.pos = net_.sensor(s).pos;
  rv.state = Rv::State::kCharging;
  ++rv.epoch;
  close_span(rv_leg_span_[r], "arrived");
  open_span(rv_leg_span_[r], "rv", r, "charge", rv_tour_span_[r]);
  settle_sensor(s);  // dwell is computed from the node's current level
  // Deliver up to the node's demand, bounded by what the RV can spare and
  // still make it home (constraint (7) + the reserve).
  const Joule spare = rv.battery.level() -
                      config_.rv.move_cost *
                          Meter{distance(rv.pos, net_.base_station())} -
                      rv_reserve();
  const Joule planned =
      std::max(Joule{0.0}, std::min(net_.sensor(s).battery.demand(), spare));
  // Dwell follows the configured charge-acceptance model (ref. [15]).
  const ChargeProfile profile{config_.rv.charge_profile, config_.rv.charge_power,
                              config_.rv.charge_knee_soc,
                              config_.rv.charge_trickle_fraction};
  const Second dwell = profile.time_to_reach(
      net_.sensor(s).battery, net_.sensor(s).battery.level() + planned);
  queue_.push(now_ + dwell.value(), EventKind::kRvChargeDone, rv.id, rv.epoch);
}

void World::on_rv_charge_done(RvId r) {
  Rv& rv = rvs_[r];
  WRSN_ASSERT(rv.state == Rv::State::kCharging, "charge-done in unexpected state");
  WRSN_ASSERT(!rv.service_queue.empty(), "charge-done with empty queue");
  const SensorId s = rv.service_queue.front();
  rv.service_queue.pop_front();

  settle_sensor(s);  // realize the drain over the dwell before topping up
  Sensor& sensor = net_.sensor(s);
  const bool was_dead = !soa_.alive(s);
  const Joule spare = rv.battery.level() -
                      config_.rv.move_cost *
                          Meter{distance(rv.pos, net_.base_station())} -
                      rv_reserve();
  const Joule delivered =
      std::max(Joule{0.0}, std::min(sensor.battery.demand(), spare));
  sensor.battery.charge(delivered);
  soa_.level[s] = sensor.battery.level().value();  // mirror into the hot block
  rv.battery.drain(delivered);

  const double requested_at = request_time_[s];
  const Second latency{requested_at >= 0.0 ? now_ - requested_at : 0.0};
  metrics_.on_recharge(s, delivered, latency);
  // Decompose the end-to-end latency: service is this final dwell, travel
  // the accumulated approach legs toward this sensor, wait the remainder
  // (base-station queueing plus time stranded behind breakdowns).
  if (requested_at >= 0.0) {
    const double service = now_ - charge_began_[r];
    const double travel = req_travel_accum_[s];
    const double wait = std::max(0.0, latency.value() - travel - service);
    metrics_.on_recharge_breakdown(Second{wait}, Second{travel}, Second{service});
  } else {
    metrics_.on_recharge_breakdown(Second{0.0}, Second{0.0}, Second{0.0});
  }
  rv.energy_delivered += delivered.value();
  ++rv.nodes_served;
  close_span(rv_leg_span_[r], "served", delivered.value());
  close_span(request_span_[s], "served", delivered.value());

  sensor.recharge_requested = false;
  requests_.remove(s);
  request_time_[s] = -1.0;
  invalidate_crossing(s);
  WRSN_DEBUG_ASSERT(requests_.consistent(),
                    "recharge list inconsistent after remove");
  if (fault_ != nullptr) {
    ++uplink_epoch_[s];  // cancel any pending retry for the satisfied request
    uplink_pending_[s] = UplinkPending::kNone;
    if (stranded_since_[s] >= 0.0) {
      // Time-to-recovery: breakdown that stranded this sensor -> recharged.
      metrics_.on_failover_recovery(Second{now_ - stranded_since_[s]});
      stranded_since_[s] = -1.0;
    }
  }

  if (was_dead && soa_.alive(s)) {
    // Revived node rejoins the relay fabric and its cluster immediately (it
    // may have been stranded when its cluster's target walked away).
    on_sensor_alive_changed(s, true);
    soa_.death_processed[s] = 0;
    mark_drain_dirty(s);
    if (net_.rebuild_routing()) traffic_.reroute(net_.routing());
    revive_membership(s);
  } else {
    if (!soa_.alive(s) && soa_.death_processed[s] == 0) {
      // The epoch bump above invalidated the pending death crossing (the
      // node was depleted but undeliverable); process the death here so it
      // is never lost.
      handle_death(s);
    }
    mark_drain_dirty(s);
  }
  request_drain_refresh();
  schedule_crossing(s);

  rv.state = Rv::State::kIdle;
  if (!rv.service_queue.empty()) {
    start_next_leg(rv);
  } else {
    dispatch();
  }
}

void World::on_rv_base_charge_done(RvId r) {
  Rv& rv = rvs_[r];
  WRSN_ASSERT(rv.state == Rv::State::kSelfCharging,
              "base-charge-done in unexpected state");
  const Joule drawn = rv.battery.demand();
  rv.battery.refill();
  metrics_.on_rv_base_recharge(drawn);
  close_span(rv_leg_span_[r], "refilled", drawn.value());
  rv.state = Rv::State::kIdle;
  dispatch();
}

// ---------------------------------------------------------------------------
// Fault model: breakdowns and failover (src/fault/)
// ---------------------------------------------------------------------------

void World::on_rv_breakdown(RvId r) {
  Rv& rv = rvs_[r];
  // Consume this plan window whether or not it takes effect, so the index
  // stays aligned with the construction-time event pushes.
  const FaultWindow& w = fault_->plan().rv_breakdowns(r)[rv_breakdown_idx_[r]++];
  if (rv.state == Rv::State::kBrokenDown) return;  // abutting windows collapse

  // The vehicle halts where it is: any in-flight arrival/charge-done/base-
  // charge event becomes stale. A leg in progress keeps its departure-time
  // position and energy accounting (the RV is towed from there).
  ++rv.epoch;
  rv.state = Rv::State::kBrokenDown;
  breakdown_began_[r] = now_;
  close_span(rv_leg_span_[r], "interrupted");
  open_span(rv_breakdown_span_[r], "rv", r, "breakdown", rv_tour_span_[r]);

  std::size_t stranded = 0;
  if (config_.fault.rv_failover) {
    // Health-watchdog failover: un-claim the stranded service queue so the
    // requests (still in the recharge node list) are replanned across the
    // surviving RVs by the next dispatch.
    for (SensorId s : rv.service_queue) {
      requests_.release(s);
      if (stranded_since_[s] < 0.0) stranded_since_[s] = now_;
      mark_span(request_span_[s], "stranded");
      ++stranded;
    }
    rv.service_queue.clear();
    WRSN_DEBUG_ASSERT(requests_.consistent(),
                      "recharge list inconsistent after failover re-injection");
  }
  metrics_.on_rv_breakdown(stranded);

  queue_.push(w.end, EventKind::kRvRepaired, r, rv.epoch);
  if (stranded > 0) dispatch();
}

void World::on_rv_repaired(RvId r) {
  Rv& rv = rvs_[r];
  WRSN_ASSERT(rv.state == Rv::State::kBrokenDown,
              "repair in unexpected state");
  metrics_.on_rv_repaired(Second{now_ - breakdown_began_[r]});
  breakdown_began_[r] = -1.0;
  ++rv.epoch;
  close_span(rv_breakdown_span_[r], "repaired");

  if (config_.fault.rv_failover || rv.service_queue.empty()) {
    // Towed back to base and refilled by the repair crew.
    rv.pos = net_.base_station();
    rv.in_field = false;
    close_span(rv_tour_span_[r], "towed");
    const Joule drawn = rv.battery.demand();
    if (drawn.value() > 0.0) {
      rv.battery.refill();
      metrics_.on_rv_base_recharge(drawn);
    }
    rv.state = Rv::State::kIdle;
    dispatch();
    return;
  }
  // No-failover control: repaired in the field, resumes the interrupted tour
  // (its claims were never released, so nobody else served them).
  rv.state = Rv::State::kIdle;
  start_next_leg(rv);
}

}  // namespace wrsn
