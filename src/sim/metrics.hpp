#pragma once
// Metrics: exact time-integrals of the piecewise-constant system state plus
// event counters, summarized into the quantities the paper's figures plot.

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/binio.hpp"
#include "core/units.hpp"

namespace wrsn {

// Instantaneous state handed to the integrator before each event.
struct StateSnapshot {
  std::size_t coverable_targets = 0;  // targets with >=1 candidate sensor
  std::size_t covered_targets = 0;    // coverable targets with an alive active monitor
  std::size_t alive_sensors = 0;
  std::size_t total_sensors = 0;
  double delivery_rate_pps = 0.0;  // packets/s reaching the base station
  double offered_rate_pps = 0.0;   // packets/s generated by all sources
  double avg_delivery_hops = 0.0;  // rate-weighted hop count of that traffic
};

// Final report of one simulation replica. Energies in joules, distances in
// metres, rates/ratios in [0,1] unless the name says pct.
struct MetricsReport {
  Second duration{0.0};

  // --- RV side ----------------------------------------------------------
  Joule rv_travel_energy{0.0};
  Meter rv_travel_distance{0.0};
  Joule energy_recharged{0.0};       // delivered into sensor batteries
  Joule rv_base_energy_drawn{0.0};   // energy RVs pulled from the dock
  std::size_t sensors_recharged = 0;
  std::size_t rv_tours = 0;          // base -> field -> base excursions
  std::size_t rv_base_recharges = 0;

  // --- network side -------------------------------------------------------
  double coverage_ratio = 0.0;       // time-avg covered/coverable
  double missing_rate = 0.0;         // 1 - coverage_ratio
  double nonfunctional_pct = 0.0;    // time-avg dead sensors %
  double avg_alive_sensors = 0.0;
  double avg_coverable_targets = 0.0;
  double packets_delivered = 0.0;    // integral of the delivery rate
  double packets_offered = 0.0;      // integral of the offered rate
  double avg_delivery_hops = 0.0;    // delivery-weighted mean route length
  std::size_t sensor_deaths = 0;
  std::size_t recharge_requests = 0;
  Second avg_request_latency{0.0};   // request -> charge-complete
  Second p50_request_latency{0.0};
  Second p95_request_latency{0.0};
  Second p99_request_latency{0.0};
  Second max_request_latency{0.0};
  // p99 of max_request_latency across replicas (tail of the worst case).
  // For a single replica this equals max_request_latency; mean_report
  // replaces it with the cross-replica quantile.
  Second p99_max_request_latency{0.0};
  // Latency breakdown per served request: wait + travel + service == the
  // end-to-end request latency. Service is the final charging dwell, travel
  // the RV's approach legs toward the sensor (summed over legs resumed after
  // breakdowns), wait the remainder — base-station queueing plus time
  // stranded behind breakdowns. All zero when nothing was served.
  Second avg_request_wait{0.0};
  Second p50_request_wait{0.0};
  Second p95_request_wait{0.0};
  Second p99_request_wait{0.0};
  Second avg_request_travel{0.0};
  Second p50_request_travel{0.0};
  Second p95_request_travel{0.0};
  Second p99_request_travel{0.0};
  Second avg_request_service{0.0};
  Second p50_request_service{0.0};
  Second p95_request_service{0.0};
  Second p99_request_service{0.0};
  // Jain fairness index of recharge counts over the sensors that were served
  // at least once: 1 = perfectly even service, ->0 = service concentrated on
  // few nodes. 1 when nothing was served.
  double recharge_fairness_jain = 1.0;

  // --- degraded-mode accounting (src/fault/) ----------------------------
  // All zero when fault injection is disabled.
  std::size_t requests_lost = 0;      // uplink attempts dropped
  std::size_t requests_delayed = 0;   // uplink attempts deferred in flight
  std::size_t requests_retried = 0;   // re-emissions after a dropped attempt
  std::size_t requests_expired = 0;   // requests that exhausted max_retries
  std::size_t rv_breakdowns = 0;
  std::size_t rv_repairs = 0;
  std::size_t failover_reinjected = 0;  // stranded queue entries replanned
  std::size_t sensor_hw_faults = 0;     // transient hardware-fault windows
  Second rv_downtime{0.0};              // total broken-RV time (RV*s)
  // Mean breakdown -> recharge-complete latency over sensors stranded by a
  // failover; 0 when no stranded sensor was recovered.
  Second avg_failover_recovery{0.0};

  // --- derived (Section V metrics) -------------------------------------
  // Objective of expression (2): energy recharged minus traveling energy.
  [[nodiscard]] Joule objective_score() const {
    return energy_recharged - rv_travel_energy;
  }
  // Recharging cost: total RV distance per average operational sensor.
  [[nodiscard]] double recharging_cost_m_per_sensor() const {
    return avg_alive_sensors > 0.0 ? rv_travel_distance.value() / avg_alive_sensors
                                   : 0.0;
  }
  // Fraction of generated packets that reached the base station (routing
  // reachability; hops are lossless). 0 when nothing was offered.
  [[nodiscard]] double delivery_ratio() const {
    return packets_offered > 0.0 ? packets_delivered / packets_offered : 0.0;
  }
};

class MetricsIntegrator {
 public:
  // Integrates the snapshot over [now, now+dt).
  void advance(Second dt, const StateSnapshot& snap);

  // --- event counters, called by the world ------------------------------
  void on_rv_leg(Meter dist, Joule traction);
  void on_recharge(std::size_t sensor, Joule delivered, Second request_latency);
  // Companion to on_recharge: the same served request's latency decomposed
  // into wait/travel/service (one call per on_recharge, zeros when the
  // recharge had no pending request).
  void on_recharge_breakdown(Second wait, Second travel, Second service);
  void on_rv_tour_started() { ++report_.rv_tours; }
  void on_rv_base_recharge(Joule drawn);
  void on_sensor_death() { ++report_.sensor_deaths; }
  void on_request() { ++report_.recharge_requests; }

  // --- fault/degraded-mode hooks ----------------------------------------
  void on_request_lost() { ++report_.requests_lost; }
  void on_request_delayed() { ++report_.requests_delayed; }
  void on_request_retried() { ++report_.requests_retried; }
  void on_request_expired() { ++report_.requests_expired; }
  void on_rv_breakdown(std::size_t stranded) {
    ++report_.rv_breakdowns;
    report_.failover_reinjected += stranded;
  }
  void on_rv_repaired(Second downtime) {
    ++report_.rv_repairs;
    report_.rv_downtime += downtime;
  }
  void on_sensor_hw_fault() { ++report_.sensor_hw_faults; }
  void on_failover_recovery(Second latency) {
    failover_recovery_sum_ += latency.value();
    ++failover_recoveries_;
  }

  // Produces the final report; `duration` is the simulated horizon.
  [[nodiscard]] MetricsReport finalize(Second duration) const;

  // Running RV odometer (sum of all on_rv_leg distances so far). Cheap —
  // unlike finalize(), which sorts the latency list — so per-sample readers
  // (World::record_sample) use this instead of building a full report.
  [[nodiscard]] Meter rv_travel_distance() const {
    return report_.rv_travel_distance;
  }

  // Checkpoint codec: every accumulator the event hooks and advance() touch,
  // dumped verbatim (finalize() is pure, so restoring these restores the
  // eventual report bit for bit). recharge_counts_ is written sorted by
  // sensor id for canonical snapshot bytes; its finalize() sums are over
  // integers, so iteration order never affected the report.
  void serialize(BinWriter& w) const;
  void deserialize(BinReader& r);

 private:
  MetricsReport report_;
  double covered_time_ = 0.0;    // integral of covered targets (target*s)
  double coverable_time_ = 0.0;  // integral of coverable targets
  double alive_time_ = 0.0;      // integral of alive sensors (sensor*s)
  double dead_time_ = 0.0;
  double elapsed_ = 0.0;
  double latency_sum_ = 0.0;
  double hop_packet_integral_ = 0.0;  // packets x hops
  double failover_recovery_sum_ = 0.0;
  std::size_t failover_recoveries_ = 0;
  std::vector<double> latencies_;
  std::vector<double> waits_;
  std::vector<double> travels_;
  std::vector<double> services_;
  std::unordered_map<std::size_t, int> recharge_counts_;
};

// Optional per-sample time series (used by examples for trajectory output).
struct TimeSeriesPoint {
  double t = 0.0;
  std::size_t alive = 0;
  std::size_t covered = 0;
  std::size_t coverable = 0;
  std::size_t pending_requests = 0;
  double rv_travel_distance = 0.0;
};

using TimeSeries = std::vector<TimeSeriesPoint>;

// Machine-readable dump of a report (stable key names; see core/json.hpp).
[[nodiscard]] std::string to_json(const MetricsReport& report);

}  // namespace wrsn
