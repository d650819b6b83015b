#pragma once
// Simulation configuration: Table II of the paper plus the device constants
// quoted in Section V (CC2480 radio, PIR detector, 2xAAA Ni-MH battery) and
// the few values the paper leaves implicit (RV battery capacity, charger
// power), which are documented in DESIGN.md as substitutions.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/units.hpp"

namespace wrsn {

// Which recharge-route scheduler drives the RVs is an open, string-keyed
// choice: SimConfig::scheduler names a policy registered with the
// SchedulerRegistry (sched/policy.hpp). Built-ins cover the paper's three
// schemes (greedy, partition, combined) plus the library's ablation
// baselines (nearest-first, fcfs, edf); wrsn::scheduler_names() enumerates
// whatever is registered. Names are validated when parsed (core/config_io)
// and again when the World instantiates the policy.

// How sensors inside a cluster are activated (Section III-C).
enum class ActivationPolicy {
  kFullTime,    // every cluster member monitors all the time (prior work)
  kRoundRobin,  // one member per time slot, rotating
};

// How targets move (Section II-A models events that "appear randomly at any
// location... before appearing again at new locations"; random-waypoint is a
// library extension for physically moving targets such as animals).
enum class TargetMotion {
  kTeleport,        // jump to a fresh uniform location every target period
  kRandomWaypoint,  // walk to a uniform waypoint at target_speed, then dwell
};

// Wireless charging time model (ref. [15], see energy/charge_profile.hpp).
enum class ChargeProfileKind {
  kConstantPower,  // dwell = demand / P (the schedulers' implicit model)
  kTaperedCcCv,    // Ni-MH CC then linearly tapering acceptance power
};

[[nodiscard]] std::string to_string(ActivationPolicy policy);
[[nodiscard]] std::string to_string(ChargeProfileKind profile);
[[nodiscard]] std::string to_string(TargetMotion motion);

// Every accepted name for the closed enum knobs, in declaration order.
// Parse errors quote these; `wrsn_sim --list` prints them (the open-ended
// scheduler list comes from wrsn::scheduler_names() instead).
[[nodiscard]] std::vector<std::string> activation_policy_names();
[[nodiscard]] std::vector<std::string> charge_profile_names();
[[nodiscard]] std::vector<std::string> target_motion_names();

struct RadioModel {
  // CC2480 (TI datasheet [25]): 27 mA @ 3 V while transmitting or receiving,
  // < 5 uA in low-power idle. 250 kbit/s air rate.
  Watt tx_power = power_draw(3.0, 27.0);
  Watt rx_power = power_draw(3.0, 27.0);
  Watt idle_power = power_draw(3.0, 0.005);
  // Fraction of time the receiver is kept on for idle listening (low-power
  // MAC duty cycling). The radio only drops to the <5uA idle floor between
  // listen windows; while listening it draws the full rx current. This is
  // the dominant radio consumer and calibrates total network demand to the
  // paper's regime (see DESIGN.md).
  double listen_duty_cycle = 0.03;
  double bitrate_bps = 250e3;
  // 20-byte payload (Table II) + PHY/MAC overhead (SFD, length, FCS, MAC hdr).
  std::size_t packet_payload_bytes = 20;
  std::size_t packet_overhead_bytes = 13;

  [[nodiscard]] Second packet_airtime() const {
    const double bits =
        8.0 * static_cast<double>(packet_payload_bytes + packet_overhead_bytes);
    return Second{bits / bitrate_bps};
  }
  [[nodiscard]] Joule tx_energy_per_packet() const { return tx_power * packet_airtime(); }
  [[nodiscard]] Joule rx_energy_per_packet() const { return rx_power * packet_airtime(); }
};

struct SensingModel {
  // PIR motion detector (ON Semi [26]): 10 mA active / 170 uA idle @ 3 V.
  Watt active_power = power_draw(3.0, 10.0);
  Watt idle_power = power_draw(3.0, 0.170);
};

struct BatteryModel {
  // Two AAA Panasonic Ni-MH cells at the 3 V operating point ([15]);
  // 750 mAh per cell at 1.2 V nominal.
  Joule capacity = battery_energy(1.2, 750.0) * 2.0;
  // Recharge threshold E_th as a fraction of capacity (Table II: 50 %).
  double threshold_fraction = 0.5;
  // Ni-MH self-discharge, fraction of capacity lost per day (handbook [15]
  // quotes up to ~1 %/day at room temperature). Modeled as a constant power
  // so the DES stays closed-form; 0 (default) disables it.
  double self_discharge_per_day = 0.0;

  [[nodiscard]] Joule threshold() const { return capacity * threshold_fraction; }
};

struct RvModel {
  JoulePerMeter move_cost = JoulePerMeter{5.6};  // e_m (Table II)
  MeterPerSecond speed = MeterPerSecond{1.0};    // v_r (Table II)
  // Battery capacity C_r. Not given numerically in the paper; sized so a
  // tour serves a handful of cluster batches plus travel (see DESIGN.md).
  Joule capacity = kilojoules(50.0);
  // The RV keeps this reserve so it can always make it back to base.
  double reserve_fraction = 0.05;
  // Below this battery fraction an idle RV returns to base and refills
  // itself before accepting new work (Algorithms 2/3: "if its battery is
  // low, it returns to the base station").
  double self_recharge_fraction = 0.2;
  // Wireless charger output power (recharge-time model per [15]: Ni-MH
  // cells charge slowly, ~0.1C): a sensor with demand d occupies the RV for
  // d / charge_power seconds.
  Watt charge_power = watts(1.2);
  // Shape of the charge-acceptance curve and its taper parameters (only
  // used by kTaperedCcCv).
  ChargeProfileKind charge_profile = ChargeProfileKind::kConstantPower;
  double charge_knee_soc = 0.8;
  double charge_trickle_fraction = 0.1;
  // Power of the base-station dock recharging the RV itself.
  Watt base_recharge_power = watts(500.0);
};

// Deterministic fault model (src/fault/). Every fault decision is derived
// from named RNG sub-streams of the master seed, so a given (seed, config)
// pair always yields the same fault plan regardless of engine or event
// interleaving. With `enabled == false` the World never consults the fault
// layer and output is bit-identical to a build without it.
struct FaultConfig {
  bool enabled = false;

  // (a) Request-uplink loss/delay: each attempt to deliver an ERP-triggered
  // request to the base station is independently dropped or deferred.
  double request_loss_prob = 0.0;         // P(attempt dropped) in [0,1]
  double request_delay_prob = 0.0;        // P(attempt deferred) in [0,1]
  Second request_delay_max = minutes(20.0);   // deferred uplink lands U(0,max] later
  // Retry/TTL state machine: a dropped request is re-emitted after
  // timeout * backoff^attempt, up to max_retries attempts, then expires
  // (the cluster may re-fire at the next ERP evaluation).
  Second request_retry_timeout = minutes(15.0);
  double request_retry_backoff = 2.0;     // >= 1
  std::size_t request_max_retries = 8;

  // (b) RV breakdowns: exponential inter-failure times with the given MTBF
  // (0 disables), plus an optional pinned breakdown of RV 0 at a fixed time
  // (for reproducible demos/tests; <= 0 disables). A broken RV is out of
  // service for repair_duration, then is towed back to base and refilled.
  double rv_mtbf_hours = 0.0;
  Second rv_repair_duration = hours(8.0);
  Second rv_breakdown_at = Second{0.0};
  // Failover: on breakdown the stranded service queue is re-injected into
  // the recharge list and replanned across surviving RVs. Disable to get
  // the no-failover control for ablation.
  bool rv_failover = true;

  // (c) Transient sensor hardware faults: a live sensor stops monitoring
  // (sensing hardware down, radio still relaying) for fault_duration.
  // Poisson arrivals per sensor at the given daily rate (0 disables).
  double sensor_fault_rate_per_day = 0.0;
  Second sensor_fault_duration = hours(2.0);

  // (d) Battery self-discharge noise: per-sensor extra constant drain drawn
  // uniformly in [0, battery_noise_per_day * capacity / day] (0 disables).
  double battery_noise_per_day = 0.0;
};

struct SimConfig {
  // --- Table II -----------------------------------------------------------
  std::size_t num_sensors = 500;        // N
  std::size_t num_targets = 15;         // M
  std::size_t num_rvs = 3;              // m
  Meter field_side = meters(200.0);     // L
  Meter comm_range = meters(12.0);      // d_c
  Meter sensing_range = meters(8.0);    // d_s
  Second sim_duration = days(120.0);
  Second target_period = hours(3.0);
  double data_rate_pkt_per_min = 15.0;  // lambda
  TargetMotion target_motion = TargetMotion::kTeleport;
  // Walking speed for kRandomWaypoint; the motion is discretized into
  // segments of at most `target_period` so clusters stay current.
  MeterPerSecond target_speed = MeterPerSecond{0.3};

  // --- framework knobs ------------------------------------------------------
  // Name of a registered SchedulerPolicy (see sched/policy.hpp). Validated
  // against the registry at parse time and at World construction.
  std::string scheduler = "combined";
  // Event-queue implementation: "auto" (WRSN_EVENT_QUEUE env, defaulting to
  // the calendar queue), "calendar" or "heap". Both produce identical event
  // order — the heap is the O(log n) reference, the calendar queue the O(1)
  // amortized default (see sim/events.hpp).
  std::string event_queue = "auto";
  // Replica-worker budget for multi-replica runs (wrsn_sim --seeds,
  // wrsn_sweep); see resolve_threads in core/thread_pool.hpp. 0 = "auto".
  // A single World always runs on one thread, so this never changes output.
  std::size_t threads = 0;
  ActivationPolicy activation = ActivationPolicy::kRoundRobin;
  // Post-optimize each RV's flattened visiting order with 2-opt before
  // departure (library extension; off by default to match the paper's
  // algorithms exactly).
  bool two_opt_tours = false;
  bool energy_request_control = true;  // ERC on/off (Fig. 4)
  double energy_request_percentage = 0.6;  // ERP / K in [0,1]
  Second activation_slot = minutes(10.0);  // round-robin time slot length
  // A cluster member below this fraction of capacity marks its cluster
  // critical; critical clusters are prioritized in destination selection
  // (Section III-C, "clusters with low energy will be prioritized").
  double critical_fraction = 0.10;

  // --- device models --------------------------------------------------------
  RadioModel radio;
  SensingModel sensing;
  BatteryModel battery;
  RvModel rv;
  FaultConfig fault;

  // --- bookkeeping -----------------------------------------------------------
  std::uint64_t seed = 0x5eed0001ULL;
  Second metrics_sample_period = minutes(30.0);

  // Throws wrsn::InvalidArgument when a parameter is out of range.
  void validate() const;

  // Table II defaults (the constructor already applies them; this reads
  // better at call sites in benches/tests).
  [[nodiscard]] static SimConfig paper_defaults() { return SimConfig{}; }

  // --- e2ebench setup-replay stubs ------------------------------------------
  // Routing is always the paper's Dijkstra tree over lossless links, so there
  // is no routing or link knob. The frozen setup replay in
  // e2ebench/wrsn_e2e.cpp still reads `cfg.routing` and `cfg.link`; these
  // constants keep it compiling and cannot be set. ROADMAP's benchmark-spine
  // item deletes them together with that replay's spelling.
  struct RetiredLinkModel {};
  static constexpr std::string_view routing = "shortest_path";
  static constexpr RetiredLinkModel link{};
  // --- end of e2ebench stubs ------------------------------------------------
};

}  // namespace wrsn
