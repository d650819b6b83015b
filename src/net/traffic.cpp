#include "net/traffic.hpp"

#include <cmath>
#include <utility>

#include "core/error.hpp"

namespace wrsn {

void TrafficModel::reset(std::size_t num_sensors) {
  WRSN_REQUIRE(num_sensors < kNoSlot, "too many sensors for the flow slot table");
  tx_count_.assign(num_sensors, 0);
  rx_count_.assign(num_sensors, 0);
  delivering_ = 0;
  hop_sum_ = 0;
  rate_ = 0.0;
  rate_fixed_ = false;
  slot_.assign(num_sensors, kNoSlot);
  flows_.clear();
  active_ = 0;
}

void TrafficModel::apply(const SourceFlow& flow, int delta) {
  // delta is +1 or -1; the counts are unsigned, and their wrap-around
  // arithmetic makes adding -1 an exact decrement.
  const SensorId source = flow.source;
  if (touch_log_ != nullptr) touch_log_->add(source);
  if (flow.relay_path.empty()) {
    // Unreachable source: it still transmits (and wastes energy), nothing is
    // relayed or delivered.
    tx_count_[source] += delta;
    return;
  }
  for (std::size_t i = 0; i < flow.relay_path.size(); ++i) {
    const std::size_t node = flow.relay_path[i];
    tx_count_[node] += delta;
    if (i > 0) {
      rx_count_[node] += delta;  // relays receive before forwarding
      if (touch_log_ != nullptr) touch_log_->add(node);
    }
  }
  delivering_ += delta;
  hop_sum_ += delta * flow.relay_path.size();
}

TrafficModel::SourceFlow& TrafficModel::claim_flow(SensorId source) {
  if (active_ == flows_.size()) flows_.emplace_back();
  SourceFlow& flow = flows_[active_];
  flow.source = source;
  slot_[source] = static_cast<std::uint32_t>(active_++);
  return flow;
}

void TrafficModel::resolve_path(const RouteTable& routes, SourceFlow& flow) {
  flow.relay_path.clear();
  if (!routes.built() || !routes.reachable(flow.source)) return;
  // Walk the forest up to (excluding) the base station, the one node
  // without a next hop.
  for (std::size_t cur = flow.source; routes.next_hop(cur) != kInvalidId;
       cur = routes.next_hop(cur)) {
    flow.relay_path.push_back(cur);
    WRSN_ASSERT(flow.relay_path.size() <= routes.num_nodes(),
                "routing forest contains a cycle");
  }
}

void TrafficModel::add_source(const RouteTable& routes, SensorId source,
                              double rate_pps) {
  WRSN_REQUIRE(source < tx_count_.size(), "source id out of range");
  WRSN_REQUIRE(std::isfinite(rate_pps) && rate_pps >= 0.0,
               "packet rate must be finite and non-negative");
  WRSN_REQUIRE(!has_source(source), "source already registered");
  WRSN_REQUIRE(!rate_fixed_ || rate_pps == rate_,
               "every source must emit the same packet rate");
  rate_ = rate_pps;
  rate_fixed_ = true;

  SourceFlow& flow = claim_flow(source);
  resolve_path(routes, flow);
  apply(flow, +1);
}

void TrafficModel::remove_source(SensorId source) {
  WRSN_REQUIRE(has_source(source), "source not registered");
  const std::uint32_t i = slot_[source];
  apply(flows_[i], -1);
  // Swap-remove: the last active flow takes the freed slot and the removed
  // record (with its buffers) becomes the first recycled one.
  const std::size_t last = --active_;
  if (i != last) {
    std::swap(flows_[i], flows_[last]);
    slot_[flows_[i].source] = i;
  }
  slot_[source] = kNoSlot;
}

void TrafficModel::clear_sources() {
  for (std::size_t i = 0; i < active_; ++i) {
    apply(flows_[i], -1);
    slot_[flows_[i].source] = kNoSlot;
  }
  active_ = 0;
}

void TrafficModel::reroute(const RouteTable& routes) {
  for (std::size_t i = 0; i < active_; ++i) {
    SourceFlow& flow = flows_[i];
    apply(flow, -1);
    resolve_path(routes, flow);
    apply(flow, +1);
  }
}

void TrafficModel::serialize(BinWriter& w) const {
  w.size(tx_count_.size());
  w.boolean(rate_fixed_);
  w.f64(rate_);
  w.size(active_);
  for (std::size_t i = 0; i < active_; ++i) {
    const SourceFlow& flow = flows_[i];
    w.u64(static_cast<std::uint64_t>(flow.source));
    std::vector<std::uint64_t> path(flow.relay_path.begin(),
                                    flow.relay_path.end());
    w.vec(path);
  }
}

void TrafficModel::deserialize(BinReader& r) {
  std::size_t num_sensors = 0;
  r.size(num_sensors);
  WRSN_REQUIRE(num_sensors == tx_count_.size(),
               "traffic snapshot sensor count does not match the model");
  reset(num_sensors);
  r.boolean(rate_fixed_);
  r.f64(rate_);
  WRSN_REQUIRE(std::isfinite(rate_) && rate_ >= 0.0,
               "traffic snapshot rate is negative or non-finite");
  std::size_t n = 0;
  r.size(n);
  WRSN_REQUIRE(n <= num_sensors, "traffic snapshot lists too many sources");
  WRSN_REQUIRE(rate_fixed_ || n == 0, "traffic snapshot lists flows without a rate");
  std::vector<std::uint64_t> path;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t source = 0;
    r.u64(source);
    WRSN_REQUIRE(source < num_sensors && slot_[source] == kNoSlot,
                 "traffic snapshot source id out of range or repeated");
    SourceFlow& flow = claim_flow(static_cast<SensorId>(source));
    r.vec(path);
    WRSN_REQUIRE(path.size() <= num_sensors,
                 "traffic snapshot relay path is longer than the network");
    for (const std::uint64_t node : path) {
      WRSN_REQUIRE(node < num_sensors,
                   "traffic snapshot relay path id out of range");
    }
    flow.relay_path.assign(path.begin(), path.end());
  }
  // Rebuild the counts without marking: the restored drains already match
  // them.
  DirtySet* const log = std::exchange(touch_log_, nullptr);
  for (std::size_t i = 0; i < active_; ++i) apply(flows_[i], +1);
  touch_log_ = log;
}

Watt TrafficModel::radio_power(SensorId s, const RadioModel& radio) const {
  WRSN_REQUIRE(s < tx_count_.size(), "sensor id out of range");
  // rate (1/s) x energy-per-packet (J) = power (W); plus the duty-cycled
  // idle-listening floor.
  return radio.idle_power + radio.listen_duty_cycle * radio.rx_power +
         Watt{tx_rate(s) * radio.tx_energy_per_packet().value()} +
         Watt{rx_rate(s) * radio.rx_energy_per_packet().value()};
}

}  // namespace wrsn
