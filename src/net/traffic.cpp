#include "net/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace wrsn {

void TrafficModel::reset(std::size_t num_sensors) {
  tx_rate_.assign(num_sensors, 0.0);
  rx_rate_.assign(num_sensors, 0.0);
  delivery_rate_ = 0.0;
  offered_rate_ = 0.0;
  weighted_hops_ = 0.0;
  delivering_rate_ = 0.0;
  delivering_sources_ = 0;
  WRSN_REQUIRE(num_sensors < kNoSlot, "too many sensors for the flow slot table");
  slot_.assign(num_sensors, kNoSlot);
  flows_.clear();
  active_ = 0;
}

void TrafficModel::set_link_model(const LinkConfig& link, double comm_range) {
  WRSN_REQUIRE(comm_range > 0.0, "link model needs a positive comm range");
  WRSN_REQUIRE(link.max_retx >= 1, "link.max_retx must be at least 1");
  link_ = link;
  link_comm_range_ = comm_range;
}

void TrafficModel::capture_link(const RouteView& routes,
                                SourceFlow& flow) const {
  if (!link_.enabled || flow.relay_path.empty()) return;
  const double retx = static_cast<double>(link_.max_retx);
  flow.hop_etx.reserve(flow.relay_path.size());
  flow.hop_success.reserve(flow.relay_path.size());
  for (std::size_t node : flow.relay_path) {
    const double len = routes.hop_length(node);
    double p = link_.loss_floor +
               link_.loss_at_range *
                   std::pow(len / link_comm_range_, link_.loss_exponent);
    p = std::clamp(p, 0.0, 1.0);
    double etx;
    double success;
    if (p <= 0.0) {
      etx = 1.0;
      success = 1.0;
    } else if (p >= 1.0) {
      // Every attempt fails: the sender burns all its retransmissions and
      // nothing crosses the hop.
      etx = retx;
      success = 0.0;
    } else {
      const double all_fail = std::pow(p, retx);
      success = 1.0 - all_fail;
      etx = (1.0 - all_fail) / (1.0 - p);  // truncated geometric mean attempts
    }
    flow.hop_etx.push_back(etx);
    flow.hop_success.push_back(success);
    flow.path_success *= success;
  }
}

void TrafficModel::apply(const SourceFlow& flow, SensorId source, double sign) {
  const double r = sign * flow.rate_pps;
  if (touch_log_ != nullptr) touch_log_->add(source);
  offered_rate_ += r;
  if (flow.relay_path.empty()) {
    // Unreachable source: it still transmits (and wastes energy), nothing is
    // relayed or delivered.
    tx_rate_[source] += r;
    return;
  }
  double delivered = r;
  if (flow.hop_etx.empty()) {
    // Lossless fast path — bit-identical to the pre-link-layer accounting.
    for (std::size_t i = 0; i < flow.relay_path.size(); ++i) {
      const std::size_t node = flow.relay_path[i];
      tx_rate_[node] += r;
      if (i > 0) rx_rate_[node] += r;  // relays receive before forwarding
      if (touch_log_ != nullptr && i > 0) touch_log_->add(node);
    }
    delivery_rate_ += r;
  } else {
    // Lossy links: the surviving rate attenuates hop by hop, and each hop's
    // sender pays for its expected transmission count. All multipliers were
    // captured with the flow, so the -1 application mirrors the +1 exactly.
    double incoming = r;
    for (std::size_t i = 0; i < flow.relay_path.size(); ++i) {
      const std::size_t node = flow.relay_path[i];
      tx_rate_[node] += incoming * flow.hop_etx[i];
      if (i > 0) rx_rate_[node] += incoming;
      if (touch_log_ != nullptr && i > 0) touch_log_->add(node);
      incoming *= flow.hop_success[i];
    }
    delivered = incoming;
    delivery_rate_ += delivered;
  }
  if (flow.rate_pps > 0.0 && flow.path_success > 0.0) {
    weighted_hops_ += delivered * static_cast<double>(flow.relay_path.size());
    delivering_rate_ += delivered;
    if (sign > 0.0) {
      ++delivering_sources_;
    } else {
      --delivering_sources_;
    }
    if (delivering_sources_ == 0) {
      // Exact quiescence: discard any accumulated rounding residue.
      delivery_rate_ = 0.0;
      weighted_hops_ = 0.0;
      delivering_rate_ = 0.0;
    }
  }
}

TrafficModel::SourceFlow& TrafficModel::claim_flow(SensorId source,
                                                   double rate_pps) {
  if (active_ == flows_.size()) flows_.emplace_back();
  SourceFlow& flow = flows_[active_];
  flow.source = source;
  flow.rate_pps = rate_pps;
  flow.relay_path.clear();
  flow.hop_etx.clear();
  flow.hop_success.clear();
  flow.path_success = 1.0;
  slot_[source] = static_cast<std::uint32_t>(active_++);
  return flow;
}

void TrafficModel::sort_active(std::vector<std::uint32_t>& order) const {
  order.resize(active_);
  for (std::size_t i = 0; i < active_; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return flows_[a].source < flows_[b].source;
  });
}

void TrafficModel::add_source(const RouteView& routes, SensorId source,
                              double rate_pps) {
  WRSN_REQUIRE(source < tx_rate_.size(), "source id out of range");
  WRSN_REQUIRE(rate_pps >= 0.0, "packet rate must be non-negative");
  WRSN_REQUIRE(!has_source(source), "source already registered");

  SourceFlow& flow = claim_flow(source, rate_pps);
  if (routes.built() && routes.reachable(source)) {
    // Walk the forest up to (excluding) the base station, the one node
    // without a next hop.
    for (std::size_t cur = source; routes.next_hop(cur) != kInvalidId;
         cur = routes.next_hop(cur)) {
      flow.relay_path.push_back(cur);
      WRSN_ASSERT(flow.relay_path.size() <= routes.num_nodes(),
                  "routing forest contains a cycle");
    }
  }
  capture_link(routes, flow);
  apply(flow, source, +1.0);
}

void TrafficModel::remove_source(SensorId source) {
  WRSN_REQUIRE(has_source(source), "source not registered");
  const std::uint32_t i = slot_[source];
  apply(flows_[i], source, -1.0);
  // Swap-remove: the last active flow takes the freed slot and the removed
  // record (with its buffers) becomes the first recycled one.
  const std::size_t last = --active_;
  if (i != last) {
    std::swap(flows_[i], flows_[last]);
    slot_[flows_[i].source] = i;
  }
  slot_[source] = kNoSlot;
  if (active_ == 0) offered_rate_ = 0.0;  // exact quiescence
}

void TrafficModel::clear_sources() {
  sort_active(order_);
  for (const std::uint32_t i : order_) apply(flows_[i], flows_[i].source, -1.0);
  for (std::size_t i = 0; i < active_; ++i) slot_[flows_[i].source] = kNoSlot;
  active_ = 0;
  offered_rate_ = 0.0;  // exact quiescence
}

void TrafficModel::reroute(const RouteView& routes) {
  sort_active(order_);
  reroute_.clear();
  for (const std::uint32_t i : order_) {
    reroute_.emplace_back(flows_[i].source, flows_[i].rate_pps);
  }
  clear_sources();
  for (const auto& [source, rate] : reroute_) add_source(routes, source, rate);
}

void TrafficModel::serialize(BinWriter& w) const {
  w.vec(tx_rate_);
  w.vec(rx_rate_);
  w.f64(delivery_rate_);
  w.f64(offered_rate_);
  w.f64(weighted_hops_);
  w.f64(delivering_rate_);
  w.size(delivering_sources_);
  w.size(active_);
  std::vector<std::uint32_t> order;
  sort_active(order);
  for (const std::uint32_t i : order) {
    const SourceFlow& flow = flows_[i];
    w.u64(static_cast<std::uint64_t>(flow.source));
    w.f64(flow.rate_pps);
    std::vector<std::uint64_t> path(flow.relay_path.begin(),
                                    flow.relay_path.end());
    w.vec(path);
    w.vec(flow.hop_etx);
    w.vec(flow.hop_success);
    w.f64(flow.path_success);
  }
}

void TrafficModel::deserialize(BinReader& r) {
  r.vec(tx_rate_);
  r.vec(rx_rate_);
  r.f64(delivery_rate_);
  r.f64(offered_rate_);
  r.f64(weighted_hops_);
  r.f64(delivering_rate_);
  r.size(delivering_sources_);
  std::size_t n = 0;
  r.size(n);
  WRSN_REQUIRE(rx_rate_.size() == tx_rate_.size() && tx_rate_.size() < kNoSlot,
               "traffic snapshot rate vectors mismatch");
  WRSN_REQUIRE(n <= tx_rate_.size(), "traffic snapshot lists too many sources");
  slot_.assign(tx_rate_.size(), kNoSlot);
  flows_.clear();
  active_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t source = 0;
    r.u64(source);
    WRSN_REQUIRE(source < slot_.size() && slot_[source] == kNoSlot,
                 "traffic snapshot source id out of range or repeated");
    SourceFlow& flow = claim_flow(static_cast<SensorId>(source), 0.0);
    r.f64(flow.rate_pps);
    std::vector<std::uint64_t> path;
    r.vec(path);
    flow.relay_path.assign(path.begin(), path.end());
    r.vec(flow.hop_etx);
    r.vec(flow.hop_success);
    r.f64(flow.path_success);
  }
}

Watt TrafficModel::radio_power(SensorId s, const RadioModel& radio) const {
  WRSN_REQUIRE(s < tx_rate_.size(), "sensor id out of range");
  // rate (1/s) x energy-per-packet (J) = power (W); plus the duty-cycled
  // idle-listening floor.
  Watt power = radio.idle_power + radio.listen_duty_cycle * radio.rx_power +
               Watt{tx_rate_[s] * radio.tx_energy_per_packet().value()} +
               Watt{rx_rate_[s] * radio.rx_energy_per_packet().value()};
  if (link_.enabled && link_.rx_duty_tax > 0.0 && rx_rate_[s] > 0.0) {
    // Actively receiving nodes keep the radio on longer to catch
    // retransmitted frames.
    power += link_.rx_duty_tax * radio.rx_power;
  }
  return power;
}

}  // namespace wrsn
