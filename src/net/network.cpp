#include "net/network.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "net/deployment.hpp"

namespace wrsn {

Network::Network(const SimConfig& config, Xoshiro256& deploy_rng,
                 Xoshiro256& target_rng)
    : config_(config),
      base_station_{config.field_side.value() / 2.0, config.field_side.value() / 2.0},
      sensing_grid_(config.field_side.value(),
                    std::max(config.sensing_range.value(), 1.0)) {
  config_.validate();

  const double side = config.field_side.value();
  std::vector<Vec2> positions = deploy_uniform(config.num_sensors, side, deploy_rng);
  sensors_.resize(config.num_sensors);
  for (SensorId i = 0; i < config.num_sensors; ++i) {
    sensors_[i].id = i;
    sensors_[i].pos = positions[i];
    sensors_[i].battery = Battery(config.battery.capacity);
  }
  sensing_grid_.build(positions);

  targets_.resize(config.num_targets);
  for (TargetId t = 0; t < config.num_targets; ++t) {
    targets_[t].id = t;
    targets_[t].pos = random_location(side, target_rng);
  }

  graph_ = CommGraph(positions, base_station_, config.comm_range.value());
  rebuild_routing();
}

std::vector<SensorId> Network::sensors_covering(Vec2 point) const {
  return sensing_grid_.query_radius(point, config_.sensing_range.value());
}

std::size_t Network::count_covering(Vec2 point) const {
  return sensing_grid_.count_in_radius(point, config_.sensing_range.value());
}

bool Network::any_covering(Vec2 point) const {
  return sensing_grid_.any_in_radius(point, config_.sensing_range.value());
}

bool Network::any_covering_scan(Vec2 point) const {
  const double r2 =
      config_.sensing_range.value() * config_.sensing_range.value();
  for (const Sensor& s : sensors_) {
    if (squared_distance(s.pos, point) <= r2) return true;
  }
  return false;
}

void Network::relocate_target(TargetId id, Xoshiro256& rng) {
  WRSN_REQUIRE(id < targets_.size(), "target id out of range");
  targets_[id].pos = random_location(config_.field_side.value(), rng);
}

void Network::set_target_position(TargetId id, Vec2 pos) {
  WRSN_REQUIRE(id < targets_.size(), "target id out of range");
  const double side = config_.field_side.value();
  WRSN_REQUIRE(pos.x >= 0.0 && pos.x <= side && pos.y >= 0.0 && pos.y <= side,
               "target position outside the field");
  targets_[id].pos = pos;
}

bool Network::rebuild_routing() {
  // Compare in place: this runs on every recluster, and an unchanged mask
  // (the common case) must not cost an allocation.
  bool same = routing_.built() && last_alive_mask_.size() == sensors_.size();
  for (std::size_t i = 0; same && i < sensors_.size(); ++i) {
    same = last_alive_mask_[i] == sensors_[i].alive();
  }
  if (same) return false;
  last_alive_mask_.resize(sensors_.size());
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    last_alive_mask_[i] = sensors_[i].alive();
  }
  routing_.build(graph_, last_alive_mask_);
  return true;
}

void Network::restore_routing(const std::vector<bool>& alive_mask) {
  WRSN_REQUIRE(alive_mask.size() == sensors_.size(),
               "alive mask size mismatch");
  routing_.build(graph_, alive_mask);
  last_alive_mask_ = alive_mask;
}

std::size_t Network::alive_count() const {
  return static_cast<std::size_t>(
      std::count_if(sensors_.begin(), sensors_.end(),
                    [](const Sensor& s) { return s.alive(); }));
}

}  // namespace wrsn
