#pragma once
// The deployed network: N sensors uniform over the field, M mobile targets,
// a base station at the field centre (Section II-A), the communication
// graph, and the BS-rooted Dijkstra routing forest over alive sensors.

#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/rng.hpp"
#include "geom/grid.hpp"
#include "net/graph.hpp"
#include "net/ids.hpp"
#include "net/routing.hpp"
#include "net/sensor.hpp"

namespace wrsn {

class Network {
 public:
  // Deploys sensors and targets using the given streams (deterministic).
  Network(const SimConfig& config, Xoshiro256& deploy_rng, Xoshiro256& target_rng);

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] Vec2 base_station() const { return base_station_; }

  [[nodiscard]] std::size_t num_sensors() const { return sensors_.size(); }
  [[nodiscard]] std::size_t num_targets() const { return targets_.size(); }
  [[nodiscard]] const std::vector<Sensor>& sensors() const { return sensors_; }
  [[nodiscard]] std::vector<Sensor>& sensors() { return sensors_; }
  [[nodiscard]] const Sensor& sensor(SensorId id) const { return sensors_[id]; }
  [[nodiscard]] Sensor& sensor(SensorId id) { return sensors_[id]; }
  [[nodiscard]] const std::vector<Target>& targets() const { return targets_; }
  [[nodiscard]] const Target& target(TargetId id) const { return targets_[id]; }

  // Ids of all sensors (alive or not) whose sensing disc contains `point`.
  // Allocates the result vector; hot paths that only need the count, a
  // yes/no, or a pass over the ids should use the allocation-free forms
  // below instead.
  [[nodiscard]] std::vector<SensorId> sensors_covering(Vec2 point) const;

  // Number of sensors whose sensing disc contains `point`, without
  // allocating.
  [[nodiscard]] std::size_t count_covering(Vec2 point) const;

  // Whether any sensor's sensing disc contains `point`; early-exits on the
  // first hit.
  [[nodiscard]] bool any_covering(Vec2 point) const;

  // Grid-free linear-scan equivalent of any_covering (identical predicate,
  // identical result). The reference world engine uses this so a spatial-
  // grid bug cannot hide in both engines at once.
  [[nodiscard]] bool any_covering_scan(Vec2 point) const;

  // Visits the id of every sensor whose sensing disc contains `point`
  // (unsorted cell order), without allocating.
  template <typename Fn>
  void for_each_covering(Vec2 point, Fn&& fn) const {
    sensing_grid_.for_each_in_radius(point, config_.sensing_range.value(),
                                     std::forward<Fn>(fn));
  }

  // Moves the target to a fresh uniform random location.
  void relocate_target(TargetId id, Xoshiro256& rng);
  // Places the target at an explicit position (random-waypoint motion).
  void set_target_position(TargetId id, Vec2 pos);

  [[nodiscard]] const CommGraph& graph() const { return graph_; }
  [[nodiscard]] const RouteTable& routing() const { return routing_; }

  // Rebuilds the routing forest over currently-alive sensors. Call after any
  // death or recharge-revival. Returns true when the alive mask actually
  // changed since the previous build (callers use this to skip reroutes).
  bool rebuild_routing();

  // Checkpoint support: the mask the current routing forest was built from.
  // Can lag the actual alive flags (a death crossing may be pending), so a
  // restore must rebuild routing from this serialized mask, not from the
  // restored sensors. Dijkstra is a pure function of the graph and the mask,
  // so rebuilding reproduces the checkpointed forest exactly.
  [[nodiscard]] const std::vector<bool>& last_alive_mask() const {
    return last_alive_mask_;
  }
  void restore_routing(const std::vector<bool>& alive_mask);

  [[nodiscard]] std::size_t alive_count() const;

 private:
  SimConfig config_;
  Vec2 base_station_;
  std::vector<Sensor> sensors_;
  std::vector<Target> targets_;
  SpatialGrid sensing_grid_;  // sensor positions, for coverage queries
  CommGraph graph_;
  RouteTable routing_;
  std::vector<bool> last_alive_mask_;
};

}  // namespace wrsn
