#pragma once
// Balanced Clustering (Algorithm 1, Section III-A).
//
// Sensors that can detect at least one target are assigned to exactly one
// target each, so every target ends up with a cluster of near-equal size.
// Assignment order is ascending sensor load (number of detectable targets:
// fewer choices first, ties by sensor id), and each sensor joins its
// smallest candidate cluster. Among candidate clusters of equal size the one
// that reached that size most recently wins; clusters that are still empty
// go by target id.
//
// The algorithm runs in two phases. Phase 1 builds the candidate sets P(t)
// (eligible sensors within sensing range of each target); Phase 2 admits
// the sensors. ClusterAdmission holds both: the caller fills P(t) from any
// source (balanced_clustering's distance scan, or the simulator's sensing
// grid) and admit() runs the one shared Phase 2 kernel.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "net/ids.hpp"

namespace wrsn {

struct ClusterSet {
  // members[t] = sensors assigned to target t, in assignment order.
  std::vector<std::vector<SensorId>> members;
  // assignment[s] = target of sensor s, kInvalidId when unassigned.
  std::vector<TargetId> assignment;
  // loads[s] = number of targets sensor s can detect (candidate count).
  std::vector<std::size_t> loads;

  [[nodiscard]] std::size_t num_clusters() const { return members.size(); }
  [[nodiscard]] std::size_t cluster_size(TargetId t) const { return members[t].size(); }
  // Max minus min size over non-empty-candidate clusters; the balance
  // quality metric used by tests.
  [[nodiscard]] std::size_t imbalance() const;
};

// Algorithm 1 with caller-fed candidate sets and reusable buffers: a
// repeated full recluster allocates nothing once the buffers are warm.
// Phase 1 costs whatever the caller's source costs: O(M*N) for
// balanced_clustering's scan, O(sum of |P(t)| + grid cells visited) for the
// simulator's per-target sensing-grid queries. Phase 2 is admit() below.
//
//   ClusterAdmission a;
//   a.reset(num_sensors);
//   for each target t in id order:
//     for each eligible sensor s within range of t: a.add_candidate(s);
//     a.end_target();
//   a.admit(clusters);
class ClusterAdmission {
 public:
  // Starts Phase 1 over sensors [0, num_sensors): drops every candidate set.
  void reset(std::size_t num_sensors);
  // Adds sensor s to P(t) of the target being filled (targets are filled in
  // id order, starting at 0). A set may list its sensors in any order but
  // must not list one twice.
  void add_candidate(SensorId s);
  // Closes the current target's P(t); the next add_candidate fills the next
  // target.
  void end_target();

  [[nodiscard]] std::size_t num_targets() const { return target_begin_.size() - 1; }
  // P(t) as filled, in insertion order.
  [[nodiscard]] std::span<const SensorId> candidates(TargetId t) const {
    return {target_sensors_.data() + target_begin_[t],
            target_begin_[t + 1] - target_begin_[t]};
  }

  // Phase 2 over the closed targets: overwrites `out` (its storage is
  // reused). Runs in O(N + M + sum of loads) for N sensors and M targets.
  void admit(ClusterSet& out);

 private:
  std::size_t num_sensors_ = 0;
  // P(t) for every target, flat: target_sensors_[target_begin_[t] ..
  // target_begin_[t + 1]).
  std::vector<std::size_t> target_begin_{0};
  std::vector<SensorId> target_sensors_;
  // Admission scratch: the inverse table (candidate targets per sensor), the
  // load-ordered pool A and the per-cluster arrival stamps.
  std::vector<std::size_t> sensor_begin_;
  std::vector<TargetId> sensor_targets_;
  std::vector<std::size_t> load_begin_;
  std::vector<SensorId> pool_;
  std::vector<std::uint64_t> stamp_;
};

// Algorithm 1 with Phase 1 as a distance scan over every (target, sensor)
// pair: O(M*N) for candidates, then ClusterAdmission's kernel. The
// simulator's reference engine uses this scan as the oracle for the grid-fed
// candidates. `eligible[s]` (when non-empty) masks which sensors may be
// clustered — the simulator passes the alive mask.
[[nodiscard]] ClusterSet balanced_clustering(const std::vector<Vec2>& sensor_pos,
                                             const std::vector<Vec2>& target_pos,
                                             double sensing_range,
                                             const std::vector<bool>& eligible = {});

// Outcome of a scoped (dirty-region) rebalance: which clusters changed and
// which sensors switched clusters, so the caller can splice rotors, monitor
// activation and coverage counters without touching the rest of the network.
struct RebalanceResult {
  struct Move {
    SensorId sensor = kInvalidId;
    TargetId from = kInvalidId;  // kInvalidId: was unassigned
    TargetId to = kInvalidId;    // kInvalidId: no candidate cluster remains
  };
  std::vector<Move> moves;          // sensors whose assignment changed
  std::vector<TargetId> affected;   // clusters whose member set changed (sorted)
};

// Non-owning position callback for rebalance_dirty: two raw pointers, no
// allocation or type-erasure bookkeeping (a std::function here showed up in
// event-loop profiles — rebalance runs on every target waypoint step). The
// referenced callable must outlive the rebalance_dirty call, which is always
// the case for a call-site lambda.
class SensorPosFn {
 public:
  template <typename F>
  // NOLINTNEXTLINE(google-explicit-constructor): intentionally implicit
  SensorPosFn(const F& f)
      : obj_(&f), call_([](const void* o, SensorId s) -> Vec2 {
          return (*static_cast<const F*>(o))(s);
        }) {}

  Vec2 operator()(SensorId s) const { return call_(obj_, s); }

 private:
  const void* obj_;
  Vec2 (*call_)(const void*, SensorId);
};

// Re-runs Algorithm 1's assignment rule for `dirty` only (sorted ascending,
// no duplicates, eligible sensors): refreshes their candidate sets/loads
// against the current target positions, detaches them, and re-admits them
// fewest-choices-first into the smallest candidate cluster (ties by target
// id). All other memberships are left untouched; cluster sizes seen during
// re-admission include them. `sensor_pos` maps a sensor id to its position
// so callers need not materialize an O(N) position vector per call.
[[nodiscard]] RebalanceResult rebalance_dirty(ClusterSet& clusters,
                                              SensorPosFn sensor_pos,
                                              const std::vector<Vec2>& target_pos,
                                              double sensing_range,
                                              const std::vector<SensorId>& dirty);

// Core of the scoped rebalance with caller-supplied candidate sets:
// `cand[i]` lists the targets within sensing range of `dirty[i]`, ascending
// by target id (the admission tie-break), and must contain exactly the
// targets the O(M) distance scan would find. Lets the simulator answer the
// candidate queries from a spatial index over the targets instead of
// scanning every target per dirty sensor — the scan dominated the event
// loop at large n, where a waypoint step dirties a handful of sensors but
// the field holds a thousand targets.
[[nodiscard]] RebalanceResult rebalance_dirty(
    ClusterSet& clusters, const std::vector<std::vector<TargetId>>& cand,
    const std::vector<SensorId>& dirty);

// Baseline used in tests/ablation: first-come (unbalanced) clustering, i.e.
// every sensor simply joins the first target it detects. Exposes how much
// Algorithm 1's balancing actually buys.
[[nodiscard]] ClusterSet naive_clustering(const std::vector<Vec2>& sensor_pos,
                                          const std::vector<Vec2>& target_pos,
                                          double sensing_range,
                                          const std::vector<bool>& eligible = {});

}  // namespace wrsn
