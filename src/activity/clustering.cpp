#include "activity/clustering.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace wrsn {

namespace {

// Phase 1 of Algorithm 1 by distance scan: P(t) per target in ascending
// sensor id.
void scan_candidates(const std::vector<Vec2>& sensor_pos,
                     const std::vector<Vec2>& target_pos, double sensing_range,
                     const std::vector<bool>& eligible, ClusterAdmission& out) {
  WRSN_REQUIRE(sensing_range > 0.0, "sensing range must be positive");
  WRSN_REQUIRE(eligible.empty() || eligible.size() == sensor_pos.size(),
               "eligible mask size mismatch");
  out.reset(sensor_pos.size());
  const double r2 = sensing_range * sensing_range;
  for (const Vec2& tp : target_pos) {
    for (SensorId s = 0; s < sensor_pos.size(); ++s) {
      if (!eligible.empty() && !eligible[s]) continue;
      if (squared_distance(sensor_pos[s], tp) <= r2) out.add_candidate(s);
    }
    out.end_target();
  }
}

}  // namespace

std::size_t ClusterSet::imbalance() const {
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t hi = 0;
  bool any = false;
  for (const auto& cluster : members) {
    // Clusters that could never receive a sensor (no candidates) do not
    // count against balance quality.
    if (cluster.empty()) continue;
    any = true;
    lo = std::min(lo, cluster.size());
    hi = std::max(hi, cluster.size());
  }
  return any ? hi - lo : 0;
}

void ClusterAdmission::reset(std::size_t num_sensors) {
  num_sensors_ = num_sensors;
  target_begin_.assign(1, 0);
  target_sensors_.clear();
}

void ClusterAdmission::add_candidate(SensorId s) {
  WRSN_REQUIRE(s < num_sensors_, "candidate sensor id out of range");
  target_sensors_.push_back(s);
}

void ClusterAdmission::end_target() { target_begin_.push_back(target_sensors_.size()); }

void ClusterAdmission::admit(ClusterSet& out) {
  const std::size_t n = num_sensors_;
  const std::size_t m = num_targets();
  out.members.resize(m);
  for (auto& members : out.members) members.clear();
  out.assignment.assign(n, kInvalidId);
  out.loads.assign(n, 0);
  std::size_t max_load = 0;
  for (const SensorId s : target_sensors_) max_load = std::max(max_load, ++out.loads[s]);

  // Candidate targets per sensor, ascending target id: sensor_begin_[s]
  // starts as the end of s's slice and is walked back while the targets are
  // visited in descending order.
  sensor_begin_.resize(n + 1);
  std::size_t total = 0;
  for (SensorId s = 0; s < n; ++s) {
    total += out.loads[s];
    sensor_begin_[s] = total;
  }
  sensor_begin_[n] = total;
  sensor_targets_.resize(total);
  for (TargetId t = m; t-- > 0;) {
    for (const SensorId s : candidates(t)) sensor_targets_[--sensor_begin_[s]] = t;
  }

  // The pool A: sensors with a candidate, ascending load, ties by id (a
  // counting sort over the loads).
  load_begin_.assign(max_load + 2, 0);
  for (SensorId s = 0; s < n; ++s) {
    if (out.loads[s] > 0) ++load_begin_[out.loads[s] + 1];
  }
  for (std::size_t l = 1; l < load_begin_.size(); ++l) {
    load_begin_[l] += load_begin_[l - 1];
  }
  pool_.resize(load_begin_.back());
  for (SensorId s = 0; s < n; ++s) {
    if (out.loads[s] > 0) pool_[load_begin_[out.loads[s]]++] = s;
  }

  // Phase 2: each sensor joins its candidate cluster with the least key
  // (size, size == 0 ? target id : -arrival stamp), where the stamp records
  // when the cluster reached its current size. This is the order a stable
  // re-sort of all targets by size before every admission yields: a cluster
  // that just grew lands at the front of its new size class.
  stamp_.assign(m, 0);
  std::uint64_t clock = 0;
  const auto before = [&](TargetId a, TargetId b) {
    const std::size_t sa = out.members[a].size();
    const std::size_t sb = out.members[b].size();
    if (sa != sb) return sa < sb;
    return sa == 0 ? a < b : stamp_[a] > stamp_[b];
  };
  for (const SensorId s : pool_) {
    TargetId best = sensor_targets_[sensor_begin_[s]];
    for (std::size_t k = sensor_begin_[s] + 1; k < sensor_begin_[s + 1]; ++k) {
      if (before(sensor_targets_[k], best)) best = sensor_targets_[k];
    }
    out.members[best].push_back(s);
    out.assignment[s] = best;
    stamp_[best] = ++clock;
  }
}

ClusterSet balanced_clustering(const std::vector<Vec2>& sensor_pos,
                               const std::vector<Vec2>& target_pos,
                               double sensing_range,
                               const std::vector<bool>& eligible) {
  ClusterAdmission admission;
  scan_candidates(sensor_pos, target_pos, sensing_range, eligible, admission);
  ClusterSet out;
  admission.admit(out);
  return out;
}

RebalanceResult rebalance_dirty(ClusterSet& clusters, SensorPosFn sensor_pos,
                                const std::vector<Vec2>& target_pos,
                                double sensing_range,
                                const std::vector<SensorId>& dirty) {
  WRSN_REQUIRE(sensing_range > 0.0, "sensing range must be positive");
  if (dirty.empty()) return {};
  const double r2 = sensing_range * sensing_range;

  // Fresh candidate sets for the dirty sensors only, by full target scan.
  std::vector<std::vector<TargetId>> cand(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const Vec2 p = sensor_pos(dirty[i]);
    for (TargetId t = 0; t < target_pos.size(); ++t) {
      if (squared_distance(p, target_pos[t]) <= r2) cand[i].push_back(t);
    }
  }
  return rebalance_dirty(clusters, cand, dirty);
}

RebalanceResult rebalance_dirty(ClusterSet& clusters,
                                const std::vector<std::vector<TargetId>>& cand,
                                const std::vector<SensorId>& dirty) {
  WRSN_REQUIRE(cand.size() == dirty.size(),
               "one candidate set per dirty sensor required");
  RebalanceResult out;
  if (dirty.empty()) return out;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    clusters.loads[dirty[i]] = cand[i].size();
  }

  // Detach everything first so cluster sizes reflect the removals before any
  // dirty sensor re-joins.
  std::vector<TargetId> old_target(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const SensorId s = dirty[i];
    old_target[i] = clusters.assignment[s];
    if (old_target[i] == kInvalidId) continue;
    auto& members = clusters.members[old_target[i]];
    members.erase(std::find(members.begin(), members.end(), s));
    clusters.assignment[s] = kInvalidId;
  }

  // Re-admit fewest-choices-first (dirty is ascending by id, so the stable
  // sort breaks load ties by id), each into its smallest candidate cluster
  // with ties broken by target id.
  std::vector<std::size_t> order(dirty.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return clusters.loads[dirty[a]] < clusters.loads[dirty[b]];
  });

  for (const std::size_t i : order) {
    const SensorId s = dirty[i];
    TargetId best = kInvalidId;
    std::size_t best_size = 0;
    for (const TargetId t : cand[i]) {
      const std::size_t size = clusters.members[t].size();
      if (best == kInvalidId || size < best_size) {
        best = t;
        best_size = size;
      }
    }
    if (best != kInvalidId) {
      clusters.members[best].push_back(s);
      clusters.assignment[s] = best;
    }
    if (best != old_target[i]) {
      out.moves.push_back({s, old_target[i], best});
      if (old_target[i] != kInvalidId) out.affected.push_back(old_target[i]);
      if (best != kInvalidId) out.affected.push_back(best);
    }
  }
  std::sort(out.affected.begin(), out.affected.end());
  out.affected.erase(std::unique(out.affected.begin(), out.affected.end()),
                     out.affected.end());
  return out;
}

ClusterSet naive_clustering(const std::vector<Vec2>& sensor_pos,
                            const std::vector<Vec2>& target_pos,
                            double sensing_range,
                            const std::vector<bool>& eligible) {
  ClusterAdmission cand;
  scan_candidates(sensor_pos, target_pos, sensing_range, eligible, cand);

  ClusterSet out;
  out.members.resize(target_pos.size());
  out.assignment.assign(sensor_pos.size(), kInvalidId);
  out.loads.assign(sensor_pos.size(), 0);
  for (TargetId t = 0; t < target_pos.size(); ++t) {
    for (SensorId s : cand.candidates(t)) {
      ++out.loads[s];
      if (out.assignment[s] == kInvalidId) {
        out.members[t].push_back(s);
        out.assignment[s] = t;
      }
    }
  }
  return out;
}

}  // namespace wrsn
