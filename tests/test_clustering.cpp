#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "activity/clustering.hpp"
#include "core/rng.hpp"
#include "net/deployment.hpp"

namespace wrsn {
namespace {

TEST(Clustering, SimpleTwoTargets) {
  // Two targets far apart, two sensors near each.
  const std::vector<Vec2> sensors = {{0, 0}, {1, 0}, {50, 50}, {51, 50}};
  const std::vector<Vec2> targets = {{0.5, 0.0}, {50.5, 50.0}};
  const ClusterSet cs = balanced_clustering(sensors, targets, 8.0);
  EXPECT_EQ(cs.members[0], (std::vector<SensorId>{0, 1}));
  EXPECT_EQ(cs.members[1], (std::vector<SensorId>{2, 3}));
  EXPECT_EQ(cs.assignment[0], 0u);
  EXPECT_EQ(cs.assignment[2], 1u);
  EXPECT_EQ(cs.imbalance(), 0u);
}

TEST(Clustering, SharedSensorsBalanceAcrossTargets) {
  // Four sensors all covering two coincident-ish targets: balanced split 2/2.
  const std::vector<Vec2> sensors = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  const std::vector<Vec2> targets = {{0.5, 0.4}, {0.5, 0.6}};
  const ClusterSet cs = balanced_clustering(sensors, targets, 8.0);
  EXPECT_EQ(cs.cluster_size(0), 2u);
  EXPECT_EQ(cs.cluster_size(1), 2u);
  EXPECT_EQ(cs.imbalance(), 0u);
}

TEST(Clustering, EachSensorAssignedToAtMostOneTarget) {
  Xoshiro256 rng(1);
  const auto sensors = deploy_uniform(300, 100.0, rng);
  const auto targets = deploy_uniform(10, 100.0, rng);
  const ClusterSet cs = balanced_clustering(sensors, targets, 10.0);
  std::set<SensorId> seen;
  for (TargetId t = 0; t < cs.num_clusters(); ++t) {
    for (SensorId s : cs.members[t]) {
      EXPECT_TRUE(seen.insert(s).second) << "sensor " << s << " in two clusters";
      EXPECT_EQ(cs.assignment[s], t);
    }
  }
}

TEST(Clustering, OnlyCoveringSensorsAssigned) {
  Xoshiro256 rng(2);
  const auto sensors = deploy_uniform(200, 100.0, rng);
  const auto targets = deploy_uniform(8, 100.0, rng);
  const double r = 9.0;
  const ClusterSet cs = balanced_clustering(sensors, targets, r);
  for (TargetId t = 0; t < cs.num_clusters(); ++t) {
    for (SensorId s : cs.members[t]) {
      EXPECT_LE(distance(sensors[s], targets[t]), r);
    }
  }
  // Every covering sensor IS assigned somewhere (the pool A is exhausted).
  for (SensorId s = 0; s < sensors.size(); ++s) {
    bool covers_any = false;
    for (const Vec2& tp : targets) {
      if (distance(sensors[s], tp) <= r) covers_any = true;
    }
    EXPECT_EQ(cs.assignment[s] != kInvalidId, covers_any) << "sensor " << s;
  }
}

TEST(Clustering, LoadsCountDetectableTargets) {
  const std::vector<Vec2> sensors = {{0, 0}, {100, 100}};
  const std::vector<Vec2> targets = {{1, 0}, {0, 1}, {99, 100}};
  const ClusterSet cs = balanced_clustering(sensors, targets, 5.0);
  EXPECT_EQ(cs.loads[0], 2u);
  EXPECT_EQ(cs.loads[1], 1u);
}

TEST(Clustering, EligibilityMaskExcludesDeadSensors) {
  const std::vector<Vec2> sensors = {{0, 0}, {1, 0}};
  const std::vector<Vec2> targets = {{0.5, 0}};
  const std::vector<bool> eligible = {false, true};
  const ClusterSet cs = balanced_clustering(sensors, targets, 8.0, eligible);
  EXPECT_EQ(cs.members[0], (std::vector<SensorId>{1}));
  EXPECT_EQ(cs.assignment[0], kInvalidId);
  EXPECT_EQ(cs.loads[0], 0u);
}

TEST(Clustering, EmptyTargets) {
  const std::vector<Vec2> sensors = {{0, 0}};
  const ClusterSet cs = balanced_clustering(sensors, {}, 8.0);
  EXPECT_EQ(cs.num_clusters(), 0u);
  EXPECT_EQ(cs.assignment[0], kInvalidId);
}

TEST(Clustering, EmptySensors) {
  const std::vector<Vec2> targets = {{0, 0}};
  const ClusterSet cs = balanced_clustering({}, targets, 8.0);
  EXPECT_EQ(cs.num_clusters(), 1u);
  EXPECT_TRUE(cs.members[0].empty());
}

TEST(Clustering, BalancedBeatsNaiveOnOverlap) {
  // Two overlapping targets with 6 sensors covering both: naive piles all on
  // target 0, balanced splits 3/3.
  std::vector<Vec2> sensors;
  for (int i = 0; i < 6; ++i) sensors.push_back({static_cast<double>(i), 0.0});
  const std::vector<Vec2> targets = {{2.5, 1.0}, {2.5, -1.0}};
  const ClusterSet balanced = balanced_clustering(sensors, targets, 10.0);
  const ClusterSet naive = naive_clustering(sensors, targets, 10.0);
  EXPECT_EQ(balanced.imbalance(), 0u);
  EXPECT_EQ(naive.cluster_size(0), 6u);
  EXPECT_EQ(naive.cluster_size(1), 0u);
  EXPECT_LE(balanced.imbalance(), naive.imbalance());
}

// Property sweep: on random instances, balanced clustering never loses to
// naive clustering on the imbalance metric, and both assign the identical
// sensor pool.
class ClusteringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringProperty, BalanceAndPoolInvariants) {
  Xoshiro256 rng(GetParam());
  const std::size_t n = 50 + rng.uniform_int(250);
  const std::size_t m = 2 + rng.uniform_int(14);
  const double side = 60.0 + rng.uniform(0.0, 140.0);
  const double r = 5.0 + rng.uniform(0.0, 15.0);
  const auto sensors = deploy_uniform(n, side, rng);
  const auto targets = deploy_uniform(m, side, rng);

  const ClusterSet balanced = balanced_clustering(sensors, targets, r);
  const ClusterSet naive = naive_clustering(sensors, targets, r);

  // Same pool of assigned sensors.
  std::size_t nb = 0, nn = 0;
  for (SensorId s = 0; s < n; ++s) {
    nb += balanced.assignment[s] != kInvalidId;
    nn += naive.assignment[s] != kInvalidId;
  }
  EXPECT_EQ(nb, nn);

  // Balanced is never worse on imbalance.
  EXPECT_LE(balanced.imbalance(), naive.imbalance());

  // Geometric validity.
  for (TargetId t = 0; t < m; ++t) {
    for (SensorId s : balanced.members[t]) {
      EXPECT_LE(distance(sensors[s], targets[t]), r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ClusteringProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// Most-recent-first tie-break: s0 and s1 each see one target, so clusters
// 0 and 1 both reach size 1, cluster 1 last. s2 sees both and joins the one
// that reached size 1 most recently (1), not the lower id (0).
TEST(Clustering, EqualSizeTieGoesToMostRecentlyGrownCluster) {
  const std::vector<Vec2> sensors = {{-3, 0}, {13, 0}, {5, 0}};
  const std::vector<Vec2> targets = {{0, 0}, {10, 0}};
  const ClusterSet cs = balanced_clustering(sensors, targets, 6.0);
  EXPECT_EQ(cs.loads, (std::vector<std::size_t>{1, 1, 2}));
  EXPECT_EQ(cs.members[0], (std::vector<SensorId>{0}));
  EXPECT_EQ(cs.members[1], (std::vector<SensorId>{1, 2}));
  EXPECT_EQ(cs.assignment[2], 1u);
}

// Oracle for the admission kernel: balanced_clustering as it was before the
// kernel, kept verbatim — the O(M*N) candidate scan, then a stable re-sort
// of all targets by cluster size before every admission.
ClusterSet resort_clustering(const std::vector<Vec2>& sensor_pos,
                             const std::vector<Vec2>& target_pos,
                             double sensing_range,
                             const std::vector<bool>& eligible) {
  struct Candidates {
    std::vector<std::vector<SensorId>> per_target;  // P
    std::vector<std::size_t> loads;
    std::vector<SensorId> pool;  // A
  };
  const auto is_eligible = [&](SensorId s) {
    return eligible.empty() || eligible[s];
  };
  Candidates cand;
  cand.per_target.resize(target_pos.size());
  cand.loads.assign(sensor_pos.size(), 0);
  const double r2 = sensing_range * sensing_range;
  for (TargetId t = 0; t < target_pos.size(); ++t) {
    for (SensorId s = 0; s < sensor_pos.size(); ++s) {
      if (!is_eligible(s)) continue;
      if (squared_distance(sensor_pos[s], target_pos[t]) <= r2) {
        cand.per_target[t].push_back(s);
        ++cand.loads[s];
      }
    }
  }
  for (SensorId s = 0; s < sensor_pos.size(); ++s) {
    if (cand.loads[s] > 0) cand.pool.push_back(s);
  }

  ClusterSet out;
  out.members.resize(target_pos.size());
  out.assignment.assign(sensor_pos.size(), kInvalidId);
  out.loads = cand.loads;

  // A sorted ascending by load; ties broken by id for determinism.
  std::stable_sort(cand.pool.begin(), cand.pool.end(), [&](SensorId a, SensorId b) {
    return cand.loads[a] < cand.loads[b];
  });

  // Membership lookup: covered[t] answers "is s in P(t)" in O(1).
  std::vector<std::vector<bool>> covered(target_pos.size(),
                                         std::vector<bool>(sensor_pos.size(), false));
  for (TargetId t = 0; t < target_pos.size(); ++t) {
    for (SensorId s : cand.per_target[t]) covered[t][s] = true;
  }

  std::vector<std::size_t> sizes(target_pos.size(), 0);  // U
  std::vector<TargetId> order(target_pos.size());
  for (TargetId t = 0; t < target_pos.size(); ++t) order[t] = t;

  for (SensorId s : cand.pool) {
    std::stable_sort(order.begin(), order.end(),
                     [&](TargetId a, TargetId b) { return sizes[a] < sizes[b]; });
    for (TargetId t : order) {
      if (covered[t][s]) {
        out.members[t].push_back(s);
        out.assignment[s] = t;
        ++sizes[t];
        break;
      }
    }
  }
  return out;
}

// Differential check of the admission kernel against the re-sort oracle on
// 2,400 random instances: tie-heavy overlap (many targets in a small
// field), eligibility masks, targets out of everyone's range, and more
// targets than sensors. The kernel also runs through one reused
// ClusterAdmission/ClusterSet pair fed with P(t) in shuffled order, the way
// the simulator feeds it from unsorted grid cells.
TEST(Clustering, AdmissionKernelMatchesResortOracle) {
  Xoshiro256 rng(20150901);
  ClusterAdmission reused;
  ClusterSet reused_out;
  std::size_t ties = 0;
  for (int inst = 0; inst < 2400; ++inst) {
    const std::size_t n = rng.uniform_int(61);
    const std::size_t m = rng.uniform_int(25);
    // Small fields with a large range give heavily overlapping discs.
    const double side = 5.0 + rng.uniform(0.0, 60.0);
    const double r = 2.0 + rng.uniform(0.0, 20.0);
    const auto sensors = deploy_uniform(n, side, rng);
    auto targets = deploy_uniform(m, side, rng);
    for (Vec2& t : targets) {
      if (rng.uniform() < 0.1) t = {side + 10.0 * r, side + 10.0 * r};  // unreachable
    }
    std::vector<bool> eligible;
    if (rng.uniform() < 0.5) {
      const double p = rng.uniform();
      for (std::size_t s = 0; s < n; ++s) eligible.push_back(rng.uniform() < p);
    }

    const ClusterSet want = resort_clustering(sensors, targets, r, eligible);
    const ClusterSet got = balanced_clustering(sensors, targets, r, eligible);
    ASSERT_EQ(got.members, want.members) << "instance " << inst;
    ASSERT_EQ(got.assignment, want.assignment) << "instance " << inst;
    ASSERT_EQ(got.loads, want.loads) << "instance " << inst;

    reused.reset(n);
    std::vector<SensorId> p_t;
    for (TargetId t = 0; t < m; ++t) {
      p_t.clear();
      for (SensorId s = 0; s < n; ++s) {
        if ((eligible.empty() || eligible[s]) &&
            squared_distance(sensors[s], targets[t]) <= r * r) {
          p_t.push_back(s);
        }
      }
      for (std::size_t i = p_t.size(); i > 1; --i) {
        std::swap(p_t[i - 1], p_t[rng.uniform_int(i)]);
      }
      for (const SensorId s : p_t) reused.add_candidate(s);
      reused.end_target();
    }
    reused.admit(reused_out);
    ASSERT_EQ(reused_out.members, want.members) << "instance " << inst;
    ASSERT_EQ(reused_out.assignment, want.assignment) << "instance " << inst;
    ASSERT_EQ(reused_out.loads, want.loads) << "instance " << inst;

    // Count instances where some admitted sensor faced an equal-size tie
    // between non-empty clusters, so the sweep provably exercises the
    // most-recent-first rule.
    std::vector<std::size_t> size(m, 0);
    std::vector<std::pair<std::size_t, SensorId>> order;
    for (SensorId s = 0; s < n; ++s) {
      if (want.loads[s] > 0) order.emplace_back(want.loads[s], s);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    bool tie = false;
    for (const auto& [load, s] : order) {
      const TargetId joined = want.assignment[s];
      for (TargetId t = 0; t < m && !tie; ++t) {
        tie = t != joined && size[t] == size[joined] && size[t] > 0 &&
              squared_distance(sensors[s], targets[t]) <= r * r;
      }
      ++size[joined];
    }
    ties += tie ? 1 : 0;
  }
  EXPECT_GE(ties, 200u) << "too few instances exercise the tie-break";
}

TEST(Clustering, DeterministicOutput) {
  Xoshiro256 rng(77);
  const auto sensors = deploy_uniform(150, 90.0, rng);
  const auto targets = deploy_uniform(6, 90.0, rng);
  const ClusterSet a = balanced_clustering(sensors, targets, 9.0);
  const ClusterSet b = balanced_clustering(sensors, targets, 9.0);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.members, b.members);
}

}  // namespace
}  // namespace wrsn
