#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "sched/tsp.hpp"

namespace wrsn {
namespace {

double brute_force_best(Vec2 start, const std::vector<Vec2>& pts) {
  std::vector<std::size_t> perm(pts.size());
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    best = std::min(best, open_tour_length(start, pts, perm));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Tsp, NearestNeighborVisitsAll) {
  const std::vector<Vec2> pts = {{5, 0}, {1, 0}, {3, 0}};
  const auto order = nearest_neighbor_tour({0, 0}, pts);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Tsp, NearestNeighborEmptyAndSingle) {
  EXPECT_TRUE(nearest_neighbor_tour({0, 0}, {}).empty());
  EXPECT_EQ(nearest_neighbor_tour({0, 0}, {{3, 4}}),
            (std::vector<std::size_t>{0}));
}

TEST(Tsp, OpenTourLength) {
  const std::vector<Vec2> pts = {{3, 4}, {3, 8}};
  EXPECT_DOUBLE_EQ(open_tour_length({0, 0}, pts, {0, 1}), 5.0 + 4.0);
  EXPECT_DOUBLE_EQ(open_tour_length({0, 0}, pts, {}), 0.0);
}

TEST(Tsp, NearestNeighborIsPermutation) {
  Xoshiro256 rng(3);
  const auto pts = deploy_uniform(50, 30.0, rng);
  const auto order = nearest_neighbor_tour({15, 15}, pts);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Tsp, TwoOptNeverWorsens) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pts = deploy_uniform(15, 20.0, rng);
    const Vec2 start{10, 10};
    auto order = nearest_neighbor_tour(start, pts);
    const double before = open_tour_length(start, pts, order);
    two_opt(start, pts, order);
    const double after = open_tour_length(start, pts, order);
    EXPECT_LE(after, before + 1e-9) << "trial " << trial;
    // Still a permutation.
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(Tsp, TwoOptFixesObviousCrossing) {
  // start at origin; NN from origin picks 0,1,2,3 badly crossing; construct a
  // deliberate crossing order and let 2-opt untangle it.
  const std::vector<Vec2> pts = {{0, 10}, {10, 0}, {10, 10}, {0, 20}};
  std::vector<std::size_t> order = {1, 0, 2, 3};  // zig-zag
  two_opt({0, 0}, pts, order);
  const double len = open_tour_length({0, 0}, pts, order);
  EXPECT_LE(len, open_tour_length({0, 0}, pts, {1, 0, 2, 3}) - 1e-9);
}

// Property: NN + 2-opt is within 25% of the brute-force optimum on small
// random instances (cluster-scale n).
class TourQuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TourQuality, NearOptimalAtClusterScale) {
  Xoshiro256 rng(GetParam());
  const std::size_t n = 4 + rng.uniform_int(4);  // 4..7 points
  const auto pts = deploy_uniform(n, 16.0, rng);  // cluster diameter ~ 2*d_s
  const Vec2 start{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
  auto order = nearest_neighbor_tour(start, pts);
  two_opt(start, pts, order);
  const double len = open_tour_length(start, pts, order);
  const double best = brute_force_best(start, pts);
  EXPECT_LE(len, best * 1.25 + 1e-9);
  EXPECT_GE(len, best - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, TourQuality,
                         ::testing::Range<std::uint64_t>(100, 125));

TEST(Tsp, TourLengthIndexValidation) {
  const std::vector<Vec2> pts = {{1, 1}};
  EXPECT_THROW((void)open_tour_length({0, 0}, pts, {5}), InvalidArgument);
}

TEST(Tsp, TwoOptIndexValidation) {
  const std::vector<Vec2> pts = {{1, 1}, {2, 2}, {3, 3}};
  std::vector<std::size_t> order = {0, 1, 7};
  EXPECT_THROW(two_opt({0, 0}, pts, order), InvalidArgument);
}

TEST(Tsp, NearestNeighborTieGoesToLowerIndex) {
  // Points 1 and 2 are both 1 m from the start; the lower index goes first.
  const std::vector<Vec2> pts = {{3, 0}, {-1, 0}, {1, 0}};
  EXPECT_EQ(nearest_neighbor_tour({0, 0}, pts),
            (std::vector<std::size_t>{1, 2, 0}));
  // Same geometry with the tied points' indices swapped.
  const std::vector<Vec2> swapped = {{3, 0}, {1, 0}, {-1, 0}};
  EXPECT_EQ(nearest_neighbor_tour({0, 0}, swapped),
            (std::vector<std::size_t>{1, 0, 2}));
}

// A shuffled tour over a random ~70% subset of 5..404 random points. The
// discarded draws keep the RNG stream aligned with random_instance() in
// test_planner_equivalence.cpp, so a seed gives the same points and start
// (the RV position) as that generator does.
struct SubsetTour {
  std::vector<Vec2> points;
  Vec2 start;
  std::vector<std::size_t> order;
};

SubsetTour random_subset_tour(Xoshiro256& rng) {
  SubsetTour tour;
  const std::size_t n = 5 + rng.uniform_int(400);
  const double side = rng.uniform(20.0, 1200.0);
  const bool all_critical = rng.uniform() < 0.05;
  const bool zero_budget = rng.uniform() < 0.05;
  for (std::size_t i = 0; i < n; ++i) {
    tour.points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    (void)rng.uniform();                    // demand
    if (!all_critical) (void)rng.uniform();  // critical flag
    (void)rng.uniform();                    // min_fraction
  }
  for (int draw = 0; draw < 3; ++draw) (void)rng.uniform();  // base, e_m
  tour.start = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  if (!zero_budget) (void)rng.uniform();  // RV budget
  for (std::size_t i = 0; i < n; ++i) (void)rng.uniform();  // taken mask
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.7) tour.order.push_back(i);
  }
  // Shuffle so the tour is not already nearest-neighbour shaped.
  for (std::size_t i = tour.order.size(); i > 1; --i) {
    std::swap(tour.order[i - 1], tour.order[rng.uniform_int(i)]);
  }
  return tour;
}

TEST(Tsp, TwoOptOnSubsetToursPermutesAndNeverWorsens) {
  // `order` may index only a subset of `points` (the world plans tours over
  // served items only).
  Xoshiro256 rng(6006);
  for (int t = 0; t < 50; ++t) {
    const SubsetTour tour = random_subset_tour(rng);
    auto order = tour.order;
    two_opt(tour.start, tour.points, order);
    auto sorted_in = tour.order;
    auto sorted_out = order;
    std::sort(sorted_in.begin(), sorted_in.end());
    std::sort(sorted_out.begin(), sorted_out.end());
    ASSERT_EQ(sorted_in, sorted_out) << "trial " << t;
    EXPECT_LE(open_tour_length(tour.start, tour.points, order),
              open_tour_length(tour.start, tour.points, tour.order) + 1e-9)
        << "trial " << t;
  }
}

}  // namespace
}  // namespace wrsn
