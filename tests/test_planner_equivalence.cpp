// Property tests: the grid-pruned PlanContext queries
// (sched/plan_context.hpp) must be bit-identical to the linear-scan
// reference planners on every input — same picks, same sequences. Instances
// are sized past the small-n reference dispatch threshold so the pruned code
// paths are what actually runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.hpp"
#include "sched/plan_context.hpp"
#include "sched/planner.hpp"

namespace {

using namespace wrsn;

struct Instance {
  std::vector<RechargeItem> items;
  PlannerParams params{JoulePerMeter{5.6}, Vec2{100.0, 100.0}};
  RvPlanState rv{{0.0, 0.0}, Joule{0.0}};
  std::vector<bool> taken;
};

// A random planning instance. Sizes span PlanContext's small-n dispatch
// threshold (16 items); fields vary from dense to sparse; some draws are
// all-critical or zero-budget.
Instance random_instance(Xoshiro256& rng) {
  Instance inst;
  const std::size_t n = 5 + rng.uniform_int(400);
  const double side = rng.uniform(20.0, 1200.0);
  const bool all_critical = rng.uniform() < 0.05;
  const bool zero_budget = rng.uniform() < 0.05;
  inst.items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RechargeItem it;
    it.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
    it.demand = Joule{rng.uniform(100.0, 4000.0)};
    it.critical = all_critical || rng.uniform() < 0.15;
    it.min_fraction = rng.uniform(0.01, 0.99);
    it.sensors = {i};
    inst.items.push_back(std::move(it));
  }
  inst.params.base = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  inst.params.em = JoulePerMeter{rng.uniform(1.0, 10.0)};
  inst.rv.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  inst.rv.available =
      zero_budget ? Joule{0.0} : Joule{rng.uniform(1e3, 5e6)};
  inst.taken.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.2) inst.taken[i] = true;
  }
  return inst;
}

constexpr int kTrials = 200;

TEST(PlannerEquivalence, GreedyNextMatchesReference) {
  Xoshiro256 rng(1001);
  for (int t = 0; t < kTrials; ++t) {
    const Instance inst = random_instance(rng);
    const PlanContext ctx(inst.items, inst.params);
    const auto ref = greedy_next(inst.rv, inst.items, inst.taken, inst.params);
    const auto opt = ctx.greedy_next(inst.rv, inst.taken);
    ASSERT_EQ(ref.has_value(), opt.has_value()) << "trial " << t;
    if (ref) {
      ASSERT_EQ(*ref, *opt) << "trial " << t;
    }
  }
}

TEST(PlannerEquivalence, NearestNextMatchesReference) {
  Xoshiro256 rng(2002);
  for (int t = 0; t < kTrials; ++t) {
    const Instance inst = random_instance(rng);
    const PlanContext ctx(inst.items, inst.params);
    const auto ref = nearest_next(inst.rv, inst.items, inst.taken, inst.params);
    const auto opt = ctx.nearest_next(inst.rv, inst.taken);
    ASSERT_EQ(ref.has_value(), opt.has_value()) << "trial " << t;
    if (ref) {
      ASSERT_EQ(*ref, *opt) << "trial " << t;
    }
  }
}

TEST(PlannerEquivalence, InsertionSequenceMatchesReference) {
  Xoshiro256 rng(3003);
  for (int t = 0; t < kTrials; ++t) {
    const Instance inst = random_instance(rng);
    const PlanContext ctx(inst.items, inst.params);
    std::vector<bool> taken_ref = inst.taken;
    std::vector<bool> taken_opt = inst.taken;
    const auto ref =
        insertion_sequence(inst.rv, inst.items, taken_ref, inst.params);
    const auto opt = ctx.insertion_sequence(inst.rv, taken_opt);
    ASSERT_EQ(ref, opt) << "trial " << t;
    ASSERT_EQ(taken_ref, taken_opt) << "trial " << t;
  }
}

TEST(PlannerEquivalence, AllCriticalAndZeroBudgetEdgeCases) {
  // Deterministic corners on top of the random draws above.
  Xoshiro256 rng(8008);
  for (const bool critical : {false, true}) {
    for (const double budget : {0.0, 1e4, 1e9}) {
      std::vector<RechargeItem> items;
      const std::size_t n = 200;
      for (std::size_t i = 0; i < n; ++i) {
        RechargeItem it;
        it.pos = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        it.demand = Joule{rng.uniform(100.0, 4000.0)};
        it.critical = critical;
        it.sensors = {i};
        items.push_back(std::move(it));
      }
      const PlannerParams params{JoulePerMeter{5.6}, Vec2{150.0, 150.0}};
      const RvPlanState rv{{10.0, 290.0}, Joule{budget}};
      const std::vector<bool> untaken(n, false);
      const PlanContext ctx(items, params);
      const auto g_ref = greedy_next(rv, items, untaken, params);
      const auto g_opt = ctx.greedy_next(rv, untaken);
      ASSERT_EQ(g_ref, g_opt);
      const auto n_ref = nearest_next(rv, items, untaken, params);
      const auto n_opt = ctx.nearest_next(rv, untaken);
      ASSERT_EQ(n_ref, n_opt);
      std::vector<bool> taken_ref = untaken;
      std::vector<bool> taken_opt = untaken;
      ASSERT_EQ(insertion_sequence(rv, items, taken_ref, params),
                ctx.insertion_sequence(rv, taken_opt));
      ASSERT_EQ(taken_ref, taken_opt);
    }
  }
}

}  // namespace
