// Unit tests for the scheduler-policy layer: every policy is driven through
// a hand-built DispatchContext (no World, no event loop), so the decision
// logic is pinned down against synthetic edge cases — empty item lists (all
// requests claimed), over-budget batches and the happy paths.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

RechargeItem item_at(Vec2 pos, double demand, std::vector<SensorId> sensors,
                     bool critical = false) {
  RechargeItem it;
  it.pos = pos;
  it.demand = Joule{demand};
  it.critical = critical;
  it.min_fraction = 0.3;
  it.sensors = std::move(sensors);
  return it;
}

// A self-contained planning round: the containers a DispatchContext
// references, bundled so tests can mutate them before building the facade.
// `requests` is the recharge node list in arrival order; `items` is what the
// policy plans over (hand-built, so a test can shape batches freely).
struct Round {
  std::vector<RechargeItem> items;
  RechargeNodeList requests;
  RvPlanState rv{{100.0, 100.0}, Joule{50000.0}};
  PlannerParams params{JoulePerMeter{5.6}, Vec2{100.0, 100.0}};
  std::size_t rv_id = 0;
  std::vector<Vec2> fleet{{100.0, 100.0}};
  std::size_t num_groups = 1;
  Xoshiro256 rng{42};

  // Appends a request for sensor `s` to the recharge node list.
  void add_request(SensorId s, Vec2 pos, double demand, bool critical = false) {
    RechargeRequest r;
    r.sensor = s;
    r.pos = pos;
    r.demand = Joule{demand};
    r.critical = critical;
    requests.add(r);
  }

  // Registers a single-sensor item and its request.
  void add_single(SensorId s, Vec2 pos, double demand, bool critical = false) {
    items.push_back(item_at(pos, demand, {s}, critical));
    add_request(s, pos, demand, critical);
  }

  [[nodiscard]] DispatchContext ctx() {
    return DispatchContext(items, requests, rv, params, rv_id, fleet,
                           num_groups, rng);
  }
};

std::unique_ptr<SchedulerPolicy> make(const std::string& name) {
  return scheduler_entry(name).make();
}

// --- scheme table --------------------------------------------------------

TEST(SchedulerRegistry, BuiltinsRegisteredInOrder) {
  const std::vector<std::string> expected = {
      "greedy", "partition", "combined", "nearest-first", "fcfs", "edf"};
  EXPECT_EQ(scheduler_names(), expected);
  for (const std::string& name : expected) {
    EXPECT_STREQ(scheduler_entry(name).name, name.c_str());
    EXPECT_STRNE(scheduler_entry(name).summary, "");
    EXPECT_NE(make(name), nullptr);
  }
}

TEST(SchedulerRegistry, UnknownNameThrowsListingValidNames) {
  try {
    (void)make("quantum-annealer");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("quantum-annealer"), std::string::npos) << msg;
    for (const std::string& name : scheduler_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

// --- cross-policy edge cases --------------------------------------------

// All requests claimed (or none outstanding): aggregate_requests skips
// claimed sensors, so the policy sees an empty item list. Every
// policy must answer with a no-plan decision, never a plan over nothing.
TEST(Policies, EmptyItemListNeverPlans) {
  for (const std::string& name : scheduler_names()) {
    Round round;
    const DispatchDecision d = make(name)->decide(round.ctx());
    EXPECT_NE(d.kind, DispatchDecision::Kind::kPlan) << name;
    EXPECT_TRUE(d.stops.empty()) << name;
  }
}

// A single far-away batch whose tour cost exceeds the budget: no policy may
// plan it; the shared fallback resolves to self-charge (head home, refill).
TEST(Policies, OverBudgetBatchFallsBackToSelfCharge) {
  for (const std::string& name : scheduler_names()) {
    Round round;
    round.rv.available = Joule{100.0};  // 2 x 90 m legs already cost 1008 J
    round.add_single(7, {190.0, 100.0}, 500.0);
    const DispatchDecision d = make(name)->decide(round.ctx());
    EXPECT_EQ(d.kind, DispatchDecision::Kind::kSelfCharge) << name;
  }
}

// One affordable single-sensor batch: every policy should serve it.
TEST(Policies, SingleAffordableItemIsPlanned) {
  for (const std::string& name : scheduler_names()) {
    Round round;
    round.add_single(3, {110.0, 100.0}, 200.0);
    const DispatchDecision d = make(name)->decide(round.ctx());
    ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan) << name;
    ASSERT_EQ(d.stops.size(), 1u) << name;
    const RechargeItem& chosen = d.stops[0];
    ASSERT_EQ(chosen.sensors.size(), 1u) << name;
    EXPECT_EQ(chosen.sensors[0], 3u) << name;
  }
}

// --- singles expansion ---------------------------------------------------

TEST(DispatchContext, SinglesExpandBatchesPerSensorView) {
  Round round;
  round.items.push_back(item_at({50.0, 50.0}, 900.0, {1, 2}, true));
  round.add_request(1, {49.0, 50.0}, 400.0, false);
  round.add_request(2, {51.0, 50.0}, 500.0, true);
  const DispatchContext ctx = round.ctx();

  const auto fresh =
      ctx.singles(round.items, DispatchContext::SinglesCritical::kFresh);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].sensors, std::vector<SensorId>{1});
  EXPECT_EQ(fresh[0].pos, (Vec2{49.0, 50.0}));  // the member's own request
  EXPECT_DOUBLE_EQ(fresh[0].demand.value(), 400.0);
  EXPECT_FALSE(fresh[0].critical);  // re-evaluated per sensor
  EXPECT_TRUE(fresh[1].critical);

  const auto inherited =
      ctx.singles(round.items, DispatchContext::SinglesCritical::kInherit);
  ASSERT_EQ(inherited.size(), 2u);
  EXPECT_TRUE(inherited[0].critical);  // batch flag copied
  EXPECT_TRUE(inherited[1].critical);
}

// --- FCFS ----------------------------------------------------------------

// Regression: an oversized oldest batch used to make FCFS hold the RV for
// the whole round. It must skip to the next-oldest affordable batch.
TEST(FcfsPolicy, SkipsUnaffordableOldestBatch) {
  Round round;
  round.rv.available = Joule{3000.0};
  round.add_single(1, {150.0, 100.0}, 50000.0);  // oldest, unaffordable
  round.add_single(2, {105.0, 100.0}, 100.0);    // next-oldest, affordable
  const DispatchDecision d = make("fcfs")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  ASSERT_EQ(d.stops.size(), 1u);
  EXPECT_EQ(d.stops[0].sensors, std::vector<SensorId>{2});
}

TEST(FcfsPolicy, ServesOldestAffordableBatchFirst) {
  Round round;
  // Arrival order 5 then 4; both affordable; 4 is nearer. FCFS must still
  // pick 5's batch.
  round.add_single(5, {140.0, 100.0}, 100.0);
  round.add_single(4, {105.0, 100.0}, 100.0);
  const DispatchDecision d = make("fcfs")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.stops[0].sensors, std::vector<SensorId>{5});
}

TEST(FcfsPolicy, WeighsEachBatchOnce) {
  // Two sensors of one unaffordable batch ahead of an affordable single:
  // the batch is weighed at the first member and skipped at the second.
  Round round;
  round.rv.available = Joule{3000.0};
  round.items.push_back(item_at({150.0, 100.0}, 50000.0, {1, 2}));
  round.add_request(1, {149.0, 100.0}, 25000.0);  // both batch members
  round.add_request(2, {151.0, 100.0}, 25000.0);  // ahead of the single
  round.add_single(3, {105.0, 100.0}, 100.0);
  const DispatchDecision d = make("fcfs")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.stops[0].sensors, std::vector<SensorId>{3});
}

// A claimed request is already being served: FCFS passes over it even when
// it is the oldest, and picks the oldest unclaimed request's batch.
TEST(FcfsPolicy, PassesOverClaimedOldestRequest) {
  Round round;
  round.add_request(1, {102.0, 100.0}, 100.0);  // oldest, claimed below
  round.add_request(6, {140.0, 100.0}, 100.0);  // oldest unclaimed
  round.add_request(2, {105.0, 100.0}, 100.0);
  round.requests.claim(1);
  round.items = aggregate_requests(round.requests.requests());
  ASSERT_EQ(round.items.size(), 2u);  // sensor 1's request is not an item
  const DispatchDecision d = make("fcfs")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  ASSERT_EQ(d.stops.size(), 1u);
  EXPECT_EQ(d.stops[0].sensors, std::vector<SensorId>{6});
}

// --- nearest-first / edf / greedy selection ------------------------------

TEST(NearestFirstPolicy, PicksClosestRegardlessOfDemand) {
  Round round;
  round.add_single(1, {190.0, 100.0}, 5000.0);  // far, rich
  round.add_single(2, {105.0, 100.0}, 100.0);   // near, poor
  const DispatchDecision d = make("nearest-first")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.stops[0].sensors, std::vector<SensorId>{2});
}

TEST(EdfPolicy, PicksLowestBatteryFraction) {
  Round round;
  round.add_single(1, {105.0, 100.0}, 100.0);
  round.add_single(2, {150.0, 100.0}, 100.0);
  round.items[0].min_fraction = 0.4;
  round.items[1].min_fraction = 0.05;  // nearly dead: earliest deadline
  const DispatchDecision d = make("edf")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.stops[0].sensors, std::vector<SensorId>{2});
}

TEST(GreedyPolicy, PlansOverExpandedSingles) {
  // A two-sensor batch: greedy ignores the aggregation and returns a plan
  // over per-sensor singles (one destination per step, Algorithm 2).
  Round round;
  round.items.push_back(item_at({110.0, 100.0}, 900.0, {1, 2}));
  round.add_request(1, {109.0, 100.0}, 400.0);
  round.add_request(2, {111.0, 100.0}, 500.0);
  const DispatchDecision d = make("greedy")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  ASSERT_EQ(d.stops.size(), 1u);  // one single, not the original batch
  EXPECT_EQ(d.stops[0].sensors.size(), 1u);
}

// --- partition -----------------------------------------------------------

TEST(PartitionPolicy, NoGroupForThisRvReturnsToBase) {
  // Two groups, two RVs; RV 1 sits on top of the only populated cluster of
  // items, so group matching assigns it there and RV 0 gets nothing.
  Round round;
  round.num_groups = 2;
  round.fleet = {{20.0, 20.0}, {180.0, 180.0}};
  round.rv_id = 0;
  round.rv.pos = {20.0, 20.0};
  round.add_single(1, {180.0, 180.0}, 100.0);
  const DispatchDecision d = make("partition")->decide(round.ctx());
  EXPECT_EQ(d.kind, DispatchDecision::Kind::kReturnToBase);
}

TEST(PartitionPolicy, PlansWithinItsOwnGroup) {
  Round round;
  round.num_groups = 2;
  round.fleet = {{20.0, 20.0}, {180.0, 180.0}};
  round.rv_id = 1;
  round.rv.pos = {180.0, 180.0};
  round.add_single(1, {25.0, 20.0}, 100.0);
  round.add_single(2, {178.0, 180.0}, 100.0);
  const DispatchDecision d = make("partition")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  for (const RechargeItem& stop : d.stops) {
    EXPECT_EQ(stop.sensors, std::vector<SensorId>{2})
        << "RV 1 must stay in its own region";
  }
}

}  // namespace
}  // namespace wrsn
