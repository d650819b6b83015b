// Delivery hop accounting and the self-discharge model.
#include <gtest/gtest.h>

#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

class HopsTest : public ::testing::Test {
 protected:
  // Line: s0 -- s1 -- s2 -- BS, 10 m spacing.
  void SetUp() override {
    graph_ = CommGraph({{0, 0}, {10, 0}, {20, 0}}, Vec2{30, 0}, 12.0);
    tree_ = build(std::vector<bool>(3, true));
    traffic_.reset(3);
  }

  [[nodiscard]] RouteTable build(const std::vector<bool>& usable) const {
    RouteTable table;
    table.build(graph_, usable);
    return table;
  }

  CommGraph graph_;
  RouteTable tree_;
  TrafficModel traffic_;
};

TEST_F(HopsTest, SingleSourceHops) {
  traffic_.add_source(tree_, 0, 1.0);  // 3 hops to the BS
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 3.0);
}

TEST_F(HopsTest, RateWeightedMean) {
  traffic_.add_source(tree_, 0, 1.0);  // 3 hops
  traffic_.add_source(tree_, 2, 3.0);  // 1 hop
  // (1*3 + 3*1) / 4 = 1.5
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 1.5);
}

TEST_F(HopsTest, UnreachableSourcesExcluded) {
  const RouteTable broken = build({true, false, true});
  traffic_.add_source(broken, 0, 1.0);  // unreachable
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 0.0);
  traffic_.add_source(broken, 2, 1.0);  // 1 hop
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 1.0);
}

TEST_F(HopsTest, EmptyModelIsZero) {
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 0.0);
}

TEST(HopsMetric, ReportedByWorldAtTableIIScale) {
  SimConfig cfg;
  cfg.sim_duration = days(1.0);
  World w(cfg);
  const auto r = w.run();
  // At d_c = 12 m over a 200 m field, routes to the central BS average
  // several hops.
  EXPECT_GT(r.avg_delivery_hops, 3.0);
  EXPECT_LT(r.avg_delivery_hops, 15.0);
}

TEST(SelfDischarge, AddsExpectedConstantDrain) {
  SimConfig base;
  base.num_sensors = 30;
  base.num_targets = 0;  // no sensing activity
  base.field_side = meters(50.0);
  base.sim_duration = days(5.0);
  base.radio.listen_duty_cycle = 0.0;
  SimConfig leaky = base;
  leaky.battery.self_discharge_per_day = 0.01;  // 1 %/day

  World a(base), b(leaky);
  a.run();
  b.run();
  double lost_base = 0.0, lost_leaky = 0.0;
  for (SensorId s = 0; s < 30; ++s) {
    lost_base += a.network().sensor(s).battery.demand().value();
    lost_leaky += b.network().sensor(s).battery.demand().value();
  }
  // The leaky network lost an extra ~1%/day * 5 days * capacity per sensor.
  const double expected_extra =
      0.01 * 5.0 * base.battery.capacity.value() * 30.0;
  EXPECT_NEAR(lost_leaky - lost_base, expected_extra, expected_extra * 0.05);
}

TEST(SelfDischarge, ConfigValidation) {
  SimConfig cfg;
  cfg.battery.self_discharge_per_day = 1.0;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
  cfg.battery.self_discharge_per_day = -0.1;
  EXPECT_THROW(cfg.validate(), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
