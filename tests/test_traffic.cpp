#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "core/binio.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"

namespace wrsn {
namespace {

class TrafficTest : public ::testing::Test {
 protected:
  // Line: s0 -- s1 -- s2 -- BS, 10 m spacing, range 12 m.
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

TEST_F(TrafficTest, SingleSourceRelayRates) {
  traffic_.add_source(tree_, 0, 0.25);
  // Source transmits, relays receive + transmit.
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(2), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.25);
}

TEST_F(TrafficTest, MultipleSourcesAccumulate) {
  traffic_.add_source(tree_, 0, 0.25);
  traffic_.add_source(tree_, 1, 0.5);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.75);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(2), 0.75);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.75);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.75);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.75);
}

TEST_F(TrafficTest, RemoveSourceRestoresRates) {
  traffic_.add_source(tree_, 0, 0.25);
  traffic_.add_source(tree_, 1, 0.5);
  traffic_.remove_source(0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.5);
  traffic_.remove_source(1);
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), 0.0);
    EXPECT_DOUBLE_EQ(traffic_.rx_rate(s), 0.0);
  }
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.0);
}

TEST_F(TrafficTest, ClearSources) {
  traffic_.add_source(tree_, 0, 0.25);
  traffic_.add_source(tree_, 2, 0.25);
  traffic_.clear_sources();
  EXPECT_EQ(traffic_.num_sources(), 0u);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.0);
}

TEST_F(TrafficTest, DuplicateSourceRejected) {
  traffic_.add_source(tree_, 0, 0.25);
  EXPECT_THROW(traffic_.add_source(tree_, 0, 0.25), InvalidArgument);
  EXPECT_THROW(traffic_.remove_source(1), InvalidArgument);
}

TEST_F(TrafficTest, UnreachableSourceStillTransmits) {
  // Node 0 alive but relay 1 dead: 0 cannot reach the BS.
  const RouteTable broken = build({true, false, true});
  traffic_.add_source(broken, 0, 0.25);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.25);  // wasted transmissions
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  // The wasted packets still count as offered load.
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.25);
}

TEST_F(TrafficTest, RerouteFollowsNewTree) {
  traffic_.add_source(tree_, 0, 0.25);
  // Node 1 dies: the route breaks, reroute keeps the source registered but
  // with no deliverable path.
  const RouteTable broken = build({true, false, true});
  traffic_.reroute(broken);
  EXPECT_EQ(traffic_.num_sources(), 1u);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.0);
  // Node 1 revives: delivery resumes.
  traffic_.reroute(tree_);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.25);
}

TEST_F(TrafficTest, RemoveSubtractsCapturedPathAfterRebuild) {
  // Removal must subtract the path captured at add time, even when the
  // routing forest has been rebuilt (without reroute) in between — otherwise
  // stale rates leak onto the old relays forever.
  traffic_.add_source(tree_, 0, 0.25);
  const RouteTable rebuilt = build({true, false, true});
  (void)rebuilt;  // the model never sees it: no reroute() call
  traffic_.remove_source(0);
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), 0.0);
    EXPECT_DOUBLE_EQ(traffic_.rx_rate(s), 0.0);
  }
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 0.0);
}

TEST_F(TrafficTest, RateConservationLossless) {
  // Lossless: everything offered by reachable sources is delivered, and
  // every relay forwards exactly what it receives plus its own load.
  traffic_.add_source(tree_, 0, 0.2);
  traffic_.add_source(tree_, 1, 0.3);
  traffic_.add_source(tree_, 2, 0.5);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 1.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), traffic_.offered_rate());
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_GE(traffic_.tx_rate(s), traffic_.rx_rate(s));
  }
  // The last hop into the BS carries the full load.
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 1.0);
}

TEST_F(TrafficTest, RadioPowerComposition) {
  RadioModel radio;
  radio.listen_duty_cycle = 0.0;  // isolate per-packet terms
  traffic_.add_source(tree_, 0, 1.0);
  const double etx = radio.tx_energy_per_packet().value();
  const double erx = radio.rx_energy_per_packet().value();
  EXPECT_NEAR(traffic_.radio_power(0, radio).value(),
              radio.idle_power.value() + etx, 1e-12);
  EXPECT_NEAR(traffic_.radio_power(1, radio).value(),
              radio.idle_power.value() + etx + erx, 1e-12);
}

TEST_F(TrafficTest, ListenDutyAddsFloor) {
  RadioModel radio;
  radio.listen_duty_cycle = 0.10;
  EXPECT_NEAR(traffic_.radio_power(0, radio).value(),
              radio.idle_power.value() + 0.10 * radio.rx_power.value(), 1e-12);
}

TEST_F(TrafficTest, ZeroRateSourceIsHarmless) {
  traffic_.add_source(tree_, 0, 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
}

TEST_F(TrafficTest, ZeroRateSourcesDoNotPoisonHopAverage) {
  // Regression: average_delivery_hops() used to be guarded on the delivering
  // *source count*; a source set whose rates are all zero then divided
  // 0 / 0 into NaN. The guard is on the delivering rate now.
  traffic_.add_source(tree_, 0, 0.0);
  traffic_.add_source(tree_, 1, 0.0);
  const double hops = traffic_.average_delivery_hops();
  EXPECT_FALSE(std::isnan(hops));
  EXPECT_DOUBLE_EQ(hops, 0.0);
  // A real flow alongside the zero-rate ones averages normally: only the
  // delivering flow's 1-hop path counts.
  traffic_.add_source(tree_, 2, 0.5);
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 1.0);
}

TEST_F(TrafficTest, SourceIdValidation) {
  EXPECT_THROW(traffic_.add_source(tree_, 99, 0.25), InvalidArgument);
  EXPECT_THROW(traffic_.add_source(tree_, 0, -1.0), InvalidArgument);
}

// --- slot table ----------------------------------------------------------

// 4x4 sensor grid at 10 m spacing (range 12 m: 4-neighbour links only), BS
// just right of the bottom-right sensor, so sources have paths of 1-7 hops
// sharing relays. Rates are dyadic, so every rate sum is exact whatever the
// order of registration.
class TrafficSlotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) positions_.push_back({10.0 * x, 10.0 * y});
    }
    graph_ = CommGraph(positions_, Vec2{40, 0}, 12.0);
    tree_.build(graph_, std::vector<bool>(kSensors, true));
  }

  static double rate(SensorId s) { return 0.125 * static_cast<double>(1 + s % 4); }

  void add(TrafficModel& m, SensorId s) const { m.add_source(tree_, s, rate(s)); }

  static std::string bytes(const TrafficModel& m) {
    BinWriter w;
    m.serialize(w);
    return w.take();
  }

  static constexpr std::size_t kSensors = 16;
  std::vector<Vec2> positions_;
  CommGraph graph_;
  RouteTable tree_;
};

TEST_F(TrafficSlotTest, ScrambledRegistrationSerializesLikeAscending) {
  TrafficModel ascending(kSensors);
  for (const SensorId s : {0, 3, 6, 9, 12, 15}) add(ascending, s);

  TrafficModel scrambled(kSensors);
  for (const SensorId s : {15, 4, 9}) add(scrambled, s);
  scrambled.clear_sources();
  for (const SensorId s : {12, 9, 0, 7, 15, 3, 6, 1}) add(scrambled, s);
  scrambled.remove_source(7);  // a middle slot: the last flow moves into it
  scrambled.remove_source(1);  // the last slot

  EXPECT_EQ(scrambled.num_sources(), ascending.num_sources());
  EXPECT_EQ(bytes(scrambled), bytes(ascending));
}

// With rates that are not dyadic the relay sums carry rounding residue that
// depends on the order of subtraction, so clear_sources() and reroute()
// must walk sources in ascending id, whatever order they were registered
// in: a restored run replays them in that order.
TEST_F(TrafficSlotTest, ClearAndRerouteWalkSourcesInAscendingId) {
  const std::vector<SensorId> scrambled = {12, 3, 15, 0, 9, 6, 13, 2};
  const auto odd_rate = [](SensorId s) { return 0.1 * static_cast<double>(s + 1) / 3.0; };
  const auto registered = [&] {
    TrafficModel m(kSensors);
    for (const SensorId s : scrambled) m.add_source(tree_, s, odd_rate(s));
    return m;
  };
  std::vector<SensorId> ascending = scrambled;
  std::sort(ascending.begin(), ascending.end());

  TrafficModel cleared = registered();
  cleared.clear_sources();
  TrafficModel removed = registered();
  for (const SensorId s : ascending) removed.remove_source(s);
  EXPECT_EQ(bytes(cleared), bytes(removed));

  TrafficModel rerouted = registered();
  rerouted.reroute(tree_);
  TrafficModel readded = registered();
  for (const SensorId s : ascending) readded.remove_source(s);
  for (const SensorId s : ascending) readded.add_source(tree_, s, odd_rate(s));
  EXPECT_EQ(bytes(rerouted), bytes(readded));
}

TEST_F(TrafficSlotTest, SwapRemovalKeepsMembership) {
  TrafficModel m(kSensors);
  std::set<SensorId> live;
  const auto check = [&] {
    EXPECT_EQ(m.num_sources(), live.size());
    for (SensorId s = 0; s < kSensors; ++s) {
      EXPECT_EQ(m.has_source(s), live.contains(s)) << "sensor " << s;
    }
  };
  for (const SensorId s : {2, 5, 8, 11, 14}) {
    add(m, s);
    live.insert(s);
  }
  check();
  for (const SensorId s : {2, 14, 8}) {  // first slot, last slot, middle
    m.remove_source(s);
    live.erase(s);
    check();
  }
  EXPECT_THROW(m.remove_source(8), InvalidArgument);
  EXPECT_FALSE(m.has_source(99));
  add(m, 2);
  live.insert(2);
  check();
  EXPECT_THROW(add(m, 5), InvalidArgument);

  TrafficModel fresh(kSensors);
  for (const SensorId s : live) add(fresh, s);
  EXPECT_EQ(bytes(m), bytes(fresh));
}

TEST_F(TrafficSlotTest, SnapshotRoundTrip) {
  TrafficModel m(kSensors);
  for (const SensorId s : {13, 1, 10, 6, 4}) add(m, s);
  m.remove_source(1);

  TrafficModel restored;
  const std::string saved = bytes(m);
  BinReader r(saved);
  restored.deserialize(r);
  r.expect_end();
  EXPECT_EQ(bytes(restored), saved);
  EXPECT_EQ(restored.num_sources(), 4u);
  for (SensorId s = 0; s < kSensors; ++s) {
    EXPECT_EQ(restored.has_source(s), m.has_source(s)) << "sensor " << s;
  }
  // The restored slot table addresses the same flows.
  m.remove_source(10);
  restored.remove_source(10);
  add(m, 1);
  add(restored, 1);
  EXPECT_EQ(bytes(restored), bytes(m));
}

// A snapshot with a valid checksum can still carry ids and rates that
// add_source() would reject; restoring one must fail instead of letting the
// next remove_source()/clear_sources() index past the rate vectors.
TEST_F(TrafficSlotTest, SnapshotRejectsBadSourceIds) {
  struct Flow {
    std::uint64_t source;
    double rate;
    std::vector<std::uint64_t> path;
  };
  const auto encode = [](const std::vector<Flow>& flows) {
    BinWriter w;
    w.vec(std::vector<double>(kSensors, 0.0));
    w.vec(std::vector<double>(kSensors, 0.0));
    for (int i = 0; i < 4; ++i) w.f64(0.0);
    w.size(0);
    w.size(flows.size());
    for (const Flow& f : flows) {
      w.u64(f.source);
      w.f64(f.rate);
      w.vec(f.path);
    }
    return w.take();
  };
  const auto load = [](const std::string& b) {
    TrafficModel m;
    BinReader r(b);
    m.deserialize(r);
    return m.num_sources();
  };
  const auto flow = [](std::uint64_t source) {
    return Flow{source, 0.25, {source}};
  };
  EXPECT_EQ(load(encode({flow(3), flow(5)})), 2u);
  EXPECT_THROW(load(encode({flow(3), flow(3)})), InvalidArgument);
  EXPECT_THROW(load(encode({flow(3), {kSensors, 0.25, {}}})), InvalidArgument);
  // Relay path ids past the sensors, and paths longer than the network.
  EXPECT_THROW(load(encode({{3, 0.25, {3, kSensors}}})), InvalidArgument);
  EXPECT_THROW(load(encode({{3, 0.25, {3, UINT64_MAX}}})), InvalidArgument);
  EXPECT_THROW(load(encode({{3, 0.25, std::vector<std::uint64_t>(kSensors + 1, 3)}})),
               InvalidArgument);
  // Rates add_source() refuses.
  for (const double bad : {-0.25, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(load(encode({{3, bad, {3}}})), InvalidArgument) << bad;
  }
}

TEST_F(TrafficSlotTest, RecycledBuffersBoundedByPeakSources) {
  TrafficModel m(kSensors);
  Xoshiro256 rng(7);
  std::set<SensorId> live;
  std::size_t peak = 0;
  for (int step = 0; step < 2000; ++step) {
    const SensorId s = rng.uniform_int(kSensors);
    // Drift the load up and down so the peak moves through several levels.
    const bool grow = rng.uniform() < (step % 500 < 250 ? 0.7 : 0.3);
    if (step % 97 == 96) {
      m.clear_sources();
      live.clear();
    } else if (live.contains(s)) {
      if (!grow) {
        m.remove_source(s);
        live.erase(s);
      }
    } else if (grow) {
      add(m, s);
      live.insert(s);
    }
    peak = std::max(peak, live.size());
    ASSERT_EQ(m.num_sources(), live.size());
    ASSERT_EQ(m.flow_buffers(), peak) << "step " << step;
  }
  EXPECT_GT(peak, 8u);
}

}  // namespace
}  // namespace wrsn
