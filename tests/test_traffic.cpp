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
  traffic_.add_source(tree_, 1, 0.25);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(2), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.5);
}

TEST_F(TrafficTest, RemoveSourceRestoresRates) {
  traffic_.add_source(tree_, 0, 0.25);
  traffic_.add_source(tree_, 1, 0.25);
  traffic_.remove_source(0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.25);
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
  traffic_.add_source(tree_, 1, 0.2);
  traffic_.add_source(tree_, 2, 0.2);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.6);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), traffic_.offered_rate());
  for (SensorId s = 0; s < 3; ++s) {
    // Each relay forwards what it receives plus its own flow.
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), traffic_.rx_rate(s) + 0.2);
  }
  // The last hop into the BS carries the full load.
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.6);
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
  // Flows at lambda = 0 reach the base station but deliver no packets, so
  // they must not turn the hop average into a mean over nothing.
  traffic_.add_source(tree_, 0, 0.0);
  traffic_.add_source(tree_, 1, 0.0);
  const double hops = traffic_.average_delivery_hops();
  EXPECT_FALSE(std::isnan(hops));
  EXPECT_DOUBLE_EQ(hops, 0.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  // Once the rate is un-fixed, delivering flows average normally.
  traffic_.reset(3);
  traffic_.add_source(tree_, 2, 0.5);
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 1.0);
}

TEST_F(TrafficTest, SourceIdValidation) {
  EXPECT_THROW(traffic_.add_source(tree_, 99, 0.25), InvalidArgument);
  EXPECT_THROW(traffic_.add_source(tree_, 0, -1.0), InvalidArgument);
  EXPECT_THROW(traffic_.add_source(tree_, 0, std::nan("")), InvalidArgument);
  EXPECT_THROW(traffic_.add_source(tree_, 0, HUGE_VAL), InvalidArgument);
  EXPECT_EQ(traffic_.num_sources(), 0u);
}

TEST_F(TrafficTest, SecondRateRejected) {
  traffic_.add_source(tree_, 0, 0.25);
  EXPECT_THROW(traffic_.add_source(tree_, 1, 0.5), InvalidArgument);
  EXPECT_FALSE(traffic_.has_source(1));
  // Dropping every flow keeps the rate; only reset() frees it.
  traffic_.clear_sources();
  EXPECT_THROW(traffic_.add_source(tree_, 1, 0.5), InvalidArgument);
  traffic_.add_source(tree_, 1, 0.25);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.25);
  traffic_.reset(3);
  traffic_.add_source(tree_, 1, 0.5);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.5);
}

// --- slot table ----------------------------------------------------------

// 4x4 sensor grid at 10 m spacing (range 12 m: 4-neighbour links only), BS
// just right of the bottom-right sensor, so sources have paths of 1-7 hops
// sharing relays.
class TrafficSlotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) positions_.push_back({10.0 * x, 10.0 * y});
    }
    graph_ = CommGraph(positions_, Vec2{40, 0}, 12.0);
    tree_.build(graph_, std::vector<bool>(kSensors, true));
  }

  static constexpr double kRate = 0.25;

  void add(TrafficModel& m, SensorId s) const { m.add_source(tree_, s, kRate); }

  // Every rate the model reports, compared bit for bit.
  static void expect_same_rates(const TrafficModel& a, const TrafficModel& b) {
    ASSERT_EQ(a.num_sensors(), b.num_sensors());
    for (SensorId s = 0; s < a.num_sensors(); ++s) {
      EXPECT_EQ(a.has_source(s), b.has_source(s)) << "sensor " << s;
      EXPECT_EQ(a.tx_rate(s), b.tx_rate(s)) << "sensor " << s;
      EXPECT_EQ(a.rx_rate(s), b.rx_rate(s)) << "sensor " << s;
    }
    EXPECT_EQ(a.num_sources(), b.num_sources());
    EXPECT_EQ(a.delivery_rate(), b.delivery_rate());
    EXPECT_EQ(a.offered_rate(), b.offered_rate());
    EXPECT_EQ(a.average_delivery_hops(), b.average_delivery_hops());
  }

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

// Rates are flow counts x lambda, so they depend only on the flow set: with a
// lambda that is not a dyadic rational (7/60 has no exact binary form), a
// running sum of +-lambda would carry rounding residue that depends on the
// order of adds, removes, clears and reroutes.
TEST_F(TrafficSlotTest, RatesDependOnlyOnTheFlowSet) {
  constexpr double kOdd = 7.0 / 60.0;
  std::vector<bool> usable(kSensors, true);
  usable[11] = false;  // a relay outage: some flows take a detour
  RouteTable detour;
  detour.build(graph_, usable);

  TrafficModel history(kSensors);
  for (const SensorId s : {15, 4, 9, 2}) history.add_source(tree_, s, kOdd);
  history.clear_sources();
  for (const SensorId s : {12, 9, 0, 7, 15, 3, 6, 1, 13}) {
    history.add_source(detour, s, kOdd);
  }
  history.reroute(tree_);
  history.remove_source(7);  // a middle slot: the last flow moves into it
  history.remove_source(13);
  history.reroute(detour);
  history.reroute(tree_);
  history.remove_source(1);

  TrafficModel direct(kSensors);
  for (const SensorId s : {0, 3, 6, 9, 12, 15}) direct.add_source(tree_, s, kOdd);
  expect_same_rates(history, direct);
  EXPECT_GT(direct.delivery_rate(), 0.0);

  // Emptied by removals or by clear_sources(), every rate is exactly 0.
  TrafficModel drained = direct;
  for (const SensorId s : {9, 0, 15, 3, 12, 6}) drained.remove_source(s);
  TrafficModel cleared = direct;
  cleared.clear_sources();
  expect_same_rates(drained, cleared);
  EXPECT_EQ(drained.delivery_rate(), 0.0);
  for (SensorId s = 0; s < kSensors; ++s) EXPECT_EQ(drained.tx_rate(s), 0.0);
}

// The flows are stored in slot order, so a scrambled history serializes its
// flows in another order than an ascending one; the snapshot still restores
// into the same rates, bit for bit.
TEST_F(TrafficSlotTest, ScrambledRegistrationSerializesLikeAscending) {
  constexpr double kOdd = 7.0 / 60.0;
  TrafficModel ascending(kSensors);
  for (const SensorId s : {0, 3, 6, 9, 12, 15}) ascending.add_source(tree_, s, kOdd);

  TrafficModel scrambled(kSensors);
  for (const SensorId s : {15, 4, 9}) scrambled.add_source(tree_, s, kOdd);
  scrambled.clear_sources();
  for (const SensorId s : {12, 9, 0, 7, 15, 3, 6, 1}) {
    scrambled.add_source(tree_, s, kOdd);
  }
  scrambled.remove_source(7);  // a middle slot: the last flow moves into it
  scrambled.remove_source(1);  // the last slot

  TrafficModel restored(kSensors);
  const std::string saved = bytes(scrambled);
  BinReader r(saved);
  restored.deserialize(r);
  r.expect_end();
  EXPECT_EQ(bytes(restored), saved);
  expect_same_rates(restored, ascending);
  expect_same_rates(scrambled, ascending);
}

// clear_sources() and reroute() touch the flows in slot order; with a lambda
// that is not a dyadic rational they still leave exactly the rates of
// removing and re-adding every source in ascending id, which is what a
// restored run replays.
TEST_F(TrafficSlotTest, ClearAndRerouteWalkSourcesInAscendingId) {
  constexpr double kOdd = 7.0 / 60.0;
  std::vector<bool> usable(kSensors, true);
  usable[11] = false;  // a relay outage: some flows take a detour
  RouteTable detour;
  detour.build(graph_, usable);

  const std::vector<SensorId> scrambled = {12, 3, 15, 0, 9, 6, 13, 2};
  const auto registered = [&] {
    TrafficModel m(kSensors);
    for (const SensorId s : scrambled) m.add_source(tree_, s, kOdd);
    return m;
  };
  std::vector<SensorId> ascending = scrambled;
  std::sort(ascending.begin(), ascending.end());

  TrafficModel cleared = registered();
  cleared.clear_sources();
  TrafficModel removed = registered();
  for (const SensorId s : ascending) removed.remove_source(s);
  EXPECT_EQ(bytes(cleared), bytes(removed));
  expect_same_rates(cleared, removed);

  TrafficModel rerouted = registered();
  rerouted.reroute(detour);
  TrafficModel readded = registered();
  for (const SensorId s : ascending) readded.remove_source(s);
  for (const SensorId s : ascending) readded.add_source(detour, s, kOdd);
  expect_same_rates(rerouted, readded);
  EXPECT_GT(rerouted.delivery_rate(), 0.0);
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
  expect_same_rates(m, fresh);
}

TEST_F(TrafficSlotTest, SnapshotRoundTrip) {
  TrafficModel m(kSensors);
  for (const SensorId s : {13, 1, 10, 6, 4}) add(m, s);
  m.remove_source(1);

  TrafficModel restored(kSensors);
  const std::string saved = bytes(m);
  BinReader r(saved);
  restored.deserialize(r);
  r.expect_end();
  EXPECT_EQ(bytes(restored), saved);
  EXPECT_EQ(restored.num_sources(), 4u);
  // The counts are rebuilt from the flows.
  expect_same_rates(restored, m);
  EXPECT_DOUBLE_EQ(restored.offered_rate(), 4 * kRate);
  // A model of another size refuses the snapshot.
  TrafficModel other(kSensors + 1);
  BinReader r2(saved);
  EXPECT_THROW(other.deserialize(r2), InvalidArgument);
  // The restored slot table addresses the same flows.
  m.remove_source(10);
  restored.remove_source(10);
  add(m, 1);
  add(restored, 1);
  EXPECT_EQ(bytes(restored), bytes(m));
  expect_same_rates(restored, m);
}

// A snapshot with a valid checksum can still carry ids and a rate that
// add_source() would reject; restoring one must fail instead of letting the
// next remove_source()/clear_sources() index past the count vectors.
TEST_F(TrafficSlotTest, SnapshotRejectsBadSourceIds) {
  struct Flow {
    std::uint64_t source;
    std::vector<std::uint64_t> path;
  };
  const auto encode = [](const std::vector<Flow>& flows, double rate = kRate) {
    BinWriter w;
    w.size(kSensors);
    w.boolean(true);
    w.f64(rate);
    w.size(flows.size());
    for (const Flow& f : flows) {
      w.u64(f.source);
      w.vec(f.path);
    }
    return w.take();
  };
  const auto load = [](const std::string& b) {
    TrafficModel m(kSensors);
    BinReader r(b);
    m.deserialize(r);
    return m.num_sources();
  };
  const auto flow = [](std::uint64_t source) { return Flow{source, {source}}; };
  EXPECT_EQ(load(encode({flow(3), flow(5)})), 2u);
  EXPECT_THROW(load(encode({flow(3), flow(3)})), InvalidArgument);
  EXPECT_THROW(load(encode({flow(3), {kSensors, {}}})), InvalidArgument);
  // Relay path ids past the sensors, and paths longer than the network.
  EXPECT_THROW(load(encode({{3, {3, kSensors}}})), InvalidArgument);
  EXPECT_THROW(load(encode({{3, {3, UINT64_MAX}}})), InvalidArgument);
  EXPECT_THROW(load(encode({{3, std::vector<std::uint64_t>(kSensors + 1, 3)}})),
               InvalidArgument);
  // Rates add_source() refuses.
  for (const double bad : {-0.25, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(load(encode({flow(3)}, bad)), InvalidArgument) << bad;
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
