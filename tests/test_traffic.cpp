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
    positions_ = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
    tree_ = build(std::vector<bool>(3, true));
    traffic_.reset(3);
  }

  [[nodiscard]] RouteTable build(const std::vector<bool>& usable) const {
    RouteTable table;
    const RoutingBuildInput in{&graph_, &positions_, &usable};
    RoutingRegistry::instance().create("shortest_path")->build(in, table);
    return table;
  }

  CommGraph graph_;
  std::vector<Vec2> positions_;
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

// --- link-quality layer --------------------------------------------------

class LossyTrafficTest : public TrafficTest {
 protected:
  void SetUp() override {
    TrafficTest::SetUp();
    link_.enabled = true;
    link_.loss_floor = 0.0;
    link_.loss_at_range = 0.3;
    link_.loss_exponent = 2.0;
    link_.max_retx = 3;
    traffic_.set_link_model(link_, 12.0);
    // Every hop on the 10 m line at 12 m range: p = 0.3 * (10/12)^2.
    p_hop_ = 0.3 * (10.0 / 12.0) * (10.0 / 12.0);
    const double all_fail = std::pow(p_hop_, 3.0);
    success_ = 1.0 - all_fail;
    etx_ = (1.0 - all_fail) / (1.0 - p_hop_);
  }
  LinkConfig link_;
  double p_hop_ = 0.0, success_ = 0.0, etx_ = 0.0;
};

TEST_F(LossyTrafficTest, AttenuatesHopByHopAndChargesEtx) {
  traffic_.add_source(tree_, 0, 1.0);
  // Source pays ETX for its own packets; each relay receives the surviving
  // fraction and pays ETX to forward it.
  EXPECT_NEAR(traffic_.tx_rate(0), etx_, 1e-12);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(0), 0.0);
  EXPECT_NEAR(traffic_.rx_rate(1), success_, 1e-12);
  EXPECT_NEAR(traffic_.tx_rate(1), success_ * etx_, 1e-12);
  EXPECT_NEAR(traffic_.rx_rate(2), success_ * success_, 1e-12);
  EXPECT_NEAR(traffic_.tx_rate(2), success_ * success_ * etx_, 1e-12);
  // Delivery is the thrice-attenuated rate; offered is the raw rate.
  EXPECT_NEAR(traffic_.delivery_rate(), std::pow(success_, 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 1.0);
  EXPECT_LT(traffic_.delivery_rate(), traffic_.offered_rate());
}

TEST_F(LossyTrafficTest, RemoveAndClearReturnToQuiescence) {
  traffic_.add_source(tree_, 0, 0.7);
  traffic_.add_source(tree_, 2, 0.4);
  traffic_.remove_source(0);
  traffic_.remove_source(2);
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), 0.0);
    EXPECT_DOUBLE_EQ(traffic_.rx_rate(s), 0.0);
  }
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 0.0);
}

TEST_F(LossyTrafficTest, RerouteRecapturesLinkQuality) {
  traffic_.add_source(tree_, 0, 1.0);
  const double before = traffic_.delivery_rate();
  traffic_.reroute(tree_);  // same forest: captures must reproduce exactly
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), before);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 1.0);
}

TEST_F(LossyTrafficTest, RxDutyTaxOnlyForReceivers) {
  link_.rx_duty_tax = 0.05;
  traffic_.set_link_model(link_, 12.0);
  RadioModel radio;
  radio.listen_duty_cycle = 0.0;
  traffic_.add_source(tree_, 0, 1.0);
  // Node 0 only transmits: no tax. Node 1 receives: taxed.
  const double p0 = traffic_.radio_power(0, radio).value();
  const double p1 = traffic_.radio_power(1, radio).value();
  EXPECT_NEAR(p0, radio.idle_power.value() +
                      traffic_.tx_rate(0) * radio.tx_energy_per_packet().value(),
              1e-12);
  EXPECT_NEAR(p1, radio.idle_power.value() +
                      traffic_.tx_rate(1) * radio.tx_energy_per_packet().value() +
                      traffic_.rx_rate(1) * radio.rx_energy_per_packet().value() +
                      0.05 * radio.rx_power.value(),
              1e-12);
}

TEST_F(LossyTrafficTest, LosslessConfigMatchesLegacyAccounting) {
  // enabled=true but zero loss terms: ETX and success collapse to 1, so the
  // numbers must equal the lossless fast path bit for bit.
  LinkConfig zero;
  zero.enabled = true;
  zero.loss_floor = 0.0;
  zero.loss_at_range = 0.0;
  traffic_.set_link_model(zero, 12.0);
  traffic_.add_source(tree_, 0, 0.25);
  TrafficModel plain(3);
  plain.add_source(tree_, 0, 0.25);
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), plain.tx_rate(s));
    EXPECT_DOUBLE_EQ(traffic_.rx_rate(s), plain.rx_rate(s));
  }
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), plain.delivery_rate());
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(),
                   plain.average_delivery_hops());
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
    positions_.push_back({40, 0});
    const std::vector<bool> usable(kSensors, true);
    RoutingRegistry::instance().create("shortest_path")->build(
        RoutingBuildInput{&graph_, &positions_, &usable}, tree_);
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
  LinkConfig link;
  link.enabled = true;
  link.loss_floor = 0.01;
  link.loss_at_range = 0.3;
  TrafficModel m(kSensors);
  m.set_link_model(link, 12.0);
  for (const SensorId s : {13, 1, 10, 6, 4}) add(m, s);
  m.remove_source(1);

  TrafficModel restored;
  restored.set_link_model(link, 12.0);
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

TEST_F(TrafficSlotTest, SnapshotRejectsBadSourceIds) {
  const auto encode = [](std::uint64_t first, std::uint64_t second) {
    BinWriter w;
    w.vec(std::vector<double>(kSensors, 0.0));
    w.vec(std::vector<double>(kSensors, 0.0));
    for (int i = 0; i < 4; ++i) w.f64(0.0);
    w.size(0);
    w.size(2);
    for (const std::uint64_t source : {first, second}) {
      w.u64(source);
      w.f64(0.25);
      w.vec(std::vector<std::uint64_t>{});
      w.vec(std::vector<double>{});
      w.vec(std::vector<double>{});
      w.f64(1.0);
    }
    return w.take();
  };
  const auto load = [](const std::string& b) {
    TrafficModel m;
    BinReader r(b);
    m.deserialize(r);
    return m.num_sources();
  };
  EXPECT_EQ(load(encode(3, 5)), 2u);
  EXPECT_THROW(load(encode(3, 3)), InvalidArgument);
  EXPECT_THROW(load(encode(3, kSensors)), InvalidArgument);
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
