#include <gtest/gtest.h>

#include "core/error.hpp"
#include "sched/request.hpp"

namespace wrsn {
namespace {

RechargeRequest make_request(SensorId s, ClusterId c, Vec2 pos, double demand,
                             bool critical = false) {
  RechargeRequest r;
  r.sensor = s;
  r.cluster = c;
  r.pos = pos;
  r.demand = Joule{demand};
  r.critical = critical;
  return r;
}

TEST(RechargeNodeList, AddRemoveContains) {
  RechargeNodeList list;
  EXPECT_TRUE(list.empty());
  list.add(make_request(3, 0, {1, 1}, 100.0));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.contains(3));
  EXPECT_FALSE(list.contains(4));
  EXPECT_TRUE(list.remove(3));
  EXPECT_FALSE(list.remove(3));
  EXPECT_TRUE(list.empty());
}

TEST(RechargeNodeList, RejectsDuplicatesAndBadInput) {
  RechargeNodeList list;
  list.add(make_request(1, 0, {0, 0}, 10.0));
  EXPECT_THROW(list.add(make_request(1, 0, {0, 0}, 10.0)), InvalidArgument);
  EXPECT_THROW(list.add(make_request(kInvalidId, 0, {0, 0}, 10.0)), InvalidArgument);
  EXPECT_THROW(list.add(make_request(2, 0, {0, 0}, -5.0)), InvalidArgument);
}

TEST(RechargeNodeList, UpdateRefreshesFields) {
  RechargeNodeList list;
  list.add(make_request(1, 0, {0, 0}, 10.0));
  list.update(1, Joule{42.0}, true, 0.42);
  EXPECT_DOUBLE_EQ(list.requests()[0].demand.value(), 42.0);
  EXPECT_DOUBLE_EQ(list.requests()[0].fraction, 0.42);
  EXPECT_TRUE(list.requests()[0].critical);
  EXPECT_THROW(list.update(9, Joule{1.0}, false, 0.5), InvalidArgument);
}

TEST(RechargeNodeList, ClaimNeedsAPendingRequest) {
  RechargeNodeList list;
  EXPECT_THROW(list.claim(4), InvalidArgument);
  list.add(make_request(3, 0, {1, 1}, 100.0));
  EXPECT_THROW(list.claim(4), InvalidArgument);
  list.claim(3);
  EXPECT_TRUE(list.request(3).claimed);
  EXPECT_FALSE(list.contains(4));
}

TEST(RechargeNodeList, DoubleClaimThrows) {
  RechargeNodeList list;
  list.add(make_request(3, 0, {1, 1}, 100.0));
  list.claim(3);
  EXPECT_THROW(list.claim(3), InvalidArgument);
  list.release(3);
  EXPECT_FALSE(list.request(3).claimed);
  EXPECT_TRUE(list.contains(3));  // released, still pending
  EXPECT_THROW(list.release(3), InvalidArgument);
  list.claim(3);
  EXPECT_TRUE(list.request(3).claimed);
}

TEST(RechargeNodeList, RemoveClearsTheClaim) {
  RechargeNodeList list;
  list.add(make_request(3, 0, {1, 1}, 100.0));
  list.add(make_request(5, 0, {2, 2}, 100.0));
  list.claim(3);
  EXPECT_TRUE(list.remove(3));
  EXPECT_FALSE(list.contains(3));
  EXPECT_THROW(list.release(3), InvalidArgument);
  list.add(make_request(3, 0, {1, 1}, 100.0));  // a fresh request
  EXPECT_FALSE(list.request(3).claimed);
  list.claim(3);  // claimable again
  EXPECT_TRUE(list.consistent());
}

TEST(RechargeNodeList, NewRequestMustStartUnclaimed) {
  RechargeNodeList list;
  RechargeRequest r = make_request(1, 0, {0, 0}, 10.0);
  r.claimed = true;
  EXPECT_THROW(list.add(r), InvalidArgument);
}

TEST(Aggregate, SkipsClaimedEntries) {
  RechargeNodeList list;
  list.add(make_request(1, 5, {0, 0}, 100.0));
  list.add(make_request(2, 5, {2, 0}, 200.0, true));
  list.add(make_request(3, 5, {4, 0}, 300.0));
  list.add(make_request(7, kInvalidId, {9, 9}, 50.0));
  list.claim(2);
  list.claim(7);
  const auto items = aggregate_requests(list.requests());
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].sensors, (std::vector<SensorId>{1, 3}));
  EXPECT_DOUBLE_EQ(items[0].demand.value(), 400.0);
  EXPECT_EQ(items[0].pos, (Vec2{2.0, 0.0}));
  EXPECT_FALSE(items[0].critical);  // the critical member is claimed
  list.claim(1);
  list.claim(3);
  EXPECT_TRUE(aggregate_requests(list.requests()).empty());
}

TEST(Aggregate, ClusterRequestsFoldIntoOneItem) {
  std::vector<RechargeRequest> reqs = {
      make_request(1, 5, {0, 0}, 100.0),
      make_request(2, 5, {2, 0}, 200.0),
      make_request(3, 5, {4, 0}, 300.0),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].cluster, 5u);
  EXPECT_DOUBLE_EQ(items[0].demand.value(), 600.0);
  EXPECT_EQ(items[0].pos, (Vec2{2.0, 0.0}));  // centroid
  EXPECT_EQ(items[0].sensors, (std::vector<SensorId>{1, 2, 3}));
  EXPECT_FALSE(items[0].critical);
}

TEST(Aggregate, CriticalPropagatesFromAnyMember) {
  std::vector<RechargeRequest> reqs = {
      make_request(1, 5, {0, 0}, 100.0, false),
      make_request(2, 5, {2, 0}, 200.0, true),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].critical);
}

TEST(Aggregate, UnclusteredStaySingles) {
  std::vector<RechargeRequest> reqs = {
      make_request(4, kInvalidId, {1, 1}, 50.0),
      make_request(2, kInvalidId, {3, 3}, 60.0),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 2u);
  // Singles sorted by sensor id.
  EXPECT_EQ(items[0].sensors, (std::vector<SensorId>{2}));
  EXPECT_EQ(items[1].sensors, (std::vector<SensorId>{4}));
  EXPECT_EQ(items[0].cluster, kInvalidId);
}

TEST(Aggregate, MixedClustersAndSinglesOrdering) {
  std::vector<RechargeRequest> reqs = {
      make_request(9, kInvalidId, {9, 9}, 10.0),
      make_request(1, 2, {0, 0}, 100.0),
      make_request(3, 1, {5, 5}, 70.0),
      make_request(2, 2, {2, 0}, 100.0),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 3u);
  // Clusters first in ascending cluster-id order, then singles.
  EXPECT_EQ(items[0].cluster, 1u);
  EXPECT_EQ(items[1].cluster, 2u);
  EXPECT_EQ(items[1].sensors, (std::vector<SensorId>{1, 2}));
  EXPECT_EQ(items[2].cluster, kInvalidId);
}

TEST(Aggregate, EmptyInput) {
  EXPECT_TRUE(aggregate_requests({}).empty());
}

TEST(Aggregate, DemandConservation) {
  // Total demand across items equals total across requests.
  std::vector<RechargeRequest> reqs;
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double d = 10.0 * (i + 1);
    reqs.push_back(make_request(i, i % 4 == 0 ? kInvalidId : i % 4,
                                {static_cast<double>(i), 0.0}, d));
    total += d;
  }
  const auto items = aggregate_requests(reqs);
  double got = 0.0;
  std::size_t sensor_count = 0;
  for (const auto& item : items) {
    got += item.demand.value();
    sensor_count += item.sensors.size();
  }
  EXPECT_DOUBLE_EQ(got, total);
  EXPECT_EQ(sensor_count, reqs.size());
}

}  // namespace
}  // namespace wrsn
