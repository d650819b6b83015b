#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"

namespace wrsn {
namespace {

RouteTable build_tree(const CommGraph& g, const std::vector<bool>& usable) {
  RouteTable table;
  table.build(g, usable);
  return table;
}

// Floyd-Warshall reference for cross-checking Dijkstra.
std::vector<std::vector<double>> floyd_warshall(const CommGraph& g,
                                                const std::vector<bool>& usable) {
  const std::size_t n = g.num_nodes();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kInf));
  auto ok = [&](std::size_t v) {
    return v == g.base_station_index() || usable[v];
  };
  for (std::size_t u = 0; u < n; ++u) {
    if (!ok(u)) continue;
    d[u][u] = 0.0;
    for (const auto& e : g.neighbors(u)) {
      if (ok(e.to)) d[u][e.to] = e.length;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
      }
    }
  }
  return d;
}

TEST(Routing, LineTopologyDistances) {
  const std::vector<Vec2> pos = {{0, 0}, {10, 0}, {20, 0}};
  CommGraph g(pos, Vec2{30, 0}, 12.0);
  const RouteTable tree = build_tree(g, std::vector<bool>(3, true));
  EXPECT_DOUBLE_EQ(tree.distance_to_base(2), 10.0);
  EXPECT_DOUBLE_EQ(tree.distance_to_base(1), 20.0);
  EXPECT_DOUBLE_EQ(tree.distance_to_base(0), 30.0);
  EXPECT_EQ(tree.next_hop(0), 1u);
  EXPECT_EQ(tree.next_hop(1), 2u);
  EXPECT_EQ(tree.next_hop(2), 3u);
  EXPECT_EQ(tree.next_hop(3), kInvalidId);
  EXPECT_EQ(tree.hops_to_base(0), 3u);
  EXPECT_EQ(tree.path_to_base(0), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Routing, DeadRelayBreaksPath) {
  const std::vector<Vec2> pos = {{0, 0}, {10, 0}, {20, 0}};
  CommGraph g(pos, Vec2{30, 0}, 12.0);
  std::vector<bool> usable = {true, false, true};  // middle node dead
  const RouteTable tree = build_tree(g, usable);
  EXPECT_TRUE(tree.reachable(2));
  EXPECT_FALSE(tree.reachable(1));
  EXPECT_FALSE(tree.reachable(0));
  EXPECT_TRUE(tree.path_to_base(0).empty());
  EXPECT_FALSE(tree.hops_to_base(0).has_value());
}

TEST(Routing, TreeMatchesFloydWarshall) {
  Xoshiro256 rng(21);
  const auto pos = deploy_uniform(60, 60.0, rng);
  CommGraph g(pos, Vec2{30, 30}, 14.0);
  std::vector<bool> usable(60, true);
  // Kill a few nodes.
  for (std::size_t i = 0; i < 60; i += 7) usable[i] = false;

  const RouteTable tree = build_tree(g, usable);
  const auto ref = floyd_warshall(g, usable);
  const std::size_t bs = g.base_station_index();
  for (std::size_t v = 0; v < 60; ++v) {
    if (!usable[v]) {
      EXPECT_FALSE(tree.reachable(v));
      continue;
    }
    if (std::isinf(ref[bs][v])) {
      EXPECT_FALSE(tree.reachable(v));
    } else {
      ASSERT_TRUE(tree.reachable(v)) << "node " << v;
      EXPECT_NEAR(tree.distance_to_base(v), ref[bs][v], 1e-9);
    }
  }
}

TEST(Routing, PathDistancesTelescope) {
  Xoshiro256 rng(23);
  const auto pos = deploy_uniform(120, 80.0, rng);
  CommGraph g(pos, Vec2{40, 40}, 14.0);
  const RouteTable tree =
      build_tree(g, std::vector<bool>(120, true));
  for (std::size_t v = 0; v < 120; ++v) {
    if (!tree.reachable(v)) continue;
    const auto path = tree.path_to_base(v);
    double len = 0.0;
    std::vector<Vec2> all = pos;
    all.push_back({40, 40});
    for (std::size_t i = 1; i < path.size(); ++i) {
      len += distance(all[path[i - 1]], all[path[i]]);
    }
    EXPECT_NEAR(len, tree.distance_to_base(v), 1e-9);
  }
}

// Network rebuilds one table in place on every death and revival, and a
// restore rebuilds it from the serialized mask: a rebuild must equal a fresh
// build bit for bit, and both must equal the general Dijkstra from the BS.
TEST(Routing, RebuildInPlaceMatchesFreshBuild) {
  Xoshiro256 rng(29);
  const auto pos = deploy_uniform(80, 60.0, rng);
  CommGraph g(pos, Vec2{30, 30}, 13.0);
  std::vector<bool> usable(80, true);
  RouteTable reused = build_tree(g, usable);
  for (std::size_t i = 0; i < 80; i += 5) usable[i] = false;
  reused.build(g, usable);
  const RouteTable fresh = build_tree(g, usable);
  const ShortestPaths sp = dijkstra(g, g.base_station_index(), usable);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(reused.next_hop(v), fresh.next_hop(v)) << "node " << v;
    EXPECT_EQ(reused.next_hop(v), sp.parent[v]) << "node " << v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.distance_to_base(v)),
              std::bit_cast<std::uint64_t>(sp.dist[v]))
        << "node " << v;
  }
}

TEST(Routing, GeneralDijkstraSymmetry) {
  Xoshiro256 rng(25);
  const auto pos = deploy_uniform(50, 40.0, rng);
  CommGraph g(pos, Vec2{20, 20}, 12.0);
  const std::vector<bool> usable(50, true);
  const auto from3 = dijkstra(g, 3, usable);
  const auto from9 = dijkstra(g, 9, usable);
  EXPECT_NEAR(from3.dist[9], from9.dist[3], 1e-9);
}

TEST(Routing, UnusableSourceReachesNothing) {
  const std::vector<Vec2> pos = {{0, 0}, {5, 0}};
  CommGraph g(pos, Vec2{10, 0}, 12.0);
  std::vector<bool> usable = {false, true};
  const auto sp = dijkstra(g, 0, usable);
  EXPECT_TRUE(std::isinf(sp.dist[1]));
  EXPECT_TRUE(std::isinf(sp.dist[2]));
}

TEST(Routing, ParentPointersConsistentWithDistances) {
  Xoshiro256 rng(27);
  const auto pos = deploy_uniform(100, 70.0, rng);
  CommGraph g(pos, Vec2{35, 35}, 13.0);
  const RouteTable tree =
      build_tree(g, std::vector<bool>(100, true));
  std::vector<Vec2> all = pos;
  all.push_back({35, 35});
  for (std::size_t v = 0; v < 100; ++v) {
    if (!tree.reachable(v) || tree.next_hop(v) == kInvalidId) continue;
    const std::size_t p = tree.next_hop(v);
    EXPECT_NEAR(tree.distance_to_base(v),
                tree.distance_to_base(p) + distance(all[v], all[p]), 1e-9);
  }
}

}  // namespace
}  // namespace wrsn
