#include "net/routing.hpp"

#include <limits>
#include <queue>
#include <string>

#include "core/error.hpp"

namespace wrsn {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Fills dist/parent in place so a rebuild reuses the table's storage.
void run_dijkstra(const CommGraph& graph, std::size_t source,
                  const std::vector<bool>& usable_in, std::vector<double>& dist,
                  std::vector<std::size_t>& parent) {
  const std::size_t n = graph.num_nodes();
  WRSN_REQUIRE(source < n, "dijkstra source out of range");
  WRSN_REQUIRE(usable_in.size() == n || usable_in.size() + 1 == n,
               "usable mask size must cover the sensors (+optional BS entry)");

  auto usable = [&](std::size_t node) {
    if (node == graph.base_station_index()) return true;
    return node < usable_in.size() ? static_cast<bool>(usable_in[node]) : true;
  };

  dist.assign(n, kInf);
  parent.assign(n, kInvalidId);
  if (!usable(source)) return;

  using Item = std::pair<double, std::size_t>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const CommGraph::Edge& e : graph.neighbors(u)) {
      if (!usable(e.to)) continue;
      const double nd = d + e.length;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        parent[e.to] = u;
        heap.emplace(nd, e.to);
      }
    }
  }
}

}  // namespace

ShortestPaths dijkstra(const CommGraph& graph, std::size_t source,
                       const std::vector<bool>& usable) {
  ShortestPaths out;
  run_dijkstra(graph, source, usable, out.dist, out.parent);
  return out;
}

void RouteTable::build(const CommGraph& graph, const std::vector<bool>& usable) {
  run_dijkstra(graph, graph.base_station_index(), usable, dist_, parent_);
}

bool RouteTable::reachable(std::size_t node) const {
  WRSN_ASSERT(node < dist_.size(), "routing query out of range");
  return dist_[node] < kInf;
}

std::optional<std::size_t> RouteTable::hops_to_base(std::size_t node) const {
  if (!reachable(node)) return std::nullopt;
  std::size_t hops = 0;
  for (std::size_t cur = node; next_hop(cur) != kInvalidId;
       cur = next_hop(cur)) {
    ++hops;
    WRSN_ASSERT(hops <= num_nodes(), "routing forest contains a cycle");
  }
  return hops;
}

std::vector<std::size_t> RouteTable::path_to_base(std::size_t node) const {
  std::vector<std::size_t> path;
  if (!reachable(node)) return path;
  for (std::size_t cur = node;; cur = next_hop(cur)) {
    path.push_back(cur);
    if (next_hop(cur) == kInvalidId) break;
    WRSN_ASSERT(path.size() <= num_nodes(), "routing forest contains a cycle");
  }
  return path;
}

// --- e2ebench setup-replay stubs (see routing.hpp) ---------------------------
const RoutingRegistry& RoutingRegistry::instance() {
  static const RoutingRegistry registry;
  return registry;
}

const RoutingRegistry::DijkstraTree* RoutingRegistry::create(
    std::string_view name) const {
  static const DijkstraTree tree;
  WRSN_REQUIRE(name == "shortest_path",
               "unknown routing policy '" + std::string(name) +
                   "' (only shortest_path exists)");
  return &tree;
}

}  // namespace wrsn
