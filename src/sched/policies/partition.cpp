// Partition-Scheme (Section IV-D-1): K-means groups matched to RVs,
// Algorithm 3 within this RV's group.
#include <memory>
#include <vector>

#include "sched/plan_context.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class PartitionPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    // K-means over the full list into m groups (Section IV-D-1). Groups are
    // matched to ALL RVs (busy ones included) so each vehicle keeps a
    // stable geographic responsibility; this RV plans only within the group
    // matched to it.
    const std::vector<RechargeItem>& items = ctx.items();
    const auto groups =
        partition_items(items, ctx.num_groups(), ctx.sched_rng());
    std::vector<Vec2> centroids;
    std::vector<const std::vector<std::size_t>*> live_groups;
    for (const auto& group : groups) {
      if (group.empty()) continue;
      Vec2 centroid{};
      for (std::size_t i : group) centroid += items[i].pos;
      centroids.push_back(centroid / static_cast<double>(group.size()));
      live_groups.push_back(&group);
    }
    const std::vector<std::size_t>* best_group = nullptr;
    if (!live_groups.empty()) {
      const auto rv_of_group =
          match_groups_to_rvs(centroids, ctx.fleet_positions());
      for (std::size_t g = 0; g < live_groups.size(); ++g) {
        if (rv_of_group[g] == ctx.rv_id()) {
          best_group = live_groups[g];
          break;
        }
      }
    }
    if (best_group == nullptr) {
      // No group in this RV's designated area: it stays put rather than
      // poaching another region — the confinement the scheme is about.
      return DispatchDecision::return_to_base();
    }
    std::vector<RechargeItem> group_items;
    group_items.reserve(best_group->size());
    for (std::size_t i : *best_group) group_items.push_back(items[i]);
    std::vector<bool> group_taken(group_items.size(), false);
    const PlanContext group_ctx(group_items, ctx.params(), ctx.arena());
    const auto group_seq = group_ctx.insertion_sequence(ctx.rv(), group_taken);
    if (group_seq.empty()) {
      // Unaffordable as aggregates: serve the best raw node within the
      // group, or refill first.
      return best_single_node(ctx, group_items,
                              DispatchContext::SinglesCritical::kFresh);
    }
    return DispatchDecision::plan(group_items, group_seq);
  }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_partition_policy() {
  return std::make_unique<PartitionPolicy>();
}

}  // namespace wrsn
