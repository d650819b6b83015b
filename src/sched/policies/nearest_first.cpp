// Nearest-first extension baseline: always serve the closest batch.
#include <memory>
#include <vector>

#include "sched/plan_context.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class NearestFirstPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    const PlanContext plan(ctx.items(), ctx.params(), ctx.arena());
    std::vector<bool> taken(ctx.items().size(), false);
    if (const auto next = plan.nearest_next(ctx.rv(), taken)) {
      return DispatchDecision::plan(ctx.items(), {*next});
    }
    return fallback_single_node(ctx);
  }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_nearest_first_policy() {
  return std::make_unique<NearestFirstPolicy>();
}

}  // namespace wrsn
