// Combined-Scheme (Section IV-D-2): Algorithm 3 over the global item list.
#include <memory>
#include <vector>

#include "sched/plan_context.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class CombinedPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    // Grid-pruned hot path (bit-identical to the reference scan).
    const PlanContext plan(ctx.items(), ctx.params(), ctx.arena());
    std::vector<bool> taken(ctx.items().size(), false);
    std::vector<std::size_t> seq = plan.insertion_sequence(ctx.rv(), taken);
    if (seq.empty()) return fallback_single_node(ctx);
    return DispatchDecision::plan(ctx.items(), seq);
  }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_combined_policy() {
  return std::make_unique<CombinedPolicy>();
}

}  // namespace wrsn
