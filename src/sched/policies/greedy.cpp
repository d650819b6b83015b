// Greedy-Scheme (Algorithm 2): the paper's baseline scheduler.
#include <memory>

#include "sched/policy.hpp"

namespace wrsn {
namespace {

class GreedyPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    // The baseline of Algorithm 2 predates the cluster aggregation of
    // Section IV-C: it scores raw nodes and drives to one node at a time,
    // which is exactly the inefficiency the paper calls out.
    return best_single_node(ctx, ctx.items(),
                            DispatchContext::SinglesCritical::kFresh);
  }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_greedy_policy() {
  return std::make_unique<GreedyPolicy>();
}

}  // namespace wrsn
