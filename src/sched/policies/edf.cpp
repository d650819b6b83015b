// EDF extension baseline: earliest estimated depletion deadline first.
#include <memory>
#include <vector>

#include "sched/policy.hpp"

namespace wrsn {
namespace {

class EdfPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    std::vector<bool> taken(ctx.items().size(), false);
    if (const auto next =
            edf_next(ctx.rv(), ctx.items(), taken, ctx.params())) {
      return DispatchDecision::plan(ctx.items(), {*next});
    }
    return fallback_single_node(ctx);
  }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_edf_policy() {
  return std::make_unique<EdfPolicy>();
}

}  // namespace wrsn
