// FCFS extension baseline: serve batches in request-arrival order.
#include <algorithm>
#include <memory>
#include <vector>

#include "sched/policy.hpp"

namespace wrsn {
namespace {

class FcfsPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    // The oldest unclaimed request (the recharge node list keeps arrival
    // order) decides which batch goes next. A batch whose tour cost exceeds
    // the RV's budget is skipped in favour of the next-oldest affordable
    // one — an oversized head batch must not starve the rest of the queue.
    const std::vector<RechargeItem>& items = ctx.items();
    std::vector<bool> considered(items.size(), false);
    for (const RechargeRequest& oldest : ctx.requests().requests()) {
      if (oldest.claimed) continue;
      for (std::size_t i = 0; i < items.size(); ++i) {
        const auto& sensors = items[i].sensors;
        if (std::find(sensors.begin(), sensors.end(), oldest.sensor) ==
            sensors.end()) {
          continue;
        }
        if (!considered[i]) {
          considered[i] = true;
          const Joule need =
              ctx.params().em *
                  Meter{distance(ctx.rv().pos, items[i].pos) +
                        distance(items[i].pos, ctx.params().base)} +
              items[i].demand;
          if (need <= ctx.rv().available) {
            return DispatchDecision::plan(items, {i});
          }
        }
        break;  // batch located (and already weighed); next-oldest request
      }
    }
    return fallback_single_node(ctx);
  }
};

}  // namespace

std::unique_ptr<SchedulerPolicy> make_fcfs_policy() {
  return std::make_unique<FcfsPolicy>();
}

}  // namespace wrsn
