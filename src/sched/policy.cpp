#include "sched/policy.hpp"

#include <sstream>

#include "core/error.hpp"

namespace wrsn {

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (std::size_t i = 0; i < names.size(); ++i) {
    os << (i ? ", " : "") << names[i];
  }
  return os.str();
}

}  // namespace

std::vector<RechargeItem> DispatchContext::singles(
    const std::vector<RechargeItem>& from, SinglesCritical mode) const {
  std::vector<RechargeItem> out;
  for (const RechargeItem& item : from) {
    for (SensorId s : item.sensors) {
      const RechargeRequest& r = requests_->request(s);
      RechargeItem one;
      one.pos = r.pos;
      one.demand = r.demand;
      one.critical =
          mode == SinglesCritical::kFresh ? r.critical : item.critical;
      one.sensors = {s};
      out.push_back(std::move(one));
    }
  }
  return out;
}

DispatchDecision best_single_node(const DispatchContext& ctx,
                                  const std::vector<RechargeItem>& from,
                                  DispatchContext::SinglesCritical mode) {
  const std::vector<RechargeItem> singles = ctx.singles(from, mode);
  std::vector<bool> taken(singles.size(), false);
  if (const auto next = greedy_next(ctx.rv(), singles, taken, ctx.params())) {
    return DispatchDecision::plan(singles, {*next});
  }
  // Nothing affordable: top up at base, or come home.
  return DispatchDecision::self_charge();
}

DispatchDecision fallback_single_node(const DispatchContext& ctx) {
  // Aggregated batches may exceed what this RV can afford in one tour.
  return best_single_node(ctx, ctx.items(),
                          DispatchContext::SinglesCritical::kInherit);
}

// Factories, one per file in src/sched/policies/.
std::unique_ptr<SchedulerPolicy> make_greedy_policy();
std::unique_ptr<SchedulerPolicy> make_partition_policy();
std::unique_ptr<SchedulerPolicy> make_combined_policy();
std::unique_ptr<SchedulerPolicy> make_nearest_first_policy();
std::unique_ptr<SchedulerPolicy> make_fcfs_policy();
std::unique_ptr<SchedulerPolicy> make_edf_policy();

namespace {

constexpr SchedulerEntry kSchedulers[] = {
    {"greedy",
     "Algorithm 2 baseline: max recharge profit per step over raw nodes, one "
     "destination at a time",
     make_greedy_policy},
    {"partition",
     "Partition-Scheme (Section IV-D-1): K-means groups matched to RVs, "
     "Algorithm 3 within this RV's group",
     make_partition_policy},
    {"combined",
     "Combined-Scheme (Section IV-D-2): Algorithm 3 insertion sequence over "
     "the global recharge list",
     make_combined_policy},
    {"nearest-first",
     "extension baseline: geographically nearest affordable batch (critical "
     "clusters first), ignoring demand",
     make_nearest_first_policy},
    {"fcfs",
     "extension baseline: oldest affordable batch in request-arrival order",
     make_fcfs_policy},
    {"edf",
     "extension baseline: affordable batch whose lowest member battery "
     "fraction is smallest (earliest deadline)",
     make_edf_policy},
};

}  // namespace

std::span<const SchedulerEntry> scheduler_table() { return kSchedulers; }

const SchedulerEntry& scheduler_entry(const std::string& name) {
  for (const SchedulerEntry& e : kSchedulers) {
    if (e.name == name) return e;
  }
  throw InvalidArgument("unknown scheduler '" + name +
                        "' (valid: " + join_names(scheduler_names()) + ")");
}

std::vector<std::string> scheduler_names() {
  std::vector<std::string> out;
  for (const SchedulerEntry& e : kSchedulers) out.emplace_back(e.name);
  return out;
}

}  // namespace wrsn
