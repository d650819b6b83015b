#pragma once
// Pluggable scheduler-policy layer: every recharge-scheduling scheme is a
// strategy object behind the SchedulerPolicy interface, selected by name
// from the constant scheme table (scheduler_table()).
//
// A policy sees one idle RV's planning round through the narrow
// DispatchContext facade (aggregated unclaimed items, the refreshed recharge
// node list they were folded from, the RV's plan state, planner params,
// fleet positions and the scheduling RNG) and answers with a
// DispatchDecision: the stops to visit in order, return-to-base,
// self-charge, or hold. The World owns the shared fallback mechanics
// (claiming, tour construction, the actual return/self-charge transitions);
// policies never touch World internals.
//
// Adding a scheme requires only a new file in src/sched/policies/ plus one
// row in the table in sched/policy.cpp — no World, config or CLI edits.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "sched/arena.hpp"
#include "sched/planner.hpp"
#include "sched/request.hpp"

namespace wrsn {

// Read-only facade over the state a policy may consult for one idle RV.
// All referenced containers must outlive the context (the World builds it
// on the stack per dispatch round; tests build it from plain vectors).
class DispatchContext {
 public:
  DispatchContext(const std::vector<RechargeItem>& items,
                  const RechargeNodeList& requests, const RvPlanState& rv,
                  const PlannerParams& params, std::size_t rv_id,
                  const std::vector<Vec2>& fleet_positions,
                  std::size_t num_groups, Xoshiro256& sched_rng,
                  PlanArena* arena = nullptr)
      : items_(&items),
        requests_(&requests),
        rv_(&rv),
        params_(&params),
        rv_id_(rv_id),
        fleet_(&fleet_positions),
        num_groups_(num_groups),
        rng_(&sched_rng),
        arena_(arena) {}

  // Aggregated unclaimed recharge items (cluster batches / lone nodes).
  [[nodiscard]] const std::vector<RechargeItem>& items() const {
    return *items_;
  }
  // The recharge node list items() was folded from, oldest request first;
  // its unclaimed requests were refreshed for this round.
  [[nodiscard]] const RechargeNodeList& requests() const { return *requests_; }
  // The RV being planned for: position and spendable energy budget.
  [[nodiscard]] const RvPlanState& rv() const { return *rv_; }
  [[nodiscard]] const PlannerParams& params() const { return *params_; }
  // Index of this RV within fleet_positions().
  [[nodiscard]] std::size_t rv_id() const { return rv_id_; }
  // Current position of every RV, busy ones included (index == RvId).
  [[nodiscard]] const std::vector<Vec2>& fleet_positions() const {
    return *fleet_;
  }
  // Configured group count for partitioning schemes (the fleet size m).
  [[nodiscard]] std::size_t num_groups() const { return num_groups_; }
  // The World's scheduling RNG stream; state advances across calls, so a
  // policy must draw from it exactly when its scheme needs randomness.
  [[nodiscard]] Xoshiro256& sched_rng() const { return *rng_; }
  // Scratch arena for this round's plan construction (PlanContext tables).
  // Reset by the World between rounds; null when the caller provides none
  // (tests), in which case consumers fall back to the heap.
  [[nodiscard]] PlanArena* arena() const { return arena_; }

  // Expands cluster batches into per-sensor single-node items read from
  // each member's request. kFresh takes the request's critical flag;
  // kInherit copies the batch's flag (the historical fallback semantics).
  enum class SinglesCritical { kFresh, kInherit };
  [[nodiscard]] std::vector<RechargeItem> singles(
      const std::vector<RechargeItem>& from, SinglesCritical mode) const;

 private:
  const std::vector<RechargeItem>* items_;
  const RechargeNodeList* requests_;
  const RvPlanState* rv_;
  const PlannerParams* params_;
  std::size_t rv_id_;
  const std::vector<Vec2>* fleet_;
  std::size_t num_groups_;
  Xoshiro256* rng_;
  PlanArena* arena_ = nullptr;
};

// What a policy asks the World to do with the RV this round.
struct DispatchDecision {
  enum class Kind {
    kPlan,          // serve `stops` in order
    kReturnToBase,  // head home if in the field, otherwise hold
    kSelfCharge,    // head home if in the field, else top up at the dock
    kHold,          // do nothing this round
  };

  Kind kind = Kind::kHold;
  // kPlan only: the chosen items (cluster batches or single nodes) in
  // visiting order.
  std::vector<RechargeItem> stops;

  // A plan visiting items[seq[0]], items[seq[1]], ...; copies only those.
  [[nodiscard]] static DispatchDecision plan(
      const std::vector<RechargeItem>& items,
      const std::vector<std::size_t>& seq) {
    DispatchDecision d;
    d.kind = Kind::kPlan;
    d.stops.reserve(seq.size());
    for (const std::size_t i : seq) d.stops.push_back(items[i]);
    return d;
  }
  [[nodiscard]] static DispatchDecision return_to_base() {
    DispatchDecision d;
    d.kind = Kind::kReturnToBase;
    return d;
  }
  [[nodiscard]] static DispatchDecision self_charge() {
    DispatchDecision d;
    d.kind = Kind::kSelfCharge;
    return d;
  }
  [[nodiscard]] static DispatchDecision hold() { return DispatchDecision{}; }
};

// Strategy interface. Implementations must be deterministic given the
// context (any randomness comes from ctx.sched_rng()) and stateless across
// calls; one instance is created per World.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  [[nodiscard]] virtual DispatchDecision decide(
      const DispatchContext& ctx) const = 0;
};

// Algorithm 2 over raw nodes: serve the single most profitable affordable
// sensor of `from`'s batches (critical flags per `mode`, see singles()), or
// go refill when nothing is affordable.
[[nodiscard]] DispatchDecision best_single_node(
    const DispatchContext& ctx, const std::vector<RechargeItem>& from,
    DispatchContext::SinglesCritical mode);

// Shared tail used by aggregate planners when no full batch fits the
// budget: best_single_node over every item, flags inherited from the batch.
[[nodiscard]] DispatchDecision fallback_single_node(const DispatchContext& ctx);

// One row of the scheme table: the name config and CLI select it by, the
// one-line summary `--list-schedulers` and the README table show, and its
// factory.
struct SchedulerEntry {
  const char* name;
  const char* summary;
  std::unique_ptr<SchedulerPolicy> (*make)();
};

// Every scheme, paper schemes first, then the library's ablation baselines
// (the order names and docs use).
[[nodiscard]] std::span<const SchedulerEntry> scheduler_table();

// The named scheme's row; throws InvalidArgument listing the valid names
// when `name` is unknown.
[[nodiscard]] const SchedulerEntry& scheduler_entry(const std::string& name);

// The names of scheduler_table(), in order.
[[nodiscard]] std::vector<std::string> scheduler_names();

}  // namespace wrsn
