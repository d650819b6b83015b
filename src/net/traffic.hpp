#pragma once
// Flow-rate traffic accounting.
//
// Active monitors generate lambda pkt/min towards the base station over the
// routing forest, and every hop is lossless (Section II-A). Rather than
// simulating packets, we keep per-node transmit / receive packet *rates*
// (pkt/s); combined with the per-packet radio energies this yields each
// node's radio power draw, which is exactly what the analytic battery model
// needs. Source routes are captured when a source is added so removal
// subtracts the identical path even if the routes have been rebuilt in
// between.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/binio.hpp"
#include "core/config.hpp"
#include "core/dirty_set.hpp"
#include "core/units.hpp"
#include "net/ids.hpp"
#include "net/routing.hpp"

namespace wrsn {

class TrafficModel {
 public:
  TrafficModel() = default;
  explicit TrafficModel(std::size_t num_sensors) { reset(num_sensors); }

  void reset(std::size_t num_sensors);

  [[nodiscard]] std::size_t num_sensors() const { return tx_rate_.size(); }
  [[nodiscard]] std::size_t num_sources() const { return active_; }
  [[nodiscard]] bool has_source(SensorId s) const {
    return s < slot_.size() && slot_[s] != kNoSlot;
  }
  // Flow records held, active and recycled: the peak number of concurrent
  // sources since reset(). A removed source's path buffers are kept for the
  // next registration instead of being freed.
  [[nodiscard]] std::size_t flow_buffers() const { return flows_.size(); }

  // Registers `source` emitting `rate_pps` packets/s along its current
  // route. A source whose route is unreachable still spends transmit energy
  // on its own packets (it keeps trying) but relays nothing. No-op guard:
  // a source may be added only once.
  void add_source(const RouteTable& routes, SensorId source, double rate_pps);
  void remove_source(SensorId source);
  // Drops all sources (used before a full re-register on re-clustering).
  void clear_sources();

  // Re-resolves every registered source's route against `routes`, keeping
  // rates. Called after the routing forest is rebuilt on a topology change.
  void reroute(const RouteTable& routes);

  [[nodiscard]] double tx_rate(SensorId s) const { return tx_rate_[s]; }
  [[nodiscard]] double rx_rate(SensorId s) const { return rx_rate_[s]; }

  // Aggregate packet rate currently reaching the base station.
  [[nodiscard]] double delivery_rate() const { return delivery_rate_; }
  // Aggregate packet rate currently generated by all sources, reachable or
  // not. delivery_rate()/offered_rate() is the network's instantaneous
  // delivery ratio.
  [[nodiscard]] double offered_rate() const { return offered_rate_; }

  // Rate-weighted mean hop count of delivered traffic (a per-packet latency
  // proxy: end-to-end delay ~ hops x per-hop service time). 0 when nothing
  // is being delivered. O(1): maintained incrementally in apply() rather
  // than re-scanned over sources, so per-event metric snapshots stay cheap.
  // Guards on the rate it divides by: a source set whose registered rates
  // are all 0 contributes delivering_rate_ == 0 and must not divide.
  [[nodiscard]] double average_delivery_hops() const {
    return delivering_rate_ > 0.0 ? weighted_hops_ / delivering_rate_ : 0.0;
  }

  // Optional observer: every sensor whose tx/rx rate is touched by an
  // add/remove/reroute is marked in `log` (DirtySet dedupes repeats at
  // insert, so touching a busy relay on every route change stays O(1)). The
  // world uses this to mark drains dirty instead of rescanning all sensors.
  // Pass nullptr to detach; the log must outlive the model while attached.
  void set_touch_log(DirtySet* log) { touch_log_ = log; }

  // Radio power draw of sensor s under `radio` (tx + rx + idle floor).
  [[nodiscard]] Watt radio_power(SensorId s, const RadioModel& radio) const;

  // Checkpoint codec: dumps/restores every accumulator and captured route
  // verbatim (no re-derivation — the rounding residue in the rate sums is
  // part of the state an uninterrupted run would carry). deserialize()
  // rejects source ids, path ids and rates that add_source() would not
  // accept, so a corrupt snapshot cannot index past the rate vectors.
  void serialize(BinWriter& w) const;
  void deserialize(BinReader& r);

  // --- e2ebench setup-replay stub ----------------------------------------
  // The frozen setup replay in e2ebench/wrsn_e2e.cpp still calls the deleted
  // link-quality hook as set_link_model(cfg.link, range). It does nothing;
  // ROADMAP's benchmark-spine item deletes it together with that call.
  void set_link_model(const SimConfig::RetiredLinkModel&, double) {}
  // --- end of e2ebench stub ----------------------------------------------

 private:
  struct SourceFlow {
    SensorId source = kInvalidId;
    double rate_pps = 0.0;
    // Path sensor -> ... -> BS, excluding the BS node itself; empty when the
    // source could not reach the base station at registration time.
    std::vector<std::size_t> relay_path;
  };

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  // Claims the next flow record for `source` (a recycled one when any is
  // spare), with an empty path and the given rate, and indexes it.
  SourceFlow& claim_flow(SensorId source, double rate_pps);
  // Active flow indices ordered by ascending source id: the order every
  // floating-point walk over all sources uses.
  void sort_active(std::vector<std::uint32_t>& order) const;
  void apply(const SourceFlow& flow, SensorId source, double sign);

  std::vector<double> tx_rate_;
  std::vector<double> rx_rate_;
  double delivery_rate_ = 0.0;
  double offered_rate_ = 0.0;
  // Delivery-hop accumulators: weighted_hops_ = sum(rate * path_len) over
  // delivering sources, delivering_rate_ = sum(rate). The integer source
  // count lets both sums snap back to exactly 0 at quiescence, so
  // floating-point residue cannot leak into the average.
  double weighted_hops_ = 0.0;
  double delivering_rate_ = 0.0;
  std::size_t delivering_sources_ = 0;
  // Slot table: slot_[s] indexes s's flow in flows_ (kNoSlot when s is not a
  // source). flows_[0, active_) are the active flows in no particular order
  // (removal swaps the last one in); flows_[active_, size) are recycled
  // records whose buffers the next registrations reuse. clear_sources(),
  // reroute() and serialize() walk sources in ascending id, because the
  // order of the floating-point sums is part of the numerics a restored run
  // must reproduce.
  std::vector<std::uint32_t> slot_;
  std::vector<SourceFlow> flows_;
  std::size_t active_ = 0;
  // Scratch for the ascending-id walks.
  std::vector<std::uint32_t> order_;
  std::vector<std::pair<SensorId, double>> reroute_;
  DirtySet* touch_log_ = nullptr;
};

}  // namespace wrsn
