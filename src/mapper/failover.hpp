// Mapper-driven link failover (paper Section 2, end to end).
//
// Watches the fabric for cable state changes and re-runs the GM mapper
// from a home node whenever one fires: the fabric is re-discovered, fresh
// route tables are distributed to every card under a new route epoch, and
// in-flight GM traffic resumes on the surviving paths without application
// changes (Go-Back-N pushes the stalled window through the new routes).
//
// On top of the raw remap trigger this owns the control plane's repair
// loops:
//   - a slow periodic scrub that probes the installed epoch of every node
//     still lagging the current one (re-verify; real GM's remapping-scout
//     analogue) and census-probes roster nodes the map never discovered,
//     until the fabric converges AND the expected roster (fed from the
//     cluster's endpoint placement) is fully mapped,
//   - retrying remaps that failed or came back short (the mapper host's
//     own card hung, scouts lost to a lossy window) with bounded backoff,
//   - remapping when a node absent from the current map announces itself
//     after FTD recovery or answers a census probe (it was hung through
//     discovery).
//
// Budgets reset on progress, not only on external cable events: any
// announce, census answer, laggard ack or new-interface scout reply
// resets the remap retry budget and the scrub strike counter, so an
// outage longer than the budget still heals the moment the node shows
// life — no fresh trigger needed. Only total silence (max_scrub_strikes
// consecutive scrub passes with no progress signal, ~30 s) stops the
// repair loop; that terminal state is visible via gave_up() and surfaced
// by the chaos oracle as a route-convergence violation.
//
// Failover latency, post-remap route lengths and control-plane telemetry
// are published through the cluster's metrics::Registry:
//   fabric.cable_events            cable up/down transitions seen
//   fabric.failover.remaps         remaps completed ok
//   fabric.failover.failed_remaps  remaps that found nothing
//   fabric.failover.remap_ns       cable event -> routes distributed
//   fabric.route_len_hops          route length per reachable pair of the
//                                  CURRENT epoch (snapshot per remap, not
//                                  cumulative across remaps)
//   mapper.route_epoch             current route epoch (gauge)
//   mapper.map_route_retries       MAP_ROUTE chunks re-sent on ack timeout
//   mapper.scrub_repairs           full-table re-pushes to lagging nodes
//   mapper.census_probes           probes to expected-but-unmapped nodes
//   fabric.route_converge_us       epoch push -> every node acked
//   mapper.joins/drains/replaces   membership deltas folded into the map
//
// Membership deltas (gm::Roster events) are first-class triggers next to
// cable transitions: a clean join is folded in via census probe at its
// recorded attach point (no full remap), a retirement evicts the node
// from the map and the cross-epoch caches, a replacement re-pushes the
// current table to the fresh card under the same NodeId.
#pragma once

#include <cstdint>
#include <functional>

#include "gm/cluster.hpp"
#include "mapper/mapper.hpp"
#include "metrics/registry.hpp"
#include "sim/time.hpp"

namespace myri::mapper {

class FailoverManager {
 public:
  struct Config {
    Mapper::Config mapper{};
    /// Coalescing window: cable events arriving while a remap is pending
    /// or running fold into one follow-up remap instead of stacking.
    sim::Time debounce = sim::usec(100);
    int home_node = 0;  // the node the mapper runs on
    /// Scrub cadence while any mapped node lags the current epoch. The
    /// timer stops once the fabric converges so an idle cluster's event
    /// queue still drains (virtual time has no background noise).
    sim::Time scrub_interval = sim::msec(50);
    /// Backoff base for retrying failed/short remaps (doubles, capped).
    sim::Time remap_retry_backoff = sim::msec(100);
    /// Retry budget for failed/short remaps. Resets on any external
    /// trigger AND on any progress signal from the mapper (announce,
    /// census answer, laggard ack, new-interface scout reply).
    std::uint32_t max_remap_retries = 8;
    /// Consecutive scrub passes with work left but no progress signal
    /// before the repair loop stops (gave_up()) so the event queue can
    /// drain. Progress resets the count; a later announce revives the
    /// loop. 600 x 50 ms = ~30 s of probing into silence.
    std::uint32_t max_scrub_strikes = 600;
  };

  /// Registers itself as the topology's cable listener. Must outlive the
  /// last cable event delivered to the cluster's topology.
  FailoverManager(gm::Cluster& cluster, Config cfg);
  explicit FailoverManager(gm::Cluster& cluster)
      : FailoverManager(cluster, Config{}) {}

  /// Force a remap now (initial bring-up on an unmapped fabric, or after
  /// out-of-band changes). `done(ok)` fires when routes are distributed.
  void remap_now(std::function<void(bool)> done = {});

  [[nodiscard]] std::uint64_t remaps() const noexcept { return remaps_; }
  [[nodiscard]] std::uint64_t failed_remaps() const noexcept {
    return failed_;
  }
  [[nodiscard]] bool remap_in_progress() const noexcept { return running_; }
  [[nodiscard]] const Mapper& mapper() const noexcept { return mapper_; }

  /// True when every node in the mapper's table acked the current epoch.
  [[nodiscard]] bool converged() const { return mapper_.converged(); }
  /// converged() AND every roster node (the cluster's endpoint placement)
  /// is present in the map — a short map that acked everywhere it reaches
  /// is NOT fully converged.
  [[nodiscard]] bool fully_converged() const {
    return mapper_.converged() && mapper_.roster_complete();
  }
  /// Control plane fully settled: nothing running, pending or retrying,
  /// and the fabric fully converged — or the repair loop gave up, which
  /// settles the event queue but is a failure, not success (gave_up()).
  [[nodiscard]] bool settled() const;
  /// Terminal repair failure: retry/scrub budgets ran into silence with
  /// the fabric not fully converged. A later progress signal clears it.
  [[nodiscard]] bool gave_up() const {
    return gave_up_ && !fully_converged();
  }
  /// Run one scrub pass immediately (tests / out-of-band verification).
  void scrub_now() { mapper_.scrub(); }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  /// Current retry-budget positions. Both are capped by design
  /// (Config::max_remap_retries / max_scrub_strikes, reset on progress);
  /// the soak drift oracle treats a counter wandering past its cap as a
  /// budget-accounting bug.
  [[nodiscard]] std::uint32_t remap_retries() const noexcept {
    return remap_retries_;
  }
  [[nodiscard]] std::uint32_t scrub_strikes() const noexcept {
    return scrub_strikes_;
  }
  /// Test-only passthrough of Mapper::set_retain_retired_caches (the
  /// planted cache leak the soak drift oracle must catch).
  void test_retain_retired_caches(bool retain) noexcept {
    mapper_.set_retain_retired_caches(retain);
  }
  /// Forward kMapper tracing to the owned mapper.
  void set_trace(sim::Trace* t) { mapper_.set_trace(t); }

 private:
  void on_cable_event(net::Topology::CableId id, bool down);
  void on_roster_event(const gm::RosterEvent& ev);
  void on_progress();
  void request_remap();
  void start_remap();
  void finish_remap(bool ok);
  void schedule_remap_retry();
  void arm_scrub();
  void record_route_lengths();

  gm::Cluster& cluster_;
  Config cfg_;
  Mapper mapper_;
  bool pending_ = false;  // debounce timer armed
  bool running_ = false;  // mapper run in flight
  bool rerun_ = false;    // events arrived mid-run: go again
  bool scrub_armed_ = false;
  bool retry_pending_ = false;  // failed/short-remap retry scheduled
  bool gave_up_ = false;        // repair loop stopped into silence
  std::uint32_t remap_retries_ = 0;
  std::uint32_t scrub_strikes_ = 0;  // scrub passes since last progress
  sim::Time trigger_time_ = 0;
  std::uint64_t remaps_ = 0;
  std::uint64_t failed_ = 0;
  std::function<void(bool)> user_done_;
  metrics::CounterViews views_;

  metrics::Counter* cable_events_ = nullptr;
  metrics::Counter* joins_ = nullptr;
  metrics::Counter* drains_ = nullptr;
  metrics::Counter* replaces_ = nullptr;
  metrics::Histogram* remap_ns_ = nullptr;
  metrics::Histogram* route_len_ = nullptr;
};

}  // namespace myri::mapper
