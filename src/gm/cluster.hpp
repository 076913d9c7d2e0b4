// Convenience testbed: an N-node cluster on a preset multi-switch fabric.
//
// Mirrors the paper's experimental setup (two hosts on an M3M-SW8 switch)
// and scales well past one switch: the FabricBuilder assembles the preset
// (single switch, line, ring, 2-level fat-tree) and computes endpoint
// placement, so node count is no longer bounded by one switch's ports.
// Tests, benches and examples build on this.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gm/node.hpp"
#include "gm/roster.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace myri::gm {

struct ClusterConfig {
  int nodes = 2;
  /// Fabric shape. Redundant presets (ring, fat-tree) are what the
  /// mapper-driven failover path reroutes across when a cable dies.
  net::FabricPreset fabric = net::FabricPreset::kSingleSwitch;
  std::uint8_t switch_ports = 8;  // edge-switch radix
  mcp::McpMode mode = mcp::McpMode::kGm;
  host::TimingConfig timing{};
  std::size_t host_mem_bytes = 8u << 20;
  std::uint64_t seed = 42;
  net::LinkFaults faults{};
  std::uint32_t send_window = 16;
  sim::Time rto = sim::usec(400);
  bool ftgm_delayed_ack = true;  // ablation knob (see Mcp::Config)
  bool install_routes = true;    // direct route setup (skip the mapper)
  bool boot = true;
  /// Event bound for run_until_idle(): long fat-tree runs raise it, short
  /// unit tests shrink it, nobody patches a magic constant.
  std::size_t max_events = 50'000'000;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);

  [[nodiscard]] sim::EventQueue& eq() noexcept { return eq_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] net::Topology& topo() noexcept { return *topo_; }
  /// The builder that laid the fabric out: placements, trunk cables
  /// (failover targets), preset tier count.
  [[nodiscard]] net::FabricBuilder& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  /// Cluster-wide observability: every node, link and switch publishes
  /// its accounting here. Benches merge() per-repeat registries and/or
  /// export Registry::to_json() for machine-readable baselines.
  ///
  /// A sync-on-read touch point (DESIGN.md section 12): every card first
  /// replays its elapsed L_timer ticks, and every link settles its
  /// arrivals (section 9), so counters that read McpStats and LinkStats
  /// fields directly show the values an eager chain would have left at
  /// this instant, between run slices or inside an event. A reference
  /// kept across a run goes stale for those counters; call metrics()
  /// again to read them.
  [[nodiscard]] metrics::Registry& metrics();
  [[nodiscard]] Node& node(int i) { return *nodes_.at(i); }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }

  /// The versioned membership roster: who is expected on the fabric, as
  /// of which membership epoch. The FailoverManager feeds members() to
  /// the mapper as the expected roster, and the chaos oracle checks the
  /// final map against the roster timeline.
  [[nodiscard]] const Roster& roster() const noexcept { return roster_; }

  /// Observer for membership deltas (one at a time, last wins). Fires on
  /// every roster mutation — join, drain, retire, replace — after the
  /// cluster has applied the physical change (node built, cable moved).
  void set_membership_listener(Roster::Observer l) {
    membership_listener_ = std::move(l);
  }

  // ---- elastic membership (all under traffic) ----

  /// Hot-plug a new node + cable at a free switch port. The node id is
  /// the next unused id; with install_routes the new node and the
  /// existing members get pristine routes immediately (a live mapper
  /// folds the node in and re-stamps everything at the next epoch).
  /// Throws std::runtime_error when the fabric has no free port.
  net::NodeId add_node();

  /// Drain `x`: stop admitting *new* streams to it (established ones
  /// finish exactly-once), then — once every member's traffic to it and
  /// its own sends have stayed quiescent for `quiet_window` — unplug its
  /// cable and retire it from the roster. Cooperative: callers stop
  /// initiating conversations with a draining node once in-flight ones
  /// complete. `on_retired` fires at retirement.
  void drain_node(net::NodeId x, sim::Time quiet_window = sim::msec(25),
                  std::function<void(net::NodeId)> on_retired = {});

  /// Replace a dead node with a spare: the spare takes over `x`'s switch
  /// port and NodeId. The old card is quarantined (its cable is cut — a
  /// late recovery transmits into an unplugged link). Returns the spare.
  Node& replace_node(net::NodeId x);

  /// Run the simulation for `d` of virtual time.
  void run_for(sim::Time d) {
    eq_.run_until(eq_.now() + d);
    publish_eq_metrics();
  }
  /// Run until the event queue drains, bounded against runaway loops by
  /// ClusterConfig::max_events (or an explicit non-zero override). Idle
  /// L_timer housekeeping schedules no events, so an idle cluster drains.
  std::size_t run_until_idle(std::size_t max_events = 0) {
    const std::size_t n = eq_.run(max_events != 0 ? max_events : cfg_.max_events);
    publish_eq_metrics();
    return n;
  }

  void set_trace(sim::Trace* t);

 private:
  // After every run slice, the event-core health gauges: compaction
  // sweeps (cancelled-entry eviction) and the dead-entry backlog.
  void publish_eq_metrics() {
    metrics_.gauge("sim.eq_compactions")
        .set(static_cast<std::int64_t>(eq_.compactions()));
    metrics_.gauge("sim.eq_cancelled_pending")
        .set(static_cast<std::int64_t>(eq_.cancelled_pending()));
  }

  std::unique_ptr<Node> build_node(net::NodeId id, const std::string& name);
  void install_pristine_routes(net::NodeId id);
  void on_roster_event(const RosterEvent& ev);
  void poll_drain(net::NodeId x, sim::Time quiet_window,
                  std::shared_ptr<sim::Time> quiet_since,
                  std::function<void(net::NodeId)> on_retired);
  void retire_now(net::NodeId x, std::function<void(net::NodeId)> on_retired);

  sim::EventQueue eq_;
  sim::Rng rng_;
  ClusterConfig cfg_;
  metrics::Registry metrics_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<net::FabricBuilder> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Replaced cards: destroying a Node mid-simulation is unsafe (scheduled
  // events hold component pointers), so the old card lives on, unplugged.
  std::vector<std::unique_ptr<Node>> quarantined_;
  Roster roster_;
  Roster::Observer membership_listener_;
  std::uint32_t replace_gen_ = 0;  // unique names for spare cards
};

}  // namespace myri::gm
