// The GM mapper: self-configuration of a Myrinet fabric (paper Section 2).
//
// Runs on one node ("the mapper host"). Discovers the topology by flooding
// MAP_SCOUT probes along incrementally longer source routes: every device
// at the end of a probe's route answers with its identity and the list of
// input ports the probe walked, which pins down each cable's far end.
// After discovery it computes shortest-path source routes between every
// pair of interfaces and distributes per-node route tables with MAP_ROUTE
// packets. Re-running it remaps a changed fabric, mirroring GM's behaviour
// when links or nodes appear or disappear.
//
// The mapper owns the route control plane's single source of truth: every
// successful run bumps a monotonically increasing *route epoch* stamped
// into each MAP_ROUTE chunk. Distribution is reliable — the receiving card
// answers every chunk with a MAP_ROUTE_ACK carrying the last epoch it
// holds completely, and unacked chunks are re-sent with bounded
// exponential backoff. Nodes that stay behind (hung through the remap,
// chunks lost beyond the retry budget) are repaired later: by scrub()
// epoch probes, or by the announce a recovered node sends when its driver
// restores a mapper-learnt table (see DESIGN.md section 11).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gm/node.hpp"
#include "metrics/registry.hpp"
#include "net/map_info.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace myri::mapper {

/// Vertex identity in the discovered graph.
struct DeviceRef {
  net::DeviceKind kind = net::DeviceKind::kInterface;
  std::uint16_t id = 0;

  [[nodiscard]] std::uint32_t key() const {
    return static_cast<std::uint32_t>(kind) << 16 | id;
  }
  friend bool operator==(const DeviceRef&, const DeviceRef&) = default;
};

struct DeviceInfo {
  DeviceRef ref;
  std::uint8_t ports = 1;
  std::vector<std::uint8_t> scout_route;  // shortest probe route found
  /// port -> (neighbour, neighbour's port)
  std::map<std::uint8_t, std::pair<std::uint32_t, std::uint8_t>> neighbours;
};

struct MapperStats {
  std::uint64_t scouts_sent = 0;
  std::uint64_t replies = 0;
  std::uint64_t timeouts = 0;       // routes declared dead (tries exhausted)
  std::uint64_t scout_retries = 0;  // scouts re-sent after a silent try
  std::uint64_t route_packets = 0;  // MAP_ROUTE chunks sent (incl. resends)
  std::uint64_t runs = 0;
  std::uint64_t route_acks = 0;     // MAP_ROUTE_ACKs received
  std::uint64_t route_retries = 0;  // chunks re-sent after an ack timeout
  std::uint64_t repushes = 0;       // full-table re-pushes (scrub/announce)
  std::uint64_t scrub_probes = 0;   // epoch probes sent by scrub()
  /// Probes to expected-but-unmapped nodes, at their last-known route or
  /// swept into dark switch ports (the sweep subset is counted below too).
  std::uint64_t census_probes = 0;
  /// Census probes sent into unmapped switch ports: the transport of last
  /// resort for roster nodes *never* seen in any map (no known route at
  /// all — only knocking on dark ports can reach them).
  std::uint64_t census_sweep_probes = 0;
  /// Missing nodes grafted back into the map at their recorded attach
  /// point after answering a census probe/announcing — no re-discovery.
  std::uint64_t census_folds = 0;
};

class Mapper {
 public:
  struct Config {
    sim::Time scout_timeout = sim::usec(300);
    /// Probes per route before it is declared dead. Discovery scouts a
    /// whole fabric in one burst; the tail of the reply wave queues behind
    /// the burst on the home link and can outlive scout_timeout, so a
    /// single silent try must not erase a live node from the map.
    std::uint32_t scout_tries = 3;
    std::size_t max_depth = 16;  // probe route length bound
    /// Initial MAP_ROUTE_ACK wait; doubles per retry round (capped).
    sim::Time ack_timeout = sim::usec(400);
    /// Retry rounds before a node is left to scrub/announce repair.
    std::uint32_t max_ack_retries = 6;
  };

  explicit Mapper(gm::Node& home) : Mapper(home, Config()) {}
  Mapper(gm::Node& home, Config cfg);

  /// Discover + compute + distribute. `done(ok)` fires once every reachable
  /// node has acknowledged the new epoch or exhausted its retry budget
  /// (ok=false if discovery found nothing).
  void run(std::function<void(bool)> done);

  // ---- results ----
  [[nodiscard]] const std::map<std::uint32_t, DeviceInfo>& devices() const {
    return devices_;
  }
  [[nodiscard]] std::vector<net::NodeId> interfaces() const;
  [[nodiscard]] std::size_t num_switches() const;
  /// Source route from interface `a` to interface `b` (after run()).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> route_between(
      net::NodeId a, net::NodeId b) const;
  /// All source routes out of interface `a` (one BFS; route-length
  /// telemetry uses this instead of O(n^2) route_between calls).
  [[nodiscard]] std::map<net::NodeId, std::vector<std::uint8_t>>
  routes_from_interface(net::NodeId a) const;
  [[nodiscard]] const MapperStats& stats() const noexcept { return stats_; }

  // ---- route control plane (single source of truth) ----
  /// Current route epoch; bumped by every successful run. 0 = never ran.
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  /// Per-node route tables of the current epoch, keyed by interface id.
  [[nodiscard]] const std::map<net::NodeId, std::vector<net::RouteEntry>>&
  table() const noexcept {
    return table_;
  }
  /// True when every node in table() has acknowledged the current epoch.
  [[nodiscard]] bool converged() const;
  /// Nodes in table() that have not acknowledged the current epoch.
  [[nodiscard]] std::vector<net::NodeId> stale_nodes() const;
  /// True while ACK-tracked chunk pushes (or their retries) are in flight.
  [[nodiscard]] bool distribution_idle() const noexcept {
    return dist_.empty();
  }
  /// Re-send node `x`'s full table at the current epoch, ACK-tracked.
  void push_routes(net::NodeId x);
  /// Probe the installed epoch of every unconverged node (the slow
  /// re-verify pass; FailoverManager runs it periodically). A probe ack
  /// showing a stale epoch triggers push_routes() for that node. When an
  /// expected roster is set, additionally census-probes roster nodes the
  /// current map never discovered (at their last known route), so a node
  /// whose recovery announce was lost is still pulled back in.
  void scrub();

  /// The nodes this fabric is supposed to contain (the owner feeds it
  /// from gm::Cluster's membership roster). Drives scrub()'s census
  /// probes and roster_complete(). Empty = no expectation (raw mapper).
  void set_expected_roster(std::vector<net::NodeId> roster);

  // ---- membership deltas (FailoverManager forwards roster events) ----
  /// Record where a hot-added (or replaced) node is cabled so census
  /// probes reach it before any discovery has seen it: `sw_key` is the
  /// switch's DeviceRef key, `port` its host port. Clears any retired
  /// mark on `x`.
  void note_attach(net::NodeId x, std::uint32_t sw_key, std::uint8_t port);
  /// Retire `x` from the control plane: evict it from the expected
  /// roster, the current table/graph, and the cross-epoch caches
  /// (last_route_/last_attach_ — the membership-triggered eviction that
  /// bounds their growth). A discovery already in flight is immunized:
  /// retired interfaces are skipped at table-build time.
  void retire_node(net::NodeId x);
  /// A spare took over `x`'s id at the same attach point: the fresh card
  /// holds no routes, so mark it unconverged and re-push its table (or
  /// leave it to census when `x` was never mapped).
  void node_replaced(net::NodeId x);
  /// Attach points remembered across epochs (bounded by retirement).
  [[nodiscard]] std::size_t tracked_attach_points() const {
    return last_attach_.size();
  }
  /// Last-known routes remembered across epochs (bounded by retirement);
  /// with tracked_attach_points() these are the soak drift oracle's
  /// cache-size probes.
  [[nodiscard]] std::size_t tracked_routes() const {
    return last_route_.size();
  }
  /// Test-only leak plant: stop retire_node() from evicting the
  /// cross-epoch caches, so join/drain churn grows last_route_ and
  /// last_attach_ without bound. Exists to prove the soak drift oracle
  /// catches a real eviction regression; never set by production code.
  void set_retain_retired_caches(bool retain) noexcept {
    retain_retired_caches_ = retain;
  }
  /// True when every expected-roster node is present in the current map
  /// (vacuously true with no roster set).
  [[nodiscard]] bool roster_complete() const;
  /// Expected-roster nodes absent from the current map.
  [[nodiscard]] std::vector<net::NodeId> missing_nodes() const;

  /// Publish control-plane telemetry: mapper.route_epoch (gauge),
  /// mapper.map_route_retries, mapper.scrub_repairs, mapper.census_probes
  /// (counters) and fabric.route_converge_us (histogram: epoch push ->
  /// all nodes acked).
  void bind_metrics(metrics::Registry& reg);
  /// Fires when a node absent from the current map announces itself
  /// (post-recovery): the fabric has more in it than the map says, so the
  /// owner should schedule a remap.
  void set_on_node_returned(std::function<void(net::NodeId)> cb) {
    on_node_returned_ = std::move(cb);
  }
  /// Fires on evidence that a previously missing or lagging card is alive
  /// and repair can still make headway: a post-recovery announce, an ack
  /// from a node the current map does not contain (census probe answered),
  /// a laggard answering outside an in-flight push, or a scout reply from
  /// an interface the current map lacks. Routine chunk acks of a healthy
  /// distribution deliberately do NOT fire it — the owner uses this to
  /// reset retry budgets, and resetting them on every ack would turn the
  /// short-map retry backoff into a hot loop while a node is down.
  void set_on_progress(std::function<void()> cb) {
    on_progress_ = std::move(cb);
  }
  /// Emit kMapper trace lines for epoch pushes, retries, repairs and
  /// convergence (golden-trace tests pin the distribution protocol).
  void set_trace(sim::Trace* t) { trace_ = t; }

 private:
  struct PendingScout {
    std::vector<std::uint8_t> route;
    std::optional<std::uint32_t> parent;  // vertex key the route extends
    std::uint8_t out_port = 0;            // port used at the parent
    std::uint32_t tries = 0;              // probes already sent, this route
  };

  /// ACK-tracked chunk push to one node (current epoch).
  struct Distribution {
    std::vector<std::vector<net::RouteEntry>> chunks;
    std::vector<bool> acked;
    std::uint32_t round = 0;  // retry rounds used
    std::uint64_t gen = 0;    // invalidates retry timers of older pushes
  };

  void send_scout(std::vector<std::uint8_t> route,
                  std::optional<std::uint32_t> parent, std::uint8_t out_port,
                  std::uint32_t tries = 0);
  void on_reply(const net::Packet& pkt);
  void finish_discovery();
  void compute_and_distribute();
  /// Graft a returned-but-unmapped node back into the device graph at its
  /// recorded attach point and recompute/push routes — no re-discovery.
  /// Returns false (caller falls back to a full remap) when the attach
  /// point is unknown, absent from the current graph, or contested.
  bool fold_in(net::NodeId x);
  [[nodiscard]] std::map<std::uint32_t, std::vector<std::uint8_t>>
  routes_from(std::uint32_t src_key) const;

  void start_distribution(net::NodeId x);
  void send_chunk(net::NodeId x, const Distribution& d, std::size_t i);
  void arm_retry(net::NodeId x);
  void on_route_ack(const net::Packet& pkt);
  void mark_converged(net::NodeId x);
  void check_distribution_done();
  void trace(const std::string& msg) const;

  gm::Node& home_;
  Config cfg_;
  std::function<void(bool)> done_;
  std::map<std::uint32_t, DeviceInfo> devices_;
  std::map<std::uint32_t, PendingScout> pending_;  // scout id -> context
  std::uint32_t next_scout_ = 1;
  bool running_ = false;

  std::uint32_t epoch_ = 0;
  std::map<net::NodeId, std::vector<net::RouteEntry>> table_;
  /// Home's source route to each node of the current epoch (chunk/probe
  /// transport; pushes must not depend on the stale installed table).
  std::map<net::NodeId, std::vector<std::uint8_t>> home_route_;
  /// Last route ever known to each node, across epochs (entries are
  /// overwritten, never erased): the census probe's transport of last
  /// resort when the node's old attach switch has left the map too. Best
  /// effort — the fabric may have changed under it.
  std::map<net::NodeId, std::vector<std::uint8_t>> last_route_;
  /// Where each node was last attached: (switch vertex key, switch port),
  /// across epochs. Census probes are re-derived from the *current*
  /// switch graph to this attach point, so they survive route churn that
  /// invalidates the frozen last_route_ bytes.
  std::map<net::NodeId, std::pair<std::uint32_t, std::uint8_t>> last_attach_;
  /// Rotating cursor over (switch key, port) for the unknown-port census
  /// sweep, so successive scrubs cover a big fabric's dark ports fairly.
  std::size_t sweep_cursor_ = 0;
  /// Scrub passes since the last mapping run. While remaps are still
  /// landing, every run re-scouts the whole fabric, so dark-port sweeping
  /// would only add probe churn; the sweep waits until the control plane
  /// has been quiet for a couple of passes with roster nodes still dark.
  std::size_t scrubs_since_map_ = 0;
  /// Nodes this fabric is supposed to contain (see set_expected_roster).
  std::set<net::NodeId> roster_;
  /// Retired members: never mapped, folded in, or census-probed again
  /// (guards against a discovery that scouted the node before its cable
  /// was unplugged).
  std::set<net::NodeId> retired_;
  bool retain_retired_caches_ = false;  // test-only leak plant
  std::map<net::NodeId, Distribution> dist_;
  std::set<net::NodeId> converged_;
  std::uint64_t dist_gen_ = 0;
  sim::Time dist_start_ = 0;
  bool distributing_ = false;
  bool converge_observed_ = false;

  std::function<void(net::NodeId)> on_node_returned_;
  std::function<void()> on_progress_;
  sim::Trace* trace_ = nullptr;
  metrics::Gauge* m_epoch_ = nullptr;
  metrics::Histogram* m_converge_us_ = nullptr;
  MapperStats stats_;
  metrics::CounterViews views_;
};

}  // namespace myri::mapper
