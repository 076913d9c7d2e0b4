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
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gm/node.hpp"
#include "metrics/registry.hpp"
#include "net/map_info.hpp"
#include "net/packet.hpp"
#include "net/route_graph.hpp"
#include "net/route_table.hpp"
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

/// Far end of a cable, seen from one of a device's ports.
struct Neighbour {
  std::uint32_t key = 0;  // the neighbour's DeviceRef key
  std::uint8_t port = 0;  // the neighbour's port
};

/// A device's cables by local port: a flat array indexed by the port,
/// grown to the highest port recorded. Iterates by ascending port,
/// yielding (port, Neighbour) pairs.
class PortNeighbours {
  struct Slot {
    Neighbour n;
    bool present = false;
  };

 public:
  class const_iterator {
   public:
    using value_type = std::pair<std::uint8_t, Neighbour>;
    value_type operator*() const {
      return {static_cast<std::uint8_t>(i_), (*slots_)[i_].n};
    }
    const_iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class PortNeighbours;
    const_iterator(const std::vector<Slot>* slots, std::size_t i)
        : slots_(slots), i_(i) {
      skip();
    }
    void skip() {
      while (i_ < slots_->size() && !(*slots_)[i_].present) ++i_;
    }
    const std::vector<Slot>* slots_ = nullptr;
    std::size_t i_ = 0;
  };

  /// Record (or overwrite) the cable on `port`.
  void set(std::uint8_t port, Neighbour n) {
    if (port >= slots_.size()) slots_.resize(std::size_t{port} + 1);
    Slot& s = slots_[port];
    if (!s.present) ++count_;
    s = {n, true};
  }
  [[nodiscard]] const Neighbour* find(std::uint8_t port) const noexcept {
    return port < slots_.size() && slots_[port].present ? &slots_[port].n
                                                        : nullptr;
  }
  /// The cable on `port`; throws std::out_of_range when there is none.
  [[nodiscard]] const Neighbour& at(std::uint8_t port) const {
    const Neighbour* n = find(port);
    if (n == nullptr) throw std::out_of_range("no cable on that port");
    return *n;
  }
  /// Forget the cable on `port`; false when there was none.
  bool erase(std::uint8_t port) noexcept {
    if (find(port) == nullptr) return false;
    slots_[port].present = false;
    --count_;
    return true;
  }
  void clear() noexcept {
    slots_.clear();
    count_ = 0;
  }
  /// Room for ports 0 .. ports - 1 without growing.
  void reserve(std::size_t ports) { slots_.reserve(ports); }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] const_iterator begin() const { return {&slots_, 0}; }
  [[nodiscard]] const_iterator end() const { return {&slots_, slots_.size()}; }

 private:
  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

struct DeviceInfo {
  DeviceRef ref;
  std::uint8_t ports = 1;
  net::Route scout_route;  // shortest probe route found
  PortNeighbours neighbours;
};

/// The dense route graph of a device map: one net::RouteGraph vertex per
/// device in key order (switches emit route bytes), neighbours in
/// ascending port order. A neighbour key the map lacks becomes a leaf
/// vertex: reachable, never expanded.
class DeviceGraph {
 public:
  void build(const std::map<std::uint32_t, DeviceInfo>& devices);
  /// Vertex of a device or leaf key; nullopt when the graph lacks it.
  [[nodiscard]] std::optional<net::RouteGraph::Vertex> vertex(
      std::uint32_t key) const;
  /// Source route between two keys; nullopt when either is absent, they
  /// are equal, or `to` is unreachable.
  [[nodiscard]] std::optional<net::Route> route(std::uint32_t from,
                                                std::uint32_t to) const;
  [[nodiscard]] const net::RouteGraph& graph() const noexcept {
    return graph_;
  }

 private:
  net::RouteGraph graph_;
  std::vector<std::uint32_t> keys_;  // by vertex: devices (sorted), leaves
  std::size_t num_devices_ = 0;
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
    std::size_t max_depth = net::kMaxProbeDepth;  // probe route length bound
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
  [[nodiscard]] std::optional<net::Route> route_between(net::NodeId a,
                                                       net::NodeId b) const;
  /// Ordered pairs of mapped interfaces by route length: counts[n] pairs
  /// have an n-byte route. Read from the BFS trees; no bytes are built.
  [[nodiscard]] std::vector<std::uint64_t> route_length_counts() const;
  /// The route graph as last built from devices(); its trees_built() is
  /// the BFS work counter.
  [[nodiscard]] const net::RouteGraph& route_graph() const noexcept {
    return graph_.graph();
  }
  [[nodiscard]] const MapperStats& stats() const noexcept { return stats_; }

  // ---- route control plane (single source of truth) ----
  /// Current route epoch; bumped by every successful run. 0 = never ran.
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  /// Interfaces with a route table row at the current epoch, ascending.
  /// Interfaces at or past net::kRouteTableBound never get one: no card
  /// can hold a route to them.
  [[nodiscard]] std::span<const net::NodeId> table_nodes() const noexcept {
    return table_nodes_;
  }
  /// True when `x` has a row in the current epoch's table.
  [[nodiscard]] bool has_row(net::NodeId x) const noexcept {
    return x < nodes_.size() && nodes_[x].in_table;
  }
  /// `x`'s row of the current epoch, by ascending destination; empty when
  /// `x` has none.
  [[nodiscard]] std::span<const net::RouteEntry> row(net::NodeId x) const {
    if (!has_row(x)) return {};
    return nodes_[x].entries;
  }
  /// True when every node in table_nodes() has acknowledged the current
  /// epoch.
  [[nodiscard]] bool converged() const noexcept {
    return converged_count_ == table_nodes_.size();
  }
  /// Nodes in table_nodes() that have not acknowledged the current epoch.
  [[nodiscard]] std::vector<net::NodeId> stale_nodes() const;
  /// True while ACK-tracked chunk pushes (or their retries) are in flight.
  [[nodiscard]] bool distribution_idle() const noexcept {
    return pushes_ == 0;
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
    net::Route route;
    std::optional<std::uint32_t> parent;  // vertex key the route extends
    std::uint8_t out_port = 0;            // port used at the parent
    std::uint32_t tries = 0;              // probes already sent, this route
  };

  /// ACK-tracked chunk push to one node (current epoch). Chunk i is
  /// entries [i * kChunk, (i + 1) * kChunk) of the node's table row,
  /// which stays put until the next epoch clears every push.
  struct Distribution {
    std::vector<bool> acked;  // one per chunk
    std::uint32_t round = 0;  // retry rounds used
    std::uint64_t gen = 0;    // invalidates retry timers of older pushes
  };

  /// The control plane's state for one NodeId. Everything but `entries`
  /// and the buffers inside is reset at each epoch; the row buffer keeps
  /// its capacity for the next one.
  struct NodeState {
    std::vector<net::RouteEntry> entries;  // table row, ascending dst
    net::Route home_route;  // home's route to the node (chunk transport)
    Distribution dist;
    bool in_table = false;
    bool has_home_route = false;  // home_route is valid this epoch
    bool converged = false;       // acked this epoch (in table or not)
    bool pushing = false;         // dist is an ACK-tracked push in flight
  };

  /// Scouts in flight, by id. Ids are handed out in increasing order, so
  /// the live ones lie in a window [first_, next_) kept in a
  /// power-of-two ring indexed by id.
  class ScoutSlots {
   public:
    /// A slot for scout `id`, which must exceed every id added before.
    PendingScout& add(std::uint32_t id);
    [[nodiscard]] PendingScout* find(std::uint32_t id);
    /// Precondition: find(id) != nullptr.
    void erase(std::uint32_t id);
    void clear();
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

   private:
    struct Slot {
      PendingScout scout;
      bool live = false;
    };
    std::vector<Slot> slots_;
    std::uint32_t first_ = 0;  // oldest id that may be live
    std::uint32_t next_ = 0;   // one past the newest id added
    std::size_t live_ = 0;
  };

  void send_scout(net::Route route, std::optional<std::uint32_t> parent,
                  std::uint8_t out_port, std::uint32_t tries = 0);
  void on_reply(const net::Packet& pkt);
  void finish_discovery();
  void compute_and_distribute();
  /// Graft a returned-but-unmapped node back into the device graph at its
  /// recorded attach point and recompute/push routes — no re-discovery.
  /// Returns false (caller falls back to a full remap) when the attach
  /// point is unknown, absent from the current graph, or contested.
  bool fold_in(net::NodeId x);
  /// devices_ as a route graph, rebuilt on first use after a change.
  [[nodiscard]] const DeviceGraph& graph() const;

  /// The state of `x`, grown on demand; nullptr for an `x` at or past
  /// net::kRouteTableBound (such a node is never tabled, so the mapper
  /// holds nothing about it).
  [[nodiscard]] NodeState* state(net::NodeId x);
  /// Clear `x`'s converged mark (keeping converged_count_ exact).
  void unconverge(NodeState& n);
  /// End `x`'s ACK-tracked push, if one is in flight; true if it was.
  bool stop_push(NodeState& n);

  void start_distribution(net::NodeId x);
  void send_chunk(net::NodeId x, std::size_t i);
  void arm_retry(net::NodeId x);
  void on_route_ack(const net::Packet& pkt);
  void mark_converged(net::NodeId x);
  void check_distribution_done();
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->on(sim::TraceCat::kMapper);
  }
  /// Callers check tracing() first, so an untraced run formats nothing.
  void trace(const std::string& msg) const;

  gm::Node& home_;
  Config cfg_;
  std::function<void(bool)> done_;
  std::map<std::uint32_t, DeviceInfo> devices_;
  /// Route cache over devices_: every mutation of devices_ sets
  /// graph_dirty_ (run, on_reply, fold_in, retire_node).
  mutable DeviceGraph graph_;
  mutable bool graph_dirty_ = true;
  ScoutSlots pending_;
  std::uint32_t next_scout_ = 1;
  bool running_ = false;

  std::uint32_t epoch_ = 0;
  /// Per-node state by NodeId: the table rows, home's route to each node
  /// of the current epoch (chunk/probe transport; pushes must not depend
  /// on the stale installed table), ack marks and pushes in flight.
  std::vector<NodeState> nodes_;
  std::vector<net::NodeId> table_nodes_;  // nodes in_table, ascending
  std::size_t converged_count_ = 0;       // table nodes marked converged
  std::size_t pushes_ = 0;                // nodes with a push in flight
  /// Scratch for compute_and_distribute and route_length_counts.
  mutable net::RouteGraph::Row row_;
  /// Last route ever known to each node, across epochs (entries are
  /// overwritten, never erased): the census probe's transport of last
  /// resort when the node's old attach switch has left the map too. Best
  /// effort — the fabric may have changed under it.
  std::map<net::NodeId, net::Route> last_route_;
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
