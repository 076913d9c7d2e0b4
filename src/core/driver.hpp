// GM host device driver.
//
// Kernel-side glue between the host and the card (paper Section 2): loads
// the MCP, opens/closes ports, registers the page hash table, keeps the
// host-side mirror of the routing tables, and fields the FATAL interrupt
// that the watchdog raises, waking the fault-tolerance daemon. The actual
// recovery never runs in interrupt context (the paper's point about
// sleep()/malloc()): the handler only wakes the FTD.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "host/host_memory.hpp"
#include "host/interrupts.hpp"
#include "host/timing.hpp"
#include "lanai/nic.hpp"
#include "mcp/mcp.hpp"
#include "net/map_info.hpp"
#include "net/route_table.hpp"

namespace myri::core {

class Driver {
 public:
  Driver(lanai::Nic& nic, mcp::Mcp& mcp, host::InterruptController& irq,
         host::TimingConfig timing);

  /// Initial driver load: program node identity, load the MCP, register
  /// the page hash table, hook the FATAL interrupt line.
  void install(mcp::HostIface* host_iface);

  /// Handler invoked (in "process context") when the FATAL interrupt
  /// fires; the FTD registers itself here.
  void set_fatal_handler(std::function<void()> wake) {
    wake_ftd_ = std::move(wake);
  }

  // ---- host-side routing-table mirror (epoch-versioned view) ----
  /// Mapper route push or epoch probe arrived (via the MCP). Mirrors the
  /// entries, tracks per-epoch chunk completeness, and returns the last
  /// epoch held completely — the MAP_ROUTE_ACK content.
  std::uint32_t map_route_update(const net::RouteUpdateView& update,
                                 net::NodeId from);
  /// Install a route on the card and mirror it (tests/benches use this to
  /// configure small fabrics without running the full mapper). Direct
  /// installs live in the pre-mapper world: they never touch the epoch.
  /// Throws std::out_of_range for a `dst` at or past
  /// net::kRouteTableBound: a direct install is configuration, not wire
  /// input, so it fails loudly instead of being counted and dropped.
  void install_route(net::NodeId dst, const net::Route& route);
  /// Mapper-host shortcut: the mapper programs its own card directly and
  /// stamps the mirror as complete at `epoch`.
  void record_local_epoch(std::uint32_t epoch);
  /// The mirror: what restore_routes() puts back on a reset card. A
  /// MAP_ROUTE entry for a `dst` at or past net::kRouteTableBound is
  /// dropped here as on the card, and counted in its refused().
  [[nodiscard]] const net::RouteTable& route_mirror() const noexcept {
    return routes_;
  }
  /// Last route epoch this node holds completely (0 = pre-mapper routes).
  [[nodiscard]] std::uint32_t route_epoch() const noexcept {
    return installed_epoch_;
  }
  /// True while the node knows a newer epoch exists (a probe or chunk for
  /// epoch > route_epoch() arrived) but has not finished installing it.
  /// The GM library refuses sends with kRecovering while this holds, so
  /// traffic is not launched onto routes a remap already declared dead.
  [[nodiscard]] bool routes_suspect() const noexcept {
    return highest_seen_epoch_ > installed_epoch_;
  }
  /// The node the mapper runs on, learnt from route pushes (kInvalidNode
  /// until the first mapper contact).
  [[nodiscard]] net::NodeId mapper_node() const noexcept {
    return mapper_node_;
  }

  // ---- port management (forwarded to the MCP control path) ----
  void open_port(std::uint8_t port) { mcp_.host_open_port(port); }
  void close_port(std::uint8_t port) { mcp_.host_close_port(port); }

  // ---- membership drain gate ----
  /// Mark a destination as draining: the GM library refuses *new* streams
  /// to it with kDraining while established ones finish (gm::Cluster
  /// broadcasts this on drain_node; it stays set after retirement).
  void set_dst_draining(net::NodeId dst, bool draining) {
    if (draining) {
      draining_dsts_.insert(dst);
    } else {
      draining_dsts_.erase(dst);
    }
  }
  [[nodiscard]] bool dst_draining(net::NodeId dst) const {
    return draining_dsts_.count(dst) != 0;
  }

  // ---- FTD-facing card operations (state changes; the FTD accounts the
  //      time each step takes using RecoveryTiming) ----
  void write_magic(std::uint32_t value);
  [[nodiscard]] std::uint32_t read_magic() const;
  void disable_interrupts_and_reset();
  void clear_sram();
  void reload_mcp();
  void restart_dma_and_interrupts();
  void register_page_hash() { mcp_.host_register_page_hash(); }
  void restore_routes();

  [[nodiscard]] mcp::Mcp& mcp() noexcept { return mcp_; }
  [[nodiscard]] lanai::Nic& nic() noexcept { return nic_; }
  [[nodiscard]] std::uint64_t fatal_interrupts() const noexcept {
    return fatals_;
  }

 private:
  lanai::Nic& nic_;
  mcp::Mcp& mcp_;
  host::InterruptController& irq_;
  host::TimingConfig timing_;
  mcp::HostIface* host_iface_ = nullptr;
  std::function<void()> wake_ftd_;
  net::RouteTable routes_;
  std::unordered_set<net::NodeId> draining_dsts_;
  // Epoch-versioned view of the mapper's table (the single source of
  // truth lives in mapper::Mapper; this is a per-node shadow of it).
  std::uint32_t installed_epoch_ = 0;     // last epoch held completely
  std::uint32_t highest_seen_epoch_ = 0;  // newest epoch heard of
  net::NodeId mapper_node_ = net::kInvalidNode;
  std::vector<bool> chunks_got_;          // per-chunk arrival, current push
  std::uint32_t chunks_epoch_ = 0;        // epoch chunks_got_ tracks
  std::uint64_t fatals_ = 0;
};

}  // namespace myri::core
