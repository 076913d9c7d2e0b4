// A complete cluster node: host, NIC, MCP, driver, GM library glue.
//
// Owns every per-node component and wires them together the way Figure 1/2
// of the paper arranges them: HostMemory + pinned pool + page hash table on
// the host side; PCI bus and interrupt controller between; the LANai NIC
// running the MCP on the card; the Driver and (in FTGM mode) the FTD as
// host software. Implements mcp::HostIface so the MCP can post events into
// port receive queues and translate DMA addresses.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/ftd.hpp"
#include "gm/host_cpu.hpp"
#include "gm/port.hpp"
#include "host/host_memory.hpp"
#include "host/interrupts.hpp"
#include "host/pci.hpp"
#include "host/timing.hpp"
#include "lanai/nic.hpp"
#include "mcp/mcp.hpp"
#include "metrics/registry.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"

namespace myri::gm {

class Node final : public mcp::HostIface {
 public:
  struct Config {
    net::NodeId id = 0;
    mcp::McpMode mode = mcp::McpMode::kGm;
    host::TimingConfig timing{};
    std::size_t host_mem_bytes = 64u << 20;
    std::uint32_t send_window = 16;
    sim::Time rto = sim::usec(400);
    std::size_t sram_bytes = 1u << 20;
    bool ftgm_delayed_ack = true;  // ablation knob (see Mcp::Config)
  };

  Node(sim::EventQueue& eq, Config cfg, std::string name);

  /// Cable this node's NIC to a switch port.
  void attach(net::Topology& topo, std::uint16_t sw, std::uint8_t sw_port);

  /// Cable this node's NIC to a switch port that already had an endpoint:
  /// the spare takes over a dead card's cable (Cluster::replace_node).
  void reattach(net::Topology& topo, std::uint16_t sw, std::uint8_t sw_port);

  /// Load the driver + MCP; in FTGM mode also start the FTD.
  void boot();

  /// gm_open: open a GM port (0..7). Throws std::logic_error if the port
  /// is already open; the open Port is left as it was.
  Port& open_port(std::uint8_t id, Port::Config cfg = {});
  void close_port(std::uint8_t id);
  [[nodiscard]] Port* port(std::uint8_t id);
  [[nodiscard]] std::vector<std::uint8_t> open_ports() const;

  /// Install a route on the card and in the driver mirror (used by tests
  /// and benches; real deployments learn routes from the mapper).
  void install_route(net::NodeId dst, const net::Route& route) {
    driver_.install_route(dst, route);
  }

  /// True once a route to `dst` is known (installed directly or learnt
  /// from the mapper). Port::post() refuses kUnreachable destinations.
  [[nodiscard]] bool has_route(net::NodeId dst) const {
    return driver_.route_mirror().contains(dst);
  }

  /// True while this node knows a newer route epoch exists than the one
  /// it holds. Port::post() returns kRecovering until the re-push lands.
  [[nodiscard]] bool routes_stale() const {
    return driver_.routes_suspect();
  }
  /// Last route epoch this node holds completely (0 = pre-mapper routes).
  [[nodiscard]] std::uint32_t route_epoch() const {
    return driver_.route_epoch();
  }

  /// Membership drain gate (see core::Driver): Port::post() refuses new
  /// streams to a draining destination with kDraining.
  void set_dst_draining(net::NodeId dst, bool d) {
    driver_.set_dst_draining(dst, d);
  }
  [[nodiscard]] bool dst_draining(net::NodeId dst) const {
    return driver_.dst_draining(dst);
  }

  // ---- mcp::HostIface ----
  void post_event(std::uint8_t port, const mcp::EventRecord& ev) override;
  std::optional<host::DmaAddr> translate(std::uint8_t port,
                                         std::uint64_t vaddr) override;
  std::uint32_t map_route_update(const net::RouteUpdateView& update,
                                 net::NodeId from) override {
    return driver_.map_route_update(update, from);
  }

  // ---- component access ----
  [[nodiscard]] sim::EventQueue& event_queue() noexcept { return eq_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] net::NodeId id() const noexcept { return cfg_.id; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] HostCpu& cpu() noexcept { return cpu_; }
  [[nodiscard]] host::HostMemory& memory() noexcept { return hmem_; }
  [[nodiscard]] host::PinnedAllocator& pinned() noexcept { return pinned_; }
  [[nodiscard]] host::PageHashTable& page_hash() noexcept { return pht_; }
  [[nodiscard]] host::PciBus& pci() noexcept { return pci_; }
  [[nodiscard]] host::InterruptController& irq() noexcept { return irq_; }
  [[nodiscard]] lanai::Nic& nic() noexcept { return nic_; }
  [[nodiscard]] mcp::Mcp& mcp() noexcept { return mcp_; }
  [[nodiscard]] core::Driver& driver() noexcept { return driver_; }
  [[nodiscard]] core::Ftd& ftd() noexcept { return *ftd_; }
  [[nodiscard]] bool has_ftd() const noexcept { return ftd_ != nullptr; }
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  void set_trace(sim::Trace* t);

  /// Publish every component's accounting into `reg` under "<name>.*"
  /// (mcp, ftd, and each port as it is opened).
  void bind_metrics(metrics::Registry& reg);
  [[nodiscard]] metrics::Registry* metrics() noexcept { return metrics_; }

  /// Allocate pinned host memory (page-registered separately per port).
  std::optional<host::DmaAddr> alloc_pinned(std::uint32_t size);

 private:
  sim::EventQueue& eq_;
  Config cfg_;
  std::string name_;
  host::HostMemory hmem_;
  host::PinnedAllocator pinned_;
  host::PageHashTable pht_;
  host::PciBus pci_;
  host::InterruptController irq_;
  HostCpu cpu_;
  lanai::Nic nic_;
  mcp::Mcp mcp_;
  core::Driver driver_;
  std::unique_ptr<core::Ftd> ftd_;
  std::array<std::unique_ptr<Port>, mcp::kMaxPorts> ports_{};
  bool crashed_ = false;
  metrics::Registry* metrics_ = nullptr;
};

}  // namespace myri::gm
