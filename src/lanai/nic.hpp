// The LANai host-interface card: SRAM, CPU, timers, DMA, packet interface.
//
// Composes every on-card device behind one MMIO register file so the
// interpreted MCP code and the native protocol engine drive the same
// hardware state. The paper's key architectural assumption — timers and
// interrupt logic keep running when the network processor hangs — holds
// here by construction: the timers are deadline registers that expire on
// virtual time whatever the processor is doing. A bare card schedules one
// wake-up per armed timer; once an MCP is loaded it owns the clock
// (Hooks::sync / Hooks::rearmed) and replays expiries analytically, so an
// idle card costs no events at all (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "host/host_memory.hpp"
#include "host/interrupts.hpp"
#include "host/pci.hpp"
#include "host/timing.hpp"
#include "lanai/cpu.hpp"
#include "lanai/registers.hpp"
#include "lanai/sram.hpp"
#include "lanai/timer.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/route_table.hpp"
#include "sim/ring.hpp"
#include "sim/trace.hpp"

namespace myri::lanai {

struct NicStats {
  std::uint64_t pkts_tx = 0;
  std::uint64_t pkts_rx = 0;
  std::uint64_t rx_dropped_full = 0;   // RX queue overflow (hung MCP)
  std::uint64_t tx_errors = 0;         // bad descriptor / missing route
  std::uint64_t hdma_transfers = 0;
  std::uint64_t hdma_bytes = 0;
  std::uint64_t wild_dma_reads = 0;    // master-abort reads (return 0xff)
  std::uint64_t wild_dma_writes = 0;   // host-crashing writes
};

class Nic final : public MmioDevice, public net::PacketSink {
 public:
  struct Config {
    std::size_t sram_bytes = 1 << 20;   // LANai9-class SRAM
    std::size_t rx_queue_cap = 64;
    host::LanaiTiming timing;
  };

  struct Hooks {
    std::function<void()> on_doorbell;    // host rang the doorbell
    std::function<void()> on_hdma_done;   // host DMA completed
    std::function<void(int)> on_timer;    // interval timer idx expired
    std::function<void()> on_rx;          // packet appended to RX queue
    // Clock owner (the loaded MCP). With `sync` set the card schedules no
    // timer wake-ups of its own: `sync` must apply every expiry due by
    // the executing event before the card reads or writes timer, ISR or
    // IMR state, and `rearmed` runs after a deadline or the IMR changed.
    std::function<void()> sync;
    std::function<void()> rearmed;
  };

  /// `board_id` is the card's EEPROM unique ID (GM's
  /// gm_get_unique_board_id): fixed for the card's life, kept across MCP
  /// reloads. It must not be 0, which a send stream uses for a receiver
  /// it has not heard from (std::invalid_argument).
  Nic(sim::EventQueue& eq, Config cfg, std::string name,
      std::uint32_t board_id);

  // ---- wiring ----
  void attach_uplink(net::Link& up) { uplink_ = &up; }
  void attach_host(host::HostMemory& hmem, host::PciBus& pci,
                   host::InterruptController& irq);
  /// Predicate for DMA-safety of host addresses (pinned-region check).
  void set_pinned_checker(std::function<bool(host::DmaAddr, std::size_t)> f) {
    pinned_ok_ = std::move(f);
  }
  /// Invoked when a wild DMA write clobbers unpinned host memory.
  void set_host_crash_handler(std::function<void()> f) {
    on_host_crash_ = std::move(f);
  }
  void set_hooks(Hooks h) { hooks_ = std::move(h); }
  void set_trace(sim::Trace* t) { trace_ = t; }

  [[nodiscard]] Sram& sram() noexcept { return sram_; }
  [[nodiscard]] Cpu& cpu() noexcept { return cpu_; }
  [[nodiscard]] sim::EventQueue& event_queue() noexcept { return eq_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] const NicStats& stats() const noexcept { return stats_; }

  // ---- identity & routing (programmed by the driver / mapper) ----
  void set_node_id(net::NodeId id) { node_id_ = id; }
  [[nodiscard]] net::NodeId node_id() const noexcept { return node_id_; }
  [[nodiscard]] std::uint32_t board_id() const noexcept { return board_id_; }
  /// Install (or overwrite) the route to `dst`; a re-install reuses the
  /// entry's capacity. A `dst` at or past net::kRouteTableBound is
  /// refused (false) and counted in routes().refused().
  bool set_route(net::NodeId dst, std::span<const std::uint8_t> route) {
    return routes_.set(dst, route);
  }
  [[nodiscard]] const net::Route* route(net::NodeId dst) const {
    return routes_.find(dst);
  }
  void clear_routes() { routes_.clear(); }
  [[nodiscard]] std::size_t num_routes() const { return routes_.size(); }
  [[nodiscard]] const net::RouteTable& routes() const noexcept {
    return routes_;
  }

  // ---- registers (native view; MMIO uses the same state) ----
  [[nodiscard]] std::uint32_t isr() const noexcept { return isr_; }
  void set_isr_bits(std::uint32_t bits);
  void clear_isr_bits(std::uint32_t bits) { isr_ &= ~bits; }
  [[nodiscard]] std::uint32_t imr() const noexcept { return imr_; }
  void set_imr(std::uint32_t v);
  void arm_timer(int idx, std::uint32_t ticks);
  [[nodiscard]] std::uint32_t timer_remaining(int idx);

  // ---- clock owner interface (no sync/rearmed callbacks) ----
  /// The timer's deadline register.
  [[nodiscard]] IntervalTimer& timer(int idx) {
    return timers_.at(static_cast<std::size_t>(idx));
  }
  [[nodiscard]] const IntervalTimer& timer(int idx) const {
    return timers_.at(static_cast<std::size_t>(idx));
  }
  /// Apply timer `idx`'s expiry now: disarm, set its ISR bit (raising the
  /// host interrupt if the IMR routes it) and call Hooks::on_timer.
  void expire_timer(int idx);

  // ---- host DMA engine ----
  [[nodiscard]] bool hdma_busy() const noexcept { return hdma_busy_; }
  /// Start a host<->SRAM DMA. Completion sets kIsrHdmaDone and fires
  /// on_hdma_done. Starting while busy is ignored (counted as tx error).
  void start_hdma(bool to_sram, host::DmaAddr haddr, std::uint32_t laddr,
                  std::uint32_t len);

  // ---- packet interface ----
  /// Transmit a packet described by the SRAM descriptor at `desc_addr`
  /// (route looked up from the on-card route table).
  void tx_from_descriptor(std::uint32_t desc_addr);
  /// Native transmit path for protocol packets (ACK/NACK, mapper traffic).
  /// With `resolve_route`, an empty route is filled from the route table;
  /// without it the packet goes out as-is (mapper probes may legitimately
  /// carry an empty route, addressed to whatever sits one hop away).
  void send_packet(net::Packet pkt, bool resolve_route = true);
  [[nodiscard]] bool rx_empty() const noexcept { return rx_queue_.empty(); }
  [[nodiscard]] std::size_t rx_depth() const noexcept {
    return rx_queue_.size();
  }
  net::Packet rx_pop();

  /// Host rings the doorbell (PIO write from the driver/library).
  void ring_doorbell();

  /// Card reset: registers, timers, DMA, RX queue and routes return to
  /// power-on state. SRAM contents are preserved (the FTD clears SRAM as a
  /// separate, slower step, as the paper describes).
  void reset();

  // ---- PacketSink ----
  void deliver(net::Packet pkt, std::uint8_t in_port) override;

  // ---- MmioDevice ----
  std::uint32_t mmio_read(std::uint32_t addr) override;
  void mmio_write(std::uint32_t addr, std::uint32_t value) override;

 private:
  void sync() {
    if (hooks_.sync) hooks_.sync();
  }
  void timers_changed();
  void schedule_timer_wake(int idx);
  void maybe_raise_host_irq();

  sim::EventQueue& eq_;
  Config cfg_;
  std::string name_;
  const std::uint32_t board_id_;
  Sram sram_;
  Cpu cpu_;
  net::Link* uplink_ = nullptr;
  host::HostMemory* hmem_ = nullptr;
  host::PciBus* pci_ = nullptr;
  host::InterruptController* irq_ = nullptr;
  std::function<bool(host::DmaAddr, std::size_t)> pinned_ok_;
  std::function<void()> on_host_crash_;
  Hooks hooks_;
  sim::Trace* trace_ = nullptr;

  net::NodeId node_id_ = net::kInvalidNode;
  net::RouteTable routes_;

  std::uint32_t isr_ = 0;
  std::uint32_t imr_ = 0;
  std::vector<IntervalTimer> timers_;
  // Bare-card timer wake-ups: the instant each pending one fires at, or
  // kNoWake. A wake-up that finds its timer re-armed later re-schedules.
  static constexpr sim::Time kNoWake = ~sim::Time{0};
  std::vector<sim::Time> wake_at_;

  bool hdma_busy_ = false;
  std::uint32_t hdma_host_ = 0;
  std::uint32_t hdma_local_ = 0;
  std::uint32_t hdma_len_ = 0;
  std::uint64_t hdma_epoch_ = 0;  // invalidates in-flight DMA on reset

  sim::Ring<net::Packet> rx_queue_;  // bounded by rx_queue_cap
  std::uint32_t scratch_ = 0;
  NicStats stats_;
};

}  // namespace myri::lanai
