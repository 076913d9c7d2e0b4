#include "core/driver.hpp"

#include <stdexcept>
#include <string>

#include "mcp/sram_layout.hpp"

namespace myri::core {

Driver::Driver(lanai::Nic& nic, mcp::Mcp& mcp, host::InterruptController& irq,
               host::TimingConfig timing)
    : nic_(nic), mcp_(mcp), irq_(irq), timing_(timing) {}

void Driver::install(mcp::HostIface* host_iface) {
  host_iface_ = host_iface;
  irq_.set_handler(host::IrqLine::kFatal, [this] {
    mcp_.catch_up();
    ++fatals_;
    // Acknowledge the level-triggered source (write-1-to-clear IT1) so
    // unrelated ISR activity does not re-raise FATAL while the FTD works.
    nic_.clear_isr_bits(lanai::kIsrIt1);
    if (wake_ftd_) wake_ftd_();
  });
  mcp_.set_host(host_iface_);
  mcp_.load();
  mcp_.host_register_page_hash();
}

std::uint32_t Driver::map_route_update(const net::RouteUpdateView& update,
                                       net::NodeId from) {
  mapper_node_ = from;
  if (update.epoch < installed_epoch_) {
    return installed_epoch_;  // late retransmit from a superseded remap
  }
  if (update.epoch > highest_seen_epoch_) highest_seen_epoch_ = update.epoch;
  if (update.nchunks == 0) {
    // Epoch probe: no entries. If it named a newer epoch the node is now
    // suspect (routes_suspect()) until the re-push completes.
    return installed_epoch_;
  }
  // Data chunk: mirror the entries (merged view — routes to nodes the
  // latest remap could not see survive, matching what the card holds).
  update.for_each([this](net::NodeId dst, std::span<const std::uint8_t> r) {
    routes_.set(dst, r);
  });
  if (update.epoch > installed_epoch_) {
    if (chunks_epoch_ != update.epoch) {
      chunks_epoch_ = update.epoch;
      chunks_got_.assign(update.nchunks, false);
    }
    if (update.chunk < chunks_got_.size()) chunks_got_[update.chunk] = true;
    bool complete = true;
    for (const bool got : chunks_got_) complete = complete && got;
    if (complete) installed_epoch_ = update.epoch;
  }
  return installed_epoch_;
}

void Driver::install_route(net::NodeId dst, const net::Route& route) {
  if (!routes_.set(dst, route)) {
    throw std::out_of_range("route to node " + std::to_string(dst) +
                            ": past the route table bound");
  }
  nic_.set_route(dst, route);
}

void Driver::record_local_epoch(std::uint32_t epoch) {
  if (epoch > installed_epoch_) installed_epoch_ = epoch;
  if (epoch > highest_seen_epoch_) highest_seen_epoch_ = epoch;
}

// The magic word is tick state: a live MCP's L_timer clears it, so
// elapsed ticks are replayed before the word is written or read.
void Driver::write_magic(std::uint32_t value) {
  mcp_.catch_up();
  nic_.sram().write32(mcp::SramLayout::kMagicAddr, value);
}

std::uint32_t Driver::read_magic() const {
  mcp_.catch_up();
  return nic_.sram().read32(mcp::SramLayout::kMagicAddr);
}

void Driver::disable_interrupts_and_reset() {
  // Unmap IO + card reset: registers, timers, DMA engine, RX queue and the
  // on-card route table return to power-on state.
  nic_.reset();
}

void Driver::clear_sram() { nic_.sram().clear(); }

void Driver::reload_mcp() {
  mcp_.set_host(host_iface_);
  mcp_.load();
}

void Driver::restart_dma_and_interrupts() {
  // DMA engine restart is implicit in Nic::reset(); nothing extra to do in
  // the model beyond re-enabling the IMR path, which mcp_.load() configured.
}

void Driver::restore_routes() {
  routes_.for_each([this](net::NodeId dst, const net::Route& route) {
    nic_.set_route(dst, route);
  });
  // The mirror restores *an epoch*, not necessarily the current one: tell
  // the MCP which, and let it announce to the mapper, which re-pushes if
  // a remap happened while this card was down. Pre-mapper direct installs
  // (epoch 0) have no mapper to ask and skip the announce.
  mcp_.host_restore_routes(mapper_node_, installed_epoch_);
}

}  // namespace myri::core
