#include "lanai/nic.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "lanai/tx_descriptor.hpp"

namespace myri::lanai {

Nic::Nic(sim::EventQueue& eq, Config cfg, std::string name)
    : eq_(eq),
      cfg_(cfg),
      name_(std::move(name)),
      sram_(cfg.sram_bytes),
      cpu_(sram_, *this),
      timers_(kNumTimers, IntervalTimer(cfg_.timing.timer_tick)),
      wake_at_(kNumTimers, kNoWake) {}

void Nic::attach_host(host::HostMemory& hmem, host::PciBus& pci,
                      host::InterruptController& irq) {
  hmem_ = &hmem;
  pci_ = &pci;
  irq_ = &irq;
}

void Nic::set_isr_bits(std::uint32_t bits) {
  isr_ |= bits;
  maybe_raise_host_irq();
}

void Nic::maybe_raise_host_irq() {
  // The IMR gates which ISR bits interrupt the host. FTGM routes only the
  // watchdog timer (IT1) through it; GM leaves the IMR clear and polls.
  if ((isr_ & imr_) != 0 && irq_ != nullptr) {
    irq_->raise(host::IrqLine::kFatal);
  }
}

void Nic::set_imr(std::uint32_t v) {
  sync();
  imr_ = v;
  timers_changed();
}

void Nic::arm_timer(int idx, std::uint32_t ticks) {
  sync();
  timer(idx).arm(eq_.now(), ticks);
  timers_changed();
}

std::uint32_t Nic::timer_remaining(int idx) {
  sync();
  return timer(idx).remaining(eq_.now());
}

void Nic::expire_timer(int idx) {
  timer(idx).disarm();
  set_isr_bits(idx == 0 ? kIsrIt0 : idx == 1 ? kIsrIt1 : kIsrIt2);
  if (hooks_.on_timer) hooks_.on_timer(idx);
}

void Nic::timers_changed() {
  if (hooks_.rearmed) {
    hooks_.rearmed();
    return;
  }
  if (hooks_.sync) return;
  for (int i = 0; i < kNumTimers; ++i) {
    if (timer(i).armed()) schedule_timer_wake(i);
  }
}

void Nic::schedule_timer_wake(int idx) {
  // Bare card: one pending wake-up per timer, never later than the
  // deadline; one that finds the deadline moved later re-schedules.
  const IntervalTimer& t = timer(idx);
  auto& wake = wake_at_[static_cast<std::size_t>(idx)];
  if (wake <= t.deadline()) return;
  wake = t.deadline();
  eq_.post_at(t.deadline(), [this, idx] {
    auto& w = wake_at_[static_cast<std::size_t>(idx)];
    if (w != eq_.now()) return;  // superseded by an earlier wake-up
    w = kNoWake;
    if (hooks_.sync) return;     // an MCP took the clock over meanwhile
    const IntervalTimer& tm = timer(idx);
    if (!tm.armed()) return;
    if (tm.deadline() <= eq_.now()) {
      expire_timer(idx);
    } else {
      schedule_timer_wake(idx);  // re-armed later since
    }
  });
}

void Nic::start_hdma(bool to_sram, host::DmaAddr haddr, std::uint32_t laddr,
                     std::uint32_t len) {
  if (hdma_busy_ || pci_ == nullptr || hmem_ == nullptr) {
    ++stats_.tx_errors;
    return;
  }
  hdma_busy_ = true;
  const std::uint64_t epoch = hdma_epoch_;
  pci_->dma(len, [this, to_sram, haddr, laddr, len, epoch] {
    if (epoch != hdma_epoch_) return;  // card was reset mid-transfer
    hdma_busy_ = false;
    ++stats_.hdma_transfers;
    stats_.hdma_bytes += len;
    if (to_sram) {
      // Read DMA from host memory. Reads of unpinned-but-existing memory
      // return stale garbage (a data corruption, not a crash); reads
      // beyond physical memory master-abort, which on this platform's
      // chipset raises an NMI: the host goes down.
      auto dst = sram_.bytes(laddr, len);
      if (dst.size() == len) {
        auto src = hmem_->at(haddr, len);
        if (src.size() == len) {
          std::memcpy(dst.data(), src.data(), len);
        } else {
          ++stats_.wild_dma_reads;
          std::fill(dst.begin(), dst.end(), std::byte{0xff});
          if (on_host_crash_) on_host_crash_();
        }
      }
    } else {
      // Write DMA into host memory. Writes outside pinned regions scribble
      // over kernel/user state: the "host computer crash" failure category.
      const bool safe = pinned_ok_ && pinned_ok_(haddr, len) &&
                        hmem_->at(haddr, len).size() == len;
      auto src = std::as_const(sram_).bytes(laddr, len);
      if (safe && src.size() == len) {
        hmem_->write(haddr, src);
      } else {
        ++stats_.wild_dma_writes;
        if (on_host_crash_) on_host_crash_();
      }
    }
    set_isr_bits(kIsrHdmaDone);
    if (hooks_.on_hdma_done) hooks_.on_hdma_done();
  });
}

void Nic::tx_from_descriptor(std::uint32_t desc_addr) {
  using L = TxDescLayout;
  if (!sram_.in_range(desc_addr, L::kSize)) {
    ++stats_.tx_errors;
    return;
  }
  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.src = node_id_;
  pkt.dst = static_cast<net::NodeId>(sram_.read32(desc_addr + L::kDst));
  pkt.seq = sram_.read32(desc_addr + L::kSeq);
  pkt.stream = sram_.read32(desc_addr + L::kStream);
  pkt.dst_port = static_cast<std::uint8_t>(sram_.read32(desc_addr + L::kDstPort));
  pkt.src_port = static_cast<std::uint8_t>(sram_.read32(desc_addr + L::kSrcPort));
  pkt.msg_id = sram_.read32(desc_addr + L::kMsgId);
  pkt.msg_len = sram_.read32(desc_addr + L::kMsgLen);
  pkt.frag_offset = sram_.read32(desc_addr + L::kFragOffset);
  const std::uint32_t flags = sram_.read32(desc_addr + L::kFlags);
  pkt.priority = static_cast<std::uint8_t>(flags & 1u);
  pkt.directed = (flags & 4u) != 0;
  pkt.notify = (flags & 8u) != 0;
  pkt.target_vaddr = sram_.read32(desc_addr + L::kTarget);

  const std::uint32_t pay_addr = sram_.read32(desc_addr + L::kPayloadAddr);
  const std::uint32_t pay_len = sram_.read32(desc_addr + L::kPayloadLen);
  if (pay_len > net::kMaxPacketPayload || !sram_.in_range(pay_addr, pay_len)) {
    ++stats_.tx_errors;
    return;
  }
  auto src = std::as_const(sram_).bytes(pay_addr, pay_len);
  pkt.payload.assign(src.begin(), src.end());
  pkt.seal();
  send_packet(std::move(pkt));
}

void Nic::send_packet(net::Packet pkt, bool resolve_route) {
  if (uplink_ == nullptr) {
    ++stats_.tx_errors;
    return;
  }
  if (resolve_route && pkt.route.empty()) {
    const auto* r = route(pkt.dst);
    if (r == nullptr) {
      ++stats_.tx_errors;
      if (trace_ && trace_->on(sim::TraceCat::kNic)) {
        trace_->log(sim::TraceCat::kNic, eq_.now(), name_,
                    "no route to " + std::to_string(pkt.dst));
      }
      return;
    }
    pkt.route = *r;
  }
  ++stats_.pkts_tx;
  if (trace_ && trace_->on(sim::TraceCat::kNic)) {
    trace_->log(sim::TraceCat::kNic, eq_.now(), name_, "TX " + pkt.describe());
  }
  uplink_->send(std::move(pkt));
}

net::Packet Nic::rx_pop() {
  net::Packet p = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  return p;
}

void Nic::ring_doorbell() {
  set_isr_bits(kIsrDoorbell);
  if (hooks_.on_doorbell) hooks_.on_doorbell();
}

void Nic::deliver(net::Packet pkt, std::uint8_t /*in_port*/) {
  if (rx_queue_.size() >= cfg_.rx_queue_cap) {
    // Backpressure overflow: a wedged MCP stops draining; packets die here
    // and Go-Back-N on the peer retransmits (or its watchdog fires). The
    // RECV condition is level-triggered: the ISR stays asserted and the
    // notification still fires so a freshly reloaded MCP starts draining.
    ++stats_.rx_dropped_full;
    set_isr_bits(kIsrRecv);
    if (hooks_.on_rx) hooks_.on_rx();
    return;
  }
  ++stats_.pkts_rx;
  if (trace_ && trace_->on(sim::TraceCat::kNic)) {
    trace_->log(sim::TraceCat::kNic, eq_.now(), name_, "RX " + pkt.describe());
  }
  rx_queue_.push_back(std::move(pkt));
  set_isr_bits(kIsrRecv);
  if (hooks_.on_rx) hooks_.on_rx();
}

void Nic::reset() {
  sync();
  isr_ = 0;
  imr_ = 0;
  for (auto& t : timers_) t.disarm();
  hdma_busy_ = false;
  ++hdma_epoch_;  // orphan any in-flight DMA completion
  rx_queue_.clear();
  routes_.clear();
  scratch_ = 0;
  cpu_.reset();
  timers_changed();
}

std::uint32_t Nic::mmio_read(std::uint32_t addr) {
  switch (addr) {
    case kRegIsr: sync(); return isr_;
    case kRegImr: return imr_;
    case kRegIt0: return timer_remaining(0);
    case kRegIt1: return timer_remaining(1);
    case kRegIt2: return timer_remaining(2);
    case kRegHdmaHost: return hdma_host_;
    case kRegHdmaLocal: return hdma_local_;
    case kRegHdmaLen: return hdma_len_;
    case kRegHdmaCtrl: return hdma_busy_ ? 1u : 0u;
    case kRegScratch: return scratch_;
    default: return 0;
  }
}

void Nic::mmio_write(std::uint32_t addr, std::uint32_t value) {
  switch (addr) {
    case kRegIsr: sync(); isr_ &= ~value; break;  // write-1-to-clear
    case kRegImr: set_imr(value); maybe_raise_host_irq(); break;
    case kRegIt0: arm_timer(0, value); break;
    case kRegIt1: arm_timer(1, value); break;
    case kRegIt2: arm_timer(2, value); break;
    case kRegHdmaHost: hdma_host_ = value; break;
    case kRegHdmaLocal: hdma_local_ = value; break;
    case kRegHdmaLen: hdma_len_ = value; break;
    case kRegHdmaCtrl:
      // bit1: SRAM->host write; else bit0: host->SRAM read.
      if (value & 2u) {
        start_hdma(false, hdma_host_, hdma_local_, hdma_len_);
      } else if (value & 1u) {
        start_hdma(true, hdma_host_, hdma_local_, hdma_len_);
      }
      break;
    case kRegTxDesc: tx_from_descriptor(value); break;
    case kRegScratch: scratch_ = value; break;
    default: break;  // unmapped MMIO writes are ignored (bus sink)
  }
}

}  // namespace myri::lanai
