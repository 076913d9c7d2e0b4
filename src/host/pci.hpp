// PCI bus model.
//
// The NIC's host-DMA engine and the driver's programmed I/O share one bus;
// transactions serialize FIFO. The bus is the bandwidth bottleneck in the
// paper's setup (Fig 7 saturates ~92 MB/s per direction, well below the
// 250 MB/s link rate), so its throughput constant is the main bandwidth
// calibration knob.
#pragma once

#include <cstdint>

#include "host/timing.hpp"
#include "sim/event_queue.hpp"

namespace myri::host {

class PciBus {
 public:
  PciBus(sim::EventQueue& eq, PciTiming cfg) : eq_(eq), cfg_(cfg) {}

  /// Queue a DMA transaction of `bytes`; `done` fires when it completes.
  /// `done` is the event queue's callback type: a step's closure is
  /// type-erased once and moves into its event in one piece.
  void dma(std::size_t bytes, sim::EventQueue::Callback done);

  /// Queue a programmed-I/O access (doorbell/register); `done` on completion.
  void pio(sim::EventQueue::Callback done);

  /// Cost of one PIO access (for synchronous accounting paths).
  [[nodiscard]] sim::Time pio_cost() const noexcept { return cfg_.pio; }

  [[nodiscard]] sim::Time busy_until() const noexcept { return busy_until_; }

  /// Total bus-occupied time (utilization diagnostics).
  [[nodiscard]] sim::Time busy_time() const noexcept { return busy_time_; }
  [[nodiscard]] std::uint64_t transactions() const noexcept { return txns_; }

 private:
  void occupy(sim::Time dur, sim::EventQueue::Callback done);

  sim::EventQueue& eq_;
  PciTiming cfg_;
  sim::Time busy_until_ = 0;
  sim::Time busy_time_ = 0;
  std::uint64_t txns_ = 0;
};

}  // namespace myri::host
