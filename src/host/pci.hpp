// PCI bus model.
//
// The NIC's host-DMA engine and the driver's programmed I/O share one bus;
// transactions serialize FIFO. The bus is the bandwidth bottleneck in the
// paper's setup (Fig 7 saturates ~92 MB/s per direction, well below the
// 250 MB/s link rate), so its throughput constant is the main bandwidth
// calibration knob.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "host/timing.hpp"
#include "sim/event_queue.hpp"

namespace myri::host {

class PciBus {
 public:
  PciBus(sim::EventQueue& eq, PciTiming cfg) : eq_(eq), cfg_(cfg) {}

  /// Queue a DMA transaction of `bytes`; `done` fires when it completes.
  /// Like every bus call, `done` is forwarded to EventQueue::post_at and
  /// built in its slab entry: a step's closure is type-erased once, in
  /// place.
  template <typename F>
  void dma(std::size_t bytes, F&& done) {
    occupy(dma_time(bytes), std::forward<F>(done));
  }

  /// Queue a programmed-I/O access (doorbell/register); `done` on completion.
  template <typename F>
  void pio(F&& done) {
    occupy(cfg_.pio, std::forward<F>(done));
  }

  /// Cost of one PIO access (for synchronous accounting paths).
  [[nodiscard]] sim::Time pio_cost() const noexcept { return cfg_.pio; }

  [[nodiscard]] sim::Time busy_until() const noexcept { return busy_until_; }

  /// Total bus-occupied time (utilization diagnostics).
  [[nodiscard]] sim::Time busy_time() const noexcept { return busy_time_; }
  [[nodiscard]] std::uint64_t transactions() const noexcept { return txns_; }

 private:
  /// Bus time of a DMA of `bytes`: setup plus transfer at the bus rate.
  [[nodiscard]] sim::Time dma_time(std::size_t bytes) const noexcept {
    // MB/s == bytes/us; convert to ns.
    const auto transfer = static_cast<sim::Time>(
        static_cast<double>(bytes) / cfg_.mb_per_s * 1000.0);
    return cfg_.dma_setup + transfer;
  }
  template <typename F>
  void occupy(sim::Time dur, F&& done) {
    const sim::Time start = std::max(eq_.now(), busy_until_);
    busy_until_ = start + dur;
    busy_time_ += dur;
    ++txns_;
    eq_.post_at(busy_until_, std::forward<F>(done));
  }

  sim::EventQueue& eq_;
  PciTiming cfg_;
  sim::Time busy_until_ = 0;
  sim::Time busy_time_ = 0;
  std::uint64_t txns_ = 0;
};

}  // namespace myri::host
