#include "host/pci.hpp"

#include <algorithm>

namespace myri::host {

void PciBus::occupy(sim::Time dur, sim::EventQueue::Callback done) {
  const sim::Time start = std::max(eq_.now(), busy_until_);
  busy_until_ = start + dur;
  busy_time_ += dur;
  ++txns_;
  eq_.post_at(busy_until_, std::move(done));
}

void PciBus::dma(std::size_t bytes, sim::EventQueue::Callback done) {
  // MB/s == bytes/us; convert to ns.
  const auto transfer = static_cast<sim::Time>(
      static_cast<double>(bytes) / cfg_.mb_per_s * 1000.0);
  occupy(cfg_.dma_setup + transfer, std::move(done));
}

void PciBus::pio(sim::EventQueue::Callback done) {
  occupy(cfg_.pio, std::move(done));
}

}  // namespace myri::host
