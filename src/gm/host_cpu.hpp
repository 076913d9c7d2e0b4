// Host-CPU cost model.
//
// GM's user library runs on the host processor; its per-call overhead is
// one of the paper's three principal metrics (Table 2: host utilization).
// All library work serializes through this object so concurrent API calls
// queue like they would on one CPU, and busy_ns() gives the utilization
// benches their numerator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace myri::gm {

class HostCpu {
 public:
  explicit HostCpu(sim::EventQueue& eq) : eq_(eq) {}

  /// Occupy the CPU for `cost`, then run `then`. The caller's closure is
  /// forwarded to EventQueue::post_at and built in its slab entry, with no
  /// type-erased wrapper in between.
  template <typename F>
  void run(sim::Time cost, F&& then) {
    const sim::Time start = std::max(eq_.now(), busy_until_);
    busy_until_ = start + cost;
    busy_ns_ += cost;
    eq_.post_at(busy_until_, std::forward<F>(then));
  }

  [[nodiscard]] sim::Time busy_ns() const noexcept { return busy_ns_; }

  /// Benches snapshot-and-diff: reset the accumulated busy time.
  void reset_busy() noexcept { busy_ns_ = 0; }

 private:
  sim::EventQueue& eq_;
  sim::Time busy_until_ = 0;
  sim::Time busy_ns_ = 0;
};

}  // namespace myri::gm
