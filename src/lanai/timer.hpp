// LANai interval timer: a 32-bit down-counter decremented every 0.5 us.
//
// Writing a value arms the timer; on expiry it sets its ISR bit and stays
// expired until re-armed — exactly the semantics the paper's watchdog
// relies on: L_timer() re-arms IT1 in time during normal operation, and a
// hung MCP lets it expire.
//
// The timer is a deadline register, not a scheduled event: arming records
// when the counter reaches zero and the virtual instant it was armed at
// (which orders the expiry against other events at the same timestamp,
// exactly as the scheduling order of an expiry event would). Re-arming
// only overwrites the register, so there is no cancel churn. Whoever owns
// the card's clock applies the expiry: the Nic schedules a wake-up for a
// bare card, while a loaded MCP replays IT0/IT1 expiries analytically
// together with its L_timer ticks (mcp::Mcp::catch_up, DESIGN.md §12).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace myri::lanai {

class IntervalTimer {
 public:
  explicit IntervalTimer(sim::Time tick) : tick_(tick) {}

  /// Arm at virtual instant `at` with `ticks` timer ticks; 0 disarms.
  /// Re-arming replaces the previous deadline.
  void arm(sim::Time at, std::uint32_t ticks) {
    armed_ = ticks != 0;
    deadline_ = at + static_cast<sim::Time>(ticks) * tick_;
    armed_at_ = at;
  }

  /// Disarm (also what expiry does: the timer stays expired until re-armed).
  void disarm() { armed_ = false; }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  /// When the counter reaches zero (valid while armed()).
  [[nodiscard]] sim::Time deadline() const noexcept { return deadline_; }
  /// The virtual instant the timer was armed at (valid while armed()).
  [[nodiscard]] sim::Time armed_at() const noexcept { return armed_at_; }

  /// Remaining ticks at `now` (0 when expired or disarmed).
  [[nodiscard]] std::uint32_t remaining(sim::Time now) const {
    if (!armed_ || deadline_ <= now) return 0;
    return static_cast<std::uint32_t>((deadline_ - now) / tick_);
  }

 private:
  sim::Time tick_;
  sim::Time deadline_ = 0;
  sim::Time armed_at_ = 0;
  bool armed_ = false;
};

}  // namespace myri::lanai
