#include "host/interrupts.hpp"

namespace myri::host {

void InterruptController::raise(IrqLine line) {
  const auto i = static_cast<unsigned>(line);
  if (pending_[i]) return;  // level-triggered: coalesce
  pending_[i] = true;
  eq_.post_after(cfg_.latency, [this, i] {
    pending_[i] = false;
    ++delivered_[i];
    if (handlers_[i]) handlers_[i]();
  });
}

}  // namespace myri::host
