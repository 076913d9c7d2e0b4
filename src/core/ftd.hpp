// The Fault Tolerance Daemon (paper Section 4.3).
//
// A host daemon that sleeps until the driver wakes it on a FATAL (watchdog)
// interrupt. It then confirms the hang with a magic-word probe — it writes
// a magic value into LANai SRAM that a live MCP's L_timer() would clear —
// and, if confirmed, walks the recovery sequence: card reset, SRAM clear,
// MCP reload, DMA/interrupt restart, page-hash and routing-table
// restoration, and finally a FAULT_DETECTED event into every open port's
// receive queue. Each phase's duration comes from RecoveryTiming, which is
// calibrated to the paper's Table 3 (~765 ms total, ~500 ms of it the MCP
// reload).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/driver.hpp"
#include "host/timing.hpp"
#include "metrics/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"

namespace myri::core {

class Ftd {
 public:
  struct Config {
    host::RecoveryTiming timing;
    std::uint32_t magic = 0xfeedface;
    /// Daemon scheduling latency between the interrupt handler's wakeup
    /// and the FTD actually running.
    sim::Time wake_latency = sim::usec(120);
  };

  /// Virtual-time stamps of the phases of the most recent recovery
  /// (reproduces the paper's Figure 9 timeline).
  struct Phases {
    sim::Time fault_injected = 0;   // set externally by experiments
    sim::Time interrupt_raised = 0; // FATAL reached the driver
    sim::Time woken = 0;            // FTD started running
    sim::Time confirmed = 0;        // magic-word probe concluded
    sim::Time reset_done = 0;
    sim::Time sram_cleared = 0;
    sim::Time mcp_reloaded = 0;
    sim::Time dma_restarted = 0;
    sim::Time page_hash_done = 0;
    sim::Time routes_done = 0;
    sim::Time events_posted = 0;    // FTD phase complete
  };

  struct Stats {
    std::uint64_t wakeups = 0;
    std::uint64_t false_alarms = 0;
    std::uint64_t recoveries = 0;
  };

  Ftd(sim::EventQueue& eq, Driver& driver, Config cfg);

  /// Start the daemon: hooks the driver's FATAL path and waits.
  void start();

  /// Which ports are open from the host's point of view (the FTD posts
  /// FAULT_DETECTED into each of their receive queues).
  void set_open_ports_provider(std::function<std::vector<std::uint8_t>()> f) {
    open_ports_ = std::move(f);
  }
  /// Sink that appends a FAULT_DETECTED event to a port's receive queue.
  void set_fault_event_sink(std::function<void(std::uint8_t)> f) {
    post_fault_ = std::move(f);
  }
  /// Called when the FTD phase of a recovery finishes.
  void set_on_recovered(std::function<void()> f) {
    on_recovered_ = std::move(f);
  }
  void set_trace(sim::Trace* t) { trace_ = t; }

  /// Publish recovery accounting under "<prefix>.": wakeup/false-alarm/
  /// recovery counters plus the Table 3 per-phase duration histograms
  /// "<prefix>.recovery.{detect,confirm,reset,reload,restore}_ns" (the
  /// sixth Table 3 phase, port replay, is recorded by gm::Port).
  void bind_metrics(metrics::Registry& reg, const std::string& prefix);

  /// Experiments stamp the injection time so Phases yields Figure 9.
  void mark_fault_injected() { phases_.fault_injected = eq_.now(); }

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] const Phases& phases() const noexcept { return phases_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void on_fatal();
  void run_recovery();
  void step(sim::Time cost, std::function<void()> fn);
  // A counter in Stats moved: tell the invariant checker.
  void report_counts() const;

  sim::EventQueue& eq_;
  Driver& driver_;
  Config cfg_;
  std::function<std::vector<std::uint8_t>()> open_ports_;
  std::function<void(std::uint8_t)> post_fault_;
  std::function<void()> on_recovered_;
  sim::Trace* trace_ = nullptr;
  bool busy_ = false;
  Phases phases_;
  Stats stats_;

  metrics::PhaseTimer phase_timer_;
  metrics::CounterViews views_;
};

}  // namespace myri::core
