#include "core/ftd.hpp"

namespace myri::core {

Ftd::Ftd(sim::EventQueue& eq, Driver& driver, Config cfg)
    : eq_(eq), driver_(driver), cfg_(cfg) {}

void Ftd::start() {
  driver_.set_fatal_handler([this] { on_fatal(); });
}

void Ftd::bind_metrics(metrics::Registry& reg, const std::string& prefix) {
  phase_timer_ = metrics::PhaseTimer(reg, prefix + ".recovery");
  views_.expose(reg, prefix + ".wakeups", stats_.wakeups);
  views_.expose(reg, prefix + ".false_alarms", stats_.false_alarms);
  views_.expose(reg, prefix + ".recoveries", stats_.recoveries);
}

void Ftd::report_counts() const {
  if (sim::Checks* c = eq_.checks()) c->ftd_counted(*this);
}

void Ftd::step(sim::Time cost, std::function<void()> fn) {
  eq_.post_after(cost, std::move(fn));
}

void Ftd::on_fatal() {
  if (busy_) return;  // already mid-recovery; level interrupt coalesces
  busy_ = true;
  phases_.interrupt_raised = eq_.now();
  step(cfg_.wake_latency, [this] {
    ++stats_.wakeups;
    report_counts();
    phases_.woken = eq_.now();
    // Detection runs from the injection stamp when an experiment set one
    // (the Table 3 definition); otherwise from the FATAL interrupt.
    phase_timer_.start(phases_.fault_injected != 0 ? phases_.fault_injected
                                                   : phases_.interrupt_raised);
    phase_timer_.mark("detect", eq_.now());
    if (trace_ && trace_->on(sim::TraceCat::kFt)) {
      trace_->log(sim::TraceCat::kFt, eq_.now(), "ftd", "woken by FATAL irq");
    }
    // Confirm the hang: write the magic word; a live MCP clears it in
    // L_timer(). Wait comfortably longer than the maximum L_timer gap.
    driver_.write_magic(cfg_.magic);
    step(cfg_.timing.magic_probe_wait, [this] {
      phases_.confirmed = eq_.now();
      phase_timer_.mark("confirm", eq_.now());
      if (driver_.read_magic() != cfg_.magic) {
        // The MCP cleared it: interface alive after all.
        ++stats_.false_alarms;
        report_counts();
        busy_ = false;
        if (trace_ && trace_->on(sim::TraceCat::kFt)) {
          trace_->log(sim::TraceCat::kFt, eq_.now(), "ftd",
                      "false alarm: magic word cleared");
        }
        return;
      }
      run_recovery();
    });
  });
}

void Ftd::run_recovery() {
  if (trace_ && trace_->on(sim::TraceCat::kFt)) {
    trace_->log(sim::TraceCat::kFt, eq_.now(), "ftd",
                "hang confirmed; starting recovery");
  }
  driver_.disable_interrupts_and_reset();
  step(cfg_.timing.card_reset, [this] {
    phases_.reset_done = eq_.now();
    driver_.clear_sram();
    step(cfg_.timing.sram_clear, [this] {
      phases_.sram_cleared = eq_.now();
      phase_timer_.mark("reset", eq_.now());
      driver_.reload_mcp();
      step(cfg_.timing.mcp_reload, [this] {
        phases_.mcp_reloaded = eq_.now();
        driver_.restart_dma_and_interrupts();
        step(cfg_.timing.dma_restart, [this] {
          phases_.dma_restarted = eq_.now();
          phase_timer_.mark("reload", eq_.now());
          driver_.register_page_hash();
          step(cfg_.timing.page_hash_restore, [this] {
            phases_.page_hash_done = eq_.now();
            driver_.restore_routes();
            step(cfg_.timing.route_restore, [this] {
              phases_.routes_done = eq_.now();
              const std::vector<std::uint8_t> ports =
                  open_ports_ ? open_ports_() : std::vector<std::uint8_t>{};
              const sim::Time per = cfg_.timing.post_fault_event;
              sim::Time at = 0;
              for (std::uint8_t p : ports) {
                at += per;
                step(at, [this, p] {
                  if (post_fault_) post_fault_(p);
                });
              }
              step(at, [this] {
                phases_.events_posted = eq_.now();
                // Page hash + routing tables + fault-event posting: the
                // Table 3 "table restore" row.
                phase_timer_.mark("restore", eq_.now());
                phase_timer_.finish(eq_.now());
                ++stats_.recoveries;
                report_counts();
                busy_ = false;  // rewind and stand guard for the next fault
                if (trace_ && trace_->on(sim::TraceCat::kFt)) {
                  trace_->log(sim::TraceCat::kFt, eq_.now(), "ftd",
                              "FTD recovery phase complete");
                }
                if (on_recovered_) on_recovered_();
              });
            });
          });
        });
      });
    });
  });
}

}  // namespace myri::core
