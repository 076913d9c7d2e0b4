#include "mcp/mcp.hpp"

#include <algorithm>
#include <cassert>

#include "net/map_info.hpp"

namespace myri::mcp {

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kRecv: return "RECV";
    case EventType::kSent: return "SENT";
    case EventType::kGot: return "GOT";
    case EventType::kAlarm: return "ALARM";
    case EventType::kFaultDetected: return "FAULT_DETECTED";
    case EventType::kSendError: return "SEND_ERROR";
  }
  return "?";
}

namespace {
constexpr std::uint32_t kMagicAddr = SramLayout::kMagicAddr;
constexpr sim::Time kNever = ~sim::Time{0};

// (at, as_of) runs strictly before (b_at, b_as_of) on the event timeline.
constexpr bool precedes(sim::Time at, sim::Time as_of, sim::Time b_at,
                        sim::Time b_as_of) {
  return at < b_at || (at == b_at && as_of < b_as_of);
}

/// Every card runs the same routine, so it is assembled once per process.
/// Nothing writes the image: SEU injection flips the SRAM copy.
const SendChunkImage& send_chunk_image() {
  static const SendChunkImage image = assemble_send_chunk();
  return image;
}

std::uint32_t fragments_of(std::uint32_t len) {
  if (len == 0) return 1;
  return (len + net::kMaxPacketPayload - 1) / net::kMaxPacketPayload;
}
}  // namespace

template <typename F>
void Mcp::exec(sim::Time cost, F fn) {
  catch_up();
  auto& eq = nic_.event_queue();
  const sim::Time start = std::max(eq.now(), busy_until_);
  busy_until_ = start + cost;
  stats_.busy_ns += cost;
  if (busy_until_ > busy_limit_) replan();
  auto step = [this, g = gen_, fn = std::move(fn)]() mutable {
    catch_up();
    if (hung_ || !loaded_ || g != gen_) return;
    fn();
  };
  static_assert(sim::EventQueue::Callback::fits_inline<decltype(step)>(),
                "an exec step must fit the event slab's inline buffer");
  eq.post_at(busy_until_, std::move(step));
}

template <typename After>
void Mcp::post_event(std::uint8_t port, EventRecord ev, After after) {
  auto landed = [this, g = gen_, port, ev, after = std::move(after)]() mutable {
    if (!loaded_ || g != gen_) return;
    ++stats_.events_posted;
    if (host_) host_->post_event(port, ev);
    if (!hung_) after();
  };
  static_assert(sim::EventQueue::Callback::fits_inline<decltype(landed)>(),
                "a post_event step must fit the event slab's inline buffer");
  pci_.dma(kEventRecordWireBytes, std::move(landed));
}

void Mcp::post_event(std::uint8_t port, EventRecord ev) {
  post_event(port, ev, [] {});
}

Mcp::Mcp(lanai::Nic& nic, host::PciBus& pci, host::HostMemory& hmem,
         Config cfg)
    : nic_(nic), pci_(pci), hmem_(hmem), cfg_(cfg),
      image_(send_chunk_image()) {}

// --------------------------------------------------------------------------
// Lifecycle
// --------------------------------------------------------------------------

void Mcp::load() {
  catch_up();
  // Write the send_chunk image into the SRAM code segment and watch it:
  // the native mirror runs only while no write has touched it since.
  auto& sram = nic_.sram();
  for (std::size_t i = 0; i < image_.program.words.size(); ++i) {
    sram.write32(image_.program.base + static_cast<std::uint32_t>(i * 4),
                 image_.program.words[i]);
  }
  sram.watch_code(image_.program.base, code_size());
  code_epoch_ = sram.code_epoch();
  ++gen_;
  loaded_ = true;
  hung_ = false;
  hang_reason_.clear();
  page_hash_registered_ = false;
  const sim::Time now = nic_.event_queue().now();
  busy_until_ = now;
  runs_.clear();  // runs reserved by the previous generation never execute
  for (auto& p : ports_) {
    p.open = false;
    p.tokens.clear();
  }
  control_queue_.clear();
  send_streams_.clear();
  recv_streams_.clear();
  send_rr_.clear();
  dma_active_ = false;
  rto_scan_armed_ = false;
  rx_handler_pending_ = false;
  route_epoch_ = 0;  // card reset wiped the table; driver restore re-seeds
  cancel_announce();  // a reload supersedes any pending announce retries

  lanai::Nic::Hooks hooks;
  hooks.on_hdma_done = [this] {
    catch_up();
    if (hung_ || !loaded_ || !dma_active_) return;
    exec(cfg_.timing.lanai.dispatch_overhead, [this] { finish_fragment_tx(); });
  };
  hooks.on_rx = [this] {
    catch_up();
    if (hung_ || !loaded_) return;
    if (rx_handler_pending_) return;
    rx_handler_pending_ = true;
    exec(cfg_.timing.lanai.dispatch_overhead, [this] { on_packet(); });
  };
  // The MCP owns the card's clock: IT0/IT1 expire in catch_up().
  hooks.sync = [this] { catch_up(); };
  hooks.rearmed = [this] { replan(); };
  nic_.set_hooks(std::move(hooks));

  arm_it0(now);
  if (cfg_.mode == McpMode::kFtgm) {
    nic_.set_imr(nic_.imr() | lanai::kIsrIt1);
    arm_watchdog(now);
  }
  replan();
  // Packets may already be waiting (arrivals during a reload): drain them.
  if (!nic_.rx_empty()) {
    rx_handler_pending_ = true;
    exec(cfg_.timing.lanai.dispatch_overhead, [this] { on_packet(); });
  }
}

bool Mcp::run_send_chunk(std::uint32_t entry) {
  catch_up();
  ++stats_.send_chunk_runs;
  auto& sram = nic_.sram();
  std::optional<lanai::RunResult> native;
  if (sram.code_epoch() == code_epoch_) {
    native = run_send_chunk_native(image_, entry, nic_.cpu(), sram, nic_,
                                   cfg_.cycle_budget);
  }
  if (native) ++stats_.send_chunk_native;
  const lanai::RunResult r =
      native ? std::move(*native) : nic_.cpu().run(entry, cfg_.cycle_budget);
  const sim::Time c =
      r.cycles * static_cast<sim::Time>(cfg_.timing.lanai.cycle_time_ns());
  busy_until_ = std::max(busy_until_, nic_.event_queue().now()) + c;
  stats_.busy_ns += c;
  if (busy_until_ > busy_limit_) replan();
  if (r.status == lanai::RunStatus::kReturned) return true;
  handle_cpu_failure(r);
  return false;
}

void Mcp::handle_cpu_failure(const lanai::RunResult& r) {
  if (r.status == lanai::RunStatus::kRestart) {
    restart_self();
    return;
  }
  become_hung(std::string(lanai::to_string(r.status)) +
              (r.detail.empty() ? "" : (": " + r.detail)));
}

void Mcp::become_hung(const std::string& reason) {
  // The network processor stops executing instructions. Interval timers
  // and the host-interrupt logic are independent hardware and keep going;
  // that is precisely what the paper's watchdog detection relies on.
  hung_ = true;
  hang_reason_ = reason;
  ++stats_.hangs;
  replan();  // nothing re-arms IT1 any more: it will expire
  if (trace_ && trace_->on(sim::TraceCat::kMcp)) {
    trace_->log(sim::TraceCat::kMcp, nic_.event_queue().now(), nic_.name(),
                "HUNG: " + reason);
  }
}

void Mcp::restart_self() {
  // A corrupted jump landed on the reset vector: the control program
  // reinitializes itself from scratch. All connection/port state is lost
  // (the code image, including any injected fault, stays as-is).
  ++gen_;
  ++stats_.self_restarts;
  hung_ = false;
  hang_reason_.clear();
  for (auto& p : ports_) {
    p.open = false;
    p.tokens.clear();
  }
  control_queue_.clear();
  send_streams_.clear();
  recv_streams_.clear();
  send_rr_.clear();
  dma_active_ = false;
  rx_handler_pending_ = false;
  rto_scan_armed_ = false;
  cancel_announce();
  const sim::Time now = nic_.event_queue().now();
  busy_until_ = now;
  runs_.clear();
  arm_it0(now);
  if (cfg_.mode == McpMode::kFtgm) arm_watchdog(now);
  replan();
}

void Mcp::inject_hang(const std::string& reason) {
  catch_up();
  become_hung(reason);
}

void Mcp::bind_metrics(metrics::Registry& reg, const std::string& prefix) {
  const std::string p = prefix + '.';
  views_.expose(reg, p + "sends_posted", stats_.sends_posted);
  views_.expose(reg, p + "fragments_tx", stats_.fragments_tx);
  views_.expose(reg, p + "retransmissions", stats_.retransmissions);
  views_.expose(reg, p + "acks_tx", stats_.acks_tx);
  views_.expose(reg, p + "acks_rx", stats_.acks_rx);
  views_.expose(reg, p + "nacks_tx", stats_.nacks_tx);
  views_.expose(reg, p + "nacks_rx", stats_.nacks_rx);
  views_.expose(reg, p + "crc_drops", stats_.crc_drops);
  views_.expose(reg, p + "msgs_delivered", stats_.msgs_delivered);
  views_.expose(reg, p + "events_posted", stats_.events_posted);
  views_.expose(reg, p + "l_timer_runs", stats_.l_timer_runs);
  views_.expose(reg, p + "hangs", stats_.hangs);
  views_.expose(reg, p + "busy_ns", stats_.busy_ns);
  views_.expose(reg, p + "announces_tx", stats_.announces_sent);
  views_.expose(reg, p + "announce_retries", stats_.announce_retries);
  m_l_timer_gap_ = &reg.histogram(p + "l_timer_gap_ns");
}

// --------------------------------------------------------------------------
// Tickless L_timer (DESIGN.md section 12)
// --------------------------------------------------------------------------

sim::Time Mcp::it0_reload() const {
  return cfg_.timing.watchdog.l_timer_interval / cfg_.timing.lanai.timer_tick *
         cfg_.timing.lanai.timer_tick;
}

void Mcp::arm_it0(sim::Time at) {
  const auto ticks = static_cast<std::uint32_t>(
      cfg_.timing.watchdog.l_timer_interval / cfg_.timing.lanai.timer_tick);
  nic_.timer(0).arm(at, ticks);
}

void Mcp::arm_watchdog(sim::Time at) {
  const auto ticks = static_cast<std::uint32_t>(
      cfg_.timing.watchdog.it1_interval / cfg_.timing.lanai.timer_tick);
  nic_.timer(1).arm(at, ticks);
}

Mcp::TickEvent Mcp::next_tick() const {
  // Equal keys keep the eager chain's order: IT0 before IT1 (L_timer arms
  // them in that order), timers before a run.
  TickEvent n;  // kNone sorts after everything
  constexpr Tick kTimerTick[] = {Tick::kIt0, Tick::kIt1, Tick::kIt2};
  for (int i = 0; i < lanai::kNumTimers; ++i) {
    const lanai::IntervalTimer& t = nic_.timer(i);
    if (t.armed() && precedes(t.deadline(), t.armed_at(), n.at, n.as_of)) {
      n = {kTimerTick[i], t.deadline(), t.armed_at()};
    }
  }
  if (!runs_.empty()) {
    const ReservedRun& r = runs_.front();
    if (precedes(r.at, r.as_of, n.at, n.as_of)) n = {Tick::kRun, r.at, r.as_of};
  }
  return n;
}

bool Mcp::due(const TickEvent& t, bool wake) const {
  // The tie rule: a virtual event at now() precedes the executing event
  // exactly when its eager event would have been scheduled first. A
  // wake-up may have been scheduled at the very instant its virtual event
  // was armed; it applies that event too.
  const sim::EventQueue& eq = nic_.event_queue();
  const sim::Time now = eq.now();
  if (t.at != now) return t.at < now;
  const sim::Time cur = eq.current_scheduled_at();
  return t.as_of < cur || (wake && t.as_of == cur);
}

void Mcp::replay(bool wake) {
  if (replaying_ || !due(next_, wake)) return;
  replaying_ = true;
  for (TickEvent t = next_tick(); due(t, wake); t = next_tick()) {
    if (t.what == Tick::kIt0 && skip_idle_ticks()) continue;
    apply_tick(t);
  }
  replaying_ = false;
  replan();
}

void Mcp::apply_tick(const TickEvent& t) {
  switch (t.what) {
    case Tick::kIt0:
      nic_.expire_timer(0);
      if (!hung_ && loaded_) reserve_l_timer(t.at);
      break;
    case Tick::kIt1:
      // Pure hardware: the ISR bit and, if the IMR routes it, the host
      // FATAL interrupt. replan() made sure this runs exactly at t.at.
      nic_.expire_timer(1);
      break;
    case Tick::kIt2:
      nic_.expire_timer(2);
      break;
    case Tick::kRun:
      runs_.pop_front();
      if (!hung_ && loaded_) run_l_timer(t.at);
      break;
    case Tick::kNone:
      break;
  }
}

void Mcp::reserve_l_timer(sim::Time expiry) {
  // The IT0 handler's exec(): the run queues behind whatever the LANai is
  // busy with at the expiry instant.
  const sim::Time cost = l_timer_cost();
  busy_until_ = std::max(expiry, busy_until_) + cost;
  stats_.busy_ns += cost;
  runs_.push_back({busy_until_, expiry});
}

void Mcp::run_l_timer(sim::Time at) {
  ++stats_.l_timer_runs;
  if (last_l_timer_ != 0) {
    const sim::Time gap = at - last_l_timer_;
    if (gap > max_l_timer_gap_) max_l_timer_gap_ = gap;
    // The gap distribution underpins the paper's IT1 interval choice
    // (L_timer can lag its nominal period by ~800 us of queueing).
    metrics::observe(m_l_timer_gap_, gap);
  }
  last_l_timer_ = at;
  nic_.clear_isr_bits(lanai::kIsrIt0);
  // A live MCP clears the FTD's magic probe word (paper Section 4.3).
  nic_.sram().write32(kMagicAddr, 0);

  while (!control_queue_.empty()) {
    const ControlCmd cmd = control_queue_.front();
    control_queue_.pop_front();
    switch (cmd.kind) {
      case ControlCmd::Kind::kOpen:
        ports_[cmd.port].open = true;
        break;
      case ControlCmd::Kind::kClose:
        ports_[cmd.port].open = false;
        ports_[cmd.port].tokens.clear();
        break;
      case ControlCmd::Kind::kAlarm: {
        const std::uint64_t g = gen_;
        const std::uint8_t port = cmd.port;
        const std::uint32_t aid = cmd.alarm_id;
        nic_.event_queue().post_after(cmd.alarm_delay,
                                      [this, g, port, aid] {
          if (hung_ || !loaded_ || g != gen_) return;
          ++stats_.alarms_fired;
          EventRecord ev;
          ev.type = EventType::kAlarm;
          ev.port = port;
          ev.token_id = aid;
          post_event(port, ev);
        });
        break;
      }
    }
  }

  arm_it0(at);
  if (cfg_.mode == McpMode::kFtgm) arm_watchdog(at);
}

bool Mcp::skip_idle_ticks() {
  // Closed form for a run of identical idle ticks. After an undisturbed
  // run at `last`, IT0 expires at last + L, the LANai is free, and every
  // following tick runs exactly P = L + 1.05 us after the previous one:
  // apply all ticks whose run falls strictly before now (and before any
  // deadline the runs do not re-arm) at once.
  if (!loaded_ || hung_ || !runs_.empty() || !control_queue_.empty()) {
    return false;
  }
  const sim::Time last = last_l_timer_;
  const lanai::IntervalTimer& it0 = nic_.timer(0);
  const sim::Time cost = l_timer_cost();
  const sim::Time period = it0_reload() + cost;
  if (last == 0 || it0.armed_at() != last ||
      it0.deadline() != last + it0_reload() || busy_until_ > it0.deadline() ||
      ((nic_.isr() | lanai::kIsrIt0) & nic_.imr()) != 0) {
    return false;
  }
  sim::Time limit = nic_.event_queue().now();
  const lanai::IntervalTimer& it1 = nic_.timer(1);
  if (it1.armed()) {
    const bool rearmed_by_runs = cfg_.mode == McpMode::kFtgm &&
                                 it1.armed_at() == last &&
                                 it1.deadline() - last > period;
    if (!rearmed_by_runs) limit = std::min(limit, it1.deadline());
  }
  if (nic_.timer(2).armed()) limit = std::min(limit, nic_.timer(2).deadline());
  if (limit <= last + period) return false;
  const std::uint64_t n = (limit - last - 1) / period;

  stats_.l_timer_runs += n;
  stats_.busy_ns += n * cost;
  max_l_timer_gap_ = std::max(max_l_timer_gap_, period);
  metrics::observe(m_l_timer_gap_, period, n);
  last_l_timer_ = last + n * period;
  busy_until_ = last_l_timer_;
  nic_.clear_isr_bits(lanai::kIsrIt0);
  nic_.sram().write32(kMagicAddr, 0);
  arm_it0(last_l_timer_);
  if (cfg_.mode == McpMode::kFtgm) arm_watchdog(last_l_timer_);
  return true;
}

bool Mcp::watchdog_will_expire() const {
  // Only a live FTGM MCP's next L_timer run re-arms IT1; it expires if
  // that run comes after the deadline.
  if (!loaded_ || hung_ || cfg_.mode != McpMode::kFtgm) return true;
  const lanai::IntervalTimer& it1 = nic_.timer(1);
  if (!runs_.empty()) {
    return !precedes(runs_.front().at, runs_.front().as_of, it1.deadline(),
                     it1.armed_at());
  }
  const lanai::IntervalTimer& it0 = nic_.timer(0);
  if (!it0.armed()) return true;
  const sim::Time run = std::max(it0.deadline(), busy_until_) + l_timer_cost();
  return !precedes(run, it0.deadline(), it1.deadline(), it1.armed_at());
}

void Mcp::replan() {
  if (replaying_) return;
  next_ = next_tick();
  // The earliest virtual event with an effect outside the card gets the
  // one wake-up event.
  TickEvent w;
  const auto consider = [&w](Tick what, sim::Time at, sim::Time as_of) {
    if (precedes(at, as_of, w.at, w.as_of)) w = {what, at, as_of};
  };
  const auto routed = [this](std::uint32_t bit) {
    return ((nic_.isr() | bit) & nic_.imr()) != 0;
  };
  const bool commands = loaded_ && !hung_ && !control_queue_.empty();
  const lanai::IntervalTimer& it0 = nic_.timer(0);
  if (it0.armed() && (commands || routed(lanai::kIsrIt0))) {
    consider(Tick::kIt0, it0.deadline(), it0.armed_at());
  }
  if (commands && !runs_.empty()) {
    consider(Tick::kRun, runs_.front().at, runs_.front().as_of);
  }
  const lanai::IntervalTimer& it1 = nic_.timer(1);
  busy_limit_ = kNever;
  if (it1.armed() && routed(lanai::kIsrIt1)) {
    if (watchdog_will_expire()) {
      consider(Tick::kIt1, it1.deadline(), it1.armed_at());
    } else if (runs_.empty()) {
      // Only a busier LANai can still push the next run past the deadline.
      busy_limit_ = it1.deadline() - l_timer_cost() - 1;
    }
  }
  const lanai::IntervalTimer& it2 = nic_.timer(2);
  if (it2.armed() && routed(lanai::kIsrIt2)) {
    consider(Tick::kIt2, it2.deadline(), it2.armed_at());
  }
  if (w.at == wake_at_ && w.as_of == wake_as_of_) return;
  wake_.cancel();
  wake_at_ = w.at;
  wake_as_of_ = w.as_of;
  if (w.what == Tick::kNone) return;
  wake_ = nic_.event_queue().schedule_at(w.at, [this] {
    wake_at_ = kNever;
    replay(/*wake=*/true);
    replan();
  });
}

// --------------------------------------------------------------------------
// Control path
// --------------------------------------------------------------------------

void Mcp::host_open_port(std::uint8_t port) {
  catch_up();
  control_queue_.push_back({ControlCmd::Kind::kOpen, port, 0});
  replan();
}

void Mcp::host_close_port(std::uint8_t port) {
  catch_up();
  control_queue_.push_back({ControlCmd::Kind::kClose, port, 0});
  replan();
}

void Mcp::host_set_alarm(std::uint8_t port, sim::Time delay,
                         std::uint32_t alarm_id) {
  catch_up();
  control_queue_.push_back({ControlCmd::Kind::kAlarm, port, delay, alarm_id});
  replan();
}

bool Mcp::port_open(std::uint8_t port) const {
  return port < kMaxPorts && ports_[port].open;
}

std::size_t Mcp::recv_tokens_held(std::uint8_t port) const {
  return port < kMaxPorts ? ports_[port].tokens.size() : 0;
}

// --------------------------------------------------------------------------
// Sender
// --------------------------------------------------------------------------

Mcp::SendStream& Mcp::send_stream(net::NodeId peer, std::uint32_t sid) {
  const std::uint64_t key = stream_key(peer, sid);
  auto [it, inserted] = send_streams_.try_emplace(key);
  if (inserted) {
    it->second.peer = peer;
    it->second.sid = sid;
  }
  return it->second;
}

void Mcp::host_post_send(const SendRequest& req) {
  catch_up();
  if (hung_ || !loaded_) return;
  ++stats_.sends_posted;
  const std::uint32_t sid = req.internal ? internal_stream_id(req.port)
                                         : stream_id(cfg_.mode, req.port);

  auto refuse = [&] {
    EventRecord ev;
    ev.type = EventType::kSendError;
    ev.port = req.port;
    ev.peer = req.dst;
    ev.token_id = req.token_id;
    ev.msg_id = req.msg_id;
    exec(cfg_.timing.lanai.dispatch_overhead,
         [this, ev] { post_event(ev.port, ev); });
  };

  if (req.port >= kMaxPorts || !ports_[req.port].open) {
    refuse();
    return;
  }
  if (!page_hash_registered_ || host_ == nullptr ||
      !host_->translate(req.port, req.host_addr)) {
    ++stats_.unmapped_dma_refusals;
    refuse();
    return;
  }
  if (nic_.route(req.dst) == nullptr) {
    refuse();
    return;
  }

  SendStream& s = send_stream(req.dst, sid);
  const std::uint32_t nfrags = fragments_of(req.len);
  std::uint32_t first = s.next_seq;
  if (cfg_.mode == McpMode::kFtgm && !req.internal) {
    if (req.seq_first == s.next_seq) {
      first = req.seq_first;
    } else if (s.outstanding.empty()) {
      // Recovery re-post: the host's sequence generator is authoritative
      // after an MCP reload (paper Section 4.1).
      first = req.seq_first;
      s.base = s.cursor = s.high_water = first;
    }  // else: host out of sync; fall back to the MCP counter.
  }
  OutMsg m;
  m.req = req;
  m.seq_first = first;
  m.seq_last = first + nfrags - 1;
  s.next_seq = first + nfrags;
  if (s.outstanding.empty()) s.last_progress = nic_.event_queue().now();
  s.outstanding.push_back(std::move(m));

  exec(cfg_.timing.lanai.dispatch_overhead, [this] { kick_sender(); });
  schedule_rto_scan();
}

void Mcp::report_recv_token(std::uint8_t port) const {
  if (sim::Checks* c = nic_.event_queue().checks()) {
    c->recv_token_added(*this, port);
  }
}

void Mcp::host_provide_recv_token(const RecvToken& tok) {
  catch_up();
  if (hung_ || !loaded_) return;
  if (tok.port >= kMaxPorts) return;
  ports_[tok.port].tokens.push_back(tok);
  report_recv_token(tok.port);
}

void Mcp::host_restore_ack_entry(net::NodeId peer, std::uint32_t stream,
                                 std::uint32_t last_seq) {
  catch_up();
  if (hung_ || !loaded_) return;
  RecvStream& rs = recv_streams_[stream_key(peer, stream)];
  // Two local ports may hold partial views of the same remote stream (a
  // stream is per sender port, not per receiver port); the furthest-along
  // view wins.
  rs.expected = std::max(rs.expected, last_seq + 1);
  rs.active = false;
  rs.accepted = 0;
}

void Mcp::host_reopen_port(std::uint8_t port) {
  catch_up();
  if (hung_ || !loaded_ || port >= kMaxPorts) return;
  ports_[port].open = true;
}

bool Mcp::stream_has_work(const SendStream& s) const {
  if (s.outstanding.empty()) return false;
  if (s.cursor > s.outstanding.back().seq_last) return false;
  return s.cursor < s.base + cfg_.send_window;
}

void Mcp::kick_sender() {
  if (hung_ || !loaded_ || dma_active_) return;
  if (send_streams_.empty()) return;
  // Two non-preemptive priority levels (paper Section 3.1): a round-robin
  // pass over streams whose next fragment is high priority, then a pass
  // over the rest. In-flight fragments are never preempted.
  for (const std::uint8_t want_prio : {std::uint8_t{1}, std::uint8_t{0}}) {
    auto it = send_streams_.upper_bound(last_served_);
    for (std::size_t n = 0; n <= send_streams_.size(); ++n) {
      if (it == send_streams_.end()) it = send_streams_.begin();
      SendStream& s = it->second;
      if (stream_has_work(s) && next_fragment_priority(s) == want_prio) {
        last_served_ = it->first;
        start_fragment(s);
        return;
      }
      ++it;
    }
  }
}

std::uint8_t Mcp::next_fragment_priority(const SendStream& s) const {
  for (const auto& m : s.outstanding) {
    if (s.cursor >= m.seq_first && s.cursor <= m.seq_last) {
      return m.req.priority;
    }
  }
  return 0;
}

void Mcp::start_fragment(SendStream& s) {
  // Locate the message containing the cursor.
  const OutMsg* m = nullptr;
  for (const auto& om : s.outstanding) {
    if (s.cursor >= om.seq_first && s.cursor <= om.seq_last) {
      m = &om;
      break;
    }
  }
  if (m == nullptr) {
    // Cursor points into a hole (should not happen: seq ranges are
    // contiguous). Skip forward defensively.
    s.cursor = s.outstanding.front().seq_first;
    m = &s.outstanding.front();
  }
  const std::uint32_t idx = s.cursor - m->seq_first;
  const std::uint32_t off = idx * net::kMaxPacketPayload;
  const std::uint32_t flen =
      std::min<std::uint32_t>(net::kMaxPacketPayload, m->req.len - off);
  auto dma = host_->translate(m->req.port, m->req.host_addr + off);
  if (!dma) {
    // Page went unmapped mid-message (cannot happen in normal operation);
    // count and move on so the pipeline does not wedge.
    ++stats_.unmapped_dma_refusals;
    ++s.cursor;
    return;
  }

  // Fill the SRAM send descriptor send_chunk consumes.
  using D = SendDescLayout;
  auto& sram = nic_.sram();
  const std::uint32_t slot =
      SramLayout::kSendStagingBase +
      (s.cursor % SramLayout::kNumSendSlots) * SramLayout::kStagingSlotSize;
  const std::uint32_t d = SramLayout::kSendDescAddr;
  sram.write32(d + D::kHostAddr, static_cast<std::uint32_t>(*dma));
  sram.write32(d + D::kStagingAddr, slot);
  sram.write32(d + D::kLen, flen);
  sram.write32(d + D::kSeq, s.cursor);
  sram.write32(d + D::kStream, s.sid);
  sram.write32(d + D::kDst, m->req.dst);
  sram.write32(d + D::kDstPort, m->req.dst_port);
  sram.write32(d + D::kSrcPort, m->req.port);
  sram.write32(d + D::kMsgId, m->req.msg_id);
  sram.write32(d + D::kMsgLen, m->req.len);
  sram.write32(d + D::kFragOffset, off);
  sram.write32(d + D::kFlags,
               static_cast<std::uint32_t>(m->req.priority) |
                   (m->req.directed ? 4u : 0u) |
                   (m->req.notify ? 8u : 0u));
  sram.write32(d + D::kTarget, m->req.target_vaddr);

  sim::Time cost = cfg_.timing.lanai.send_proto;
  if (cfg_.mode == McpMode::kFtgm) cost += cfg_.timing.lanai.ftgm_send_extra;
  const std::uint64_t key = stream_key(s.peer, s.sid);
  const std::uint32_t seq = s.cursor;
  dma_active_ = true;  // claim the engine before the exec fires
  pending_stream_key_ = key;
  pending_seq_ = seq;
  exec(cost, [this] {
    if (!run_send_chunk(image_.entry_dma)) {
      // Processor hung mid-send; the engine claim dies with this MCP
      // generation (reset on load/restart).
      return;
    }
    if (!nic_.hdma_busy()) {
      // send_chunk returned down its error path (descriptor rejected)
      // without programming the DMA — under fault injection this is a
      // persistent "GM send error" condition. Release the engine claim
      // and retry with backoff so the rest of the MCP stays live.
      ++stats_.send_chunk_bailouts;
      dma_active_ = false;
      const std::uint64_t g = gen_;
      nic_.event_queue().post_after(sim::usec(200), [this, g] {
        if (hung_ || !loaded_ || g != gen_) return;
        exec(cfg_.timing.lanai.dispatch_overhead, [this] { kick_sender(); });
      });
    }
    // Otherwise phase A programmed the host DMA; completion re-enters via
    // on_hdma_done -> finish_fragment_tx.
  });
}

void Mcp::finish_fragment_tx() {
  if (!dma_active_) return;
  if (!run_send_chunk(image_.entry_tx)) return;
  dma_active_ = false;
  ++stats_.fragments_tx;
  auto it = send_streams_.find(pending_stream_key_);
  if (it != send_streams_.end()) {
    SendStream& s = it->second;
    if (pending_seq_ + 1 > s.high_water) {
      s.high_water = pending_seq_ + 1;
    } else {
      ++stats_.retransmissions;
    }
    // Only advance if no NACK rewound the cursor while the DMA was in
    // flight; a rewound cursor must win so the receiver's expected
    // fragment is retransmitted.
    if (s.cursor == pending_seq_) ++s.cursor;
  }
  kick_sender();
}

void Mcp::on_ack(const net::Packet& pkt) {
  ++stats_.acks_rx;
  auto it = send_streams_.find(stream_key(pkt.src, pkt.stream));
  if (it == send_streams_.end()) return;
  SendStream& s = it->second;
  const std::uint32_t new_base = pkt.ack_seq + 1;
  if (new_base <= s.base) return;  // stale cumulative ack
  s.base = new_base;
  s.cursor = std::max(s.cursor, s.base);
  s.last_progress = nic_.event_queue().now();
  s.rto_backoff = 1;
  complete_messages(s);
  kick_sender();
}

void Mcp::on_nack(const net::Packet& pkt) {
  ++stats_.nacks_rx;
  auto it = send_streams_.find(stream_key(pkt.src, pkt.stream));
  if (it == send_streams_.end()) return;
  SendStream& s = it->second;
  const std::uint32_t expected = pkt.ack_seq;
  if (s.outstanding.empty()) return;

  const bool may_resync =
      cfg_.mode == McpMode::kGm || s.sid >= kInternalSidBase;
  if (may_resync && expected > s.high_water) {
    // GM resynchronizes to the receiver's expectation. This is the
    // mechanism behind the paper's Figure 4: after a naive MCP reload the
    // sender renumbers pending messages to whatever the receiver expects,
    // and a message the receiver already consumed is accepted again.
    std::uint32_t q = expected;
    for (auto& m : s.outstanding) {
      const std::uint32_t n = m.seq_last - m.seq_first + 1;
      m.seq_first = q;
      m.seq_last = q + n - 1;
      q += n;
    }
    s.base = s.cursor = s.high_water = expected;
    s.next_seq = q;
  } else if (expected < s.outstanding.front().seq_first) {
    // The peer expects a sequence below everything we still hold. A
    // same-instance FTGM receiver can never ask this: its reload restores
    // the ack table, so it re-expects at most the oldest unacked seq. The
    // acks that advanced us past `expected` therefore came from a previous
    // card at that address — the node was replaced and the spare's stream
    // state is pristine. Renumber the outstanding tail down to the spare's
    // expectation: none of these messages were accepted by the new card,
    // so this is first delivery to it, not the naive-reload duplicate path
    // the FTGM no-resync rule exists to prevent.
    std::uint32_t q = expected;
    for (auto& m : s.outstanding) {
      const std::uint32_t n = m.seq_last - m.seq_first + 1;
      m.seq_first = q;
      m.seq_last = q + n - 1;
      q += n;
    }
    s.base = s.cursor = s.high_water = expected;
    s.next_seq = q;
  } else {
    // Go-Back-N rewind. After an FTGM receiver recovery the expected
    // sequence may regress below our base: the data is still available
    // because send tokens are held until message completion, so we simply
    // rewind into the oldest outstanding message.
    const std::uint32_t floor_seq = s.outstanding.front().seq_first;
    const std::uint32_t target = std::max(expected, floor_seq);
    if (target < s.cursor) s.cursor = target;
    s.base = std::min(s.base, s.cursor);
  }
  s.last_progress = nic_.event_queue().now();
  s.rto_backoff = 1;
  kick_sender();
}

void Mcp::complete_messages(SendStream& s) {
  while (!s.outstanding.empty() && s.outstanding.front().seq_last < s.base) {
    const OutMsg m = std::move(s.outstanding.front());
    s.outstanding.pop_front();
    if (m.req.internal) continue;  // gm_get response: nothing to tell the host
    EventRecord ev;
    ev.type = EventType::kSent;
    ev.port = m.req.port;
    ev.peer = m.req.dst;
    ev.peer_port = m.req.dst_port;
    ev.stream = s.sid;
    ev.seq = m.seq_last;
    ev.len = m.req.len;
    ev.token_id = m.req.token_id;
    ev.msg_id = m.req.msg_id;
    post_event(ev.port, ev);
  }
}

void Mcp::schedule_rto_scan() {
  if (rto_scan_armed_ || hung_ || !loaded_) return;
  rto_scan_armed_ = true;
  const std::uint64_t g = gen_;
  nic_.event_queue().post_after(cfg_.rto / 2, [this, g] {
    if (hung_ || !loaded_ || g != gen_) return;
    rto_scan_armed_ = false;
    bool any = false;
    const sim::Time now = nic_.event_queue().now();
    for (auto& [key, s] : send_streams_) {
      if (s.outstanding.empty()) continue;
      any = true;
      if (now - s.last_progress > cfg_.rto * s.rto_backoff) {
        s.cursor = s.base;  // full Go-Back-N rewind
        s.last_progress = now;
        // Exponential backoff bounds the retransmission storm while a peer
        // is down for a multi-second recovery (paper: < 2 s outages).
        s.rto_backoff = std::min<std::uint32_t>(s.rto_backoff * 2, 128);
        exec(cfg_.timing.lanai.dispatch_overhead, [this] { kick_sender(); });
      }
    }
    if (any) schedule_rto_scan();
  });
}

// --------------------------------------------------------------------------
// Receiver
// --------------------------------------------------------------------------

void Mcp::on_packet() {
  if (nic_.rx_empty()) {
    rx_handler_pending_ = false;
    return;
  }
  net::Packet pkt = nic_.rx_pop();

  sim::Time cost = cfg_.timing.lanai.ack_proto;
  if (pkt.type == net::PacketType::kData) {
    cost = cfg_.timing.lanai.recv_proto;
    if (cfg_.mode == McpMode::kFtgm) cost += cfg_.timing.lanai.ftgm_recv_extra;
  }
  exec(cost, [this, pkt = std::move(pkt)]() mutable {
    switch (pkt.type) {
      case net::PacketType::kData:
        handle_data(std::move(pkt));
        break;
      case net::PacketType::kAck:
        if (pkt.intact()) {
          on_ack(pkt);
        } else {
          ++stats_.crc_drops;
        }
        break;
      case net::PacketType::kNack:
        if (pkt.intact()) {
          on_nack(pkt);
        } else {
          ++stats_.crc_drops;
        }
        break;
      case net::PacketType::kGetReq:
        handle_get_req(pkt);
        break;
      case net::PacketType::kMapScout:
      case net::PacketType::kMapReply:
      case net::PacketType::kMapRoute:
      case net::PacketType::kMapRouteAck:
        handle_map_packet(std::move(pkt));
        break;
      case net::PacketType::kControl:
        break;
    }
    // Chain the next packet, preserving per-packet serialization.
    if (!nic_.rx_empty()) {
      exec(cfg_.timing.lanai.dispatch_overhead, [this] { on_packet(); });
    } else {
      rx_handler_pending_ = false;
    }
  });
}

void Mcp::send_ack(net::NodeId to, std::uint32_t sid, std::uint32_t ack_seq) {
  ++stats_.acks_tx;
  net::Packet ack;
  ack.type = net::PacketType::kAck;
  ack.src = nic_.node_id();
  ack.dst = to;
  ack.stream = sid;
  ack.ack_seq = ack_seq;
  ack.seal();
  nic_.send_packet(std::move(ack));
}

void Mcp::send_nack(net::NodeId to, std::uint32_t sid,
                    std::uint32_t expected) {
  ++stats_.nacks_tx;
  net::Packet nack;
  nack.type = net::PacketType::kNack;
  nack.src = nic_.node_id();
  nack.dst = to;
  nack.stream = sid;
  nack.ack_seq = expected;
  nack.seal();
  nic_.send_packet(std::move(nack));
}

void Mcp::handle_data(net::Packet pkt) {
  if (pkt.dst != nic_.node_id()) {
    ++stats_.foreign_drops;
    return;
  }
  if (!pkt.intact()) {
    // Transient bit corruption in flight: the CRC check catches it; the
    // sender's Go-Back-N retransmits (paper Section 2).
    ++stats_.crc_drops;
    return;
  }
  // A closed port generates no protocol responses at all: between an MCP
  // reload and the process's reopen, arriving traffic must neither ACK,
  // NACK nor advance stream state, or the peer's backoff collapses into a
  // retransmission storm against a port that cannot accept anything yet.
  if (pkt.dst_port >= kMaxPorts || !ports_[pkt.dst_port].open) {
    ++stats_.no_token_drops;
    return;
  }

  RecvStream& rs = recv_streams_[stream_key(pkt.src, pkt.stream)];

  if (pkt.seq < rs.expected) {
    if (pkt.seq + cfg_.send_window < rs.expected) {
      // Far below the window: not a retransmit but a peer whose MCP lost
      // its sequence state (e.g. a naive reload). GM NACKs the expected
      // number and the sender resynchronizes to it — the exact mechanism
      // that lets a duplicate slip through in the paper's Figure 4.
      ++stats_.ooo_drops;
      const sim::Time now = nic_.event_queue().now();
      if (now - rs.last_nack > cfg_.rto / 4 || rs.last_nack == 0) {
        rs.last_nack = now;
        exec(cfg_.timing.lanai.ack_proto,
             [this, src = pkt.src, sid = pkt.stream, e = rs.expected] {
               send_nack(src, sid, e);
             });
      }
      return;
    }
    ++stats_.dup_drops;
    if (rs.expected > 0) {
      exec(cfg_.timing.lanai.ack_proto, [this, src = pkt.src,
                                         sid = pkt.stream,
                                         a = rs.expected - 1] {
        send_ack(src, sid, a);
      });
    }
    return;
  }
  if (pkt.seq > rs.expected) {
    ++stats_.ooo_drops;
    const sim::Time now = nic_.event_queue().now();
    if (now - rs.last_nack > cfg_.rto / 4 || rs.last_nack == 0) {
      rs.last_nack = now;
      exec(cfg_.timing.lanai.ack_proto,
           [this, src = pkt.src, sid = pkt.stream, e = rs.expected] {
             send_nack(src, sid, e);
           });
    }
    return;
  }

  // In-sequence fragment.
  const std::uint8_t port = pkt.dst_port;
  if (port >= kMaxPorts || !ports_[port].open) {
    ++stats_.no_token_drops;
    return;
  }

  if (pkt.directed) {
    // Directed send (RDMA put): no receive token, no event — the payload
    // goes straight into the target process's registered memory. The
    // target must be page-registered by the local port, which is also the
    // protection boundary: a remote cannot write anywhere else.
    auto dma = host_ ? host_->translate(port, pkt.target_vaddr +
                                                  pkt.frag_offset)
                     : std::nullopt;
    if (!dma) {
      ++stats_.unmapped_dma_refusals;
      return;  // not accepted; the sender retries and eventually times out
    }
    rs.expected = pkt.seq + 1;
    ++stats_.directed_frags;
    const bool last = pkt.frag_offset + pkt.payload.size() >= pkt.msg_len;
    if (last) ++stats_.directed_puts;
    const bool ack_now =
        cfg_.mode == McpMode::kGm || !last || !cfg_.ftgm_delayed_ack;
    const net::NodeId src = pkt.src;
    const std::uint32_t sid = pkt.stream;
    const std::uint32_t seq = pkt.seq;
    if (ack_now) {
      exec(cfg_.timing.lanai.ack_proto,
           [this, src, sid, seq] { send_ack(src, sid, seq); });
    }
    // A notify put (gm_get response) reports its landing to the host; the
    // event precedes the ACK so the host's ACK-number backup stays ahead.
    EventRecord got;
    got.type = EventType::kGot;
    got.port = port;
    got.peer = src;
    got.peer_port = pkt.src_port;
    got.stream = sid;
    got.seq = seq;
    got.len = pkt.msg_len;
    got.msg_id = pkt.msg_id;
    const bool notify = pkt.notify;
    const std::size_t dbytes = pkt.payload.size();
    pci_.dma(dbytes, [this, g = gen_, data = std::move(pkt.payload),
                      addr = *dma, last, ack_now, src, sid, seq, notify,
                      got] {
      hmem_.write(addr, data);
      if (hung_ || !loaded_ || g != gen_) return;
      if (!last) return;
      if (notify) {
        post_event(got.port, got, [this, ack_now, src, sid, seq] {
          if (!ack_now) {
            exec(cfg_.timing.lanai.ack_proto,
                 [this, src, sid, seq] { send_ack(src, sid, seq); });
          }
        });
      } else if (!ack_now) {
        // FTGM delayed commit point: ACK only once the put has landed.
        exec(cfg_.timing.lanai.ack_proto,
             [this, src, sid, seq] { send_ack(src, sid, seq); });
      }
    });
    return;
  }

  if (pkt.frag_offset == 0) {
    if (rs.active) {
      // A fresh message while another is mid-assembly on the same stream
      // means the peer rewound across a message boundary; drop the stale
      // partial (its token returns to the pool).
      ports_[port].tokens.push_front(rs.token);
      report_recv_token(port);
      rs.active = false;
    }
    // Match a receive token: first fit by capacity and priority.
    auto& toks = ports_[port].tokens;
    auto it = std::find_if(toks.begin(), toks.end(), [&](const RecvToken& t) {
      return t.size >= pkt.msg_len && t.priority == pkt.priority;
    });
    if (it == toks.end()) {
      ++stats_.no_token_drops;  // sender retransmits until a buffer appears
      return;
    }
    rs.token = *it;
    toks.erase(it);
    rs.active = true;
    rs.msg_id = pkt.msg_id;
    rs.msg_len = pkt.msg_len;
    rs.accepted = 0;
    rs.src = pkt.src;
    rs.src_port = pkt.src_port;
  } else {
    if (!rs.active || rs.msg_id != pkt.msg_id ||
        rs.accepted != pkt.frag_offset) {
      ++stats_.ooo_drops;
      return;
    }
  }
  auto dma = host_ ? host_->translate(port, rs.token.host_addr +
                                                pkt.frag_offset)
                   : std::nullopt;
  if (!dma) {
    ++stats_.unmapped_dma_refusals;
    return;
  }

  // Accept: advance the stream.
  rs.expected = pkt.seq + 1;
  rs.accepted += static_cast<std::uint32_t>(pkt.payload.size());
  const bool last = rs.accepted >= rs.msg_len;
  const std::uint64_t key = stream_key(pkt.src, pkt.stream);
  const RecvToken token = rs.token;
  const std::uint32_t msg_len = rs.msg_len;
  const std::uint32_t msg_id = rs.msg_id;
  const net::NodeId src = rs.src;
  const std::uint8_t src_port = rs.src_port;
  const std::uint32_t sid = pkt.stream;
  if (last) rs.active = false;

  // ACK policy (the crux of the paper's Figure 5 fix): GM acknowledges at
  // acceptance, before the host DMA; FTGM acknowledges intermediate
  // fragments immediately but defers the final fragment's ACK until the
  // payload DMA and the RECV event post have completed.
  const bool ack_now =
      cfg_.mode == McpMode::kGm || !last || !cfg_.ftgm_delayed_ack;
  if (ack_now) {
    exec(cfg_.timing.lanai.ack_proto,
         [this, src, sid, a = pkt.seq] { send_ack(src, sid, a); });
  }

  // DMA the fragment into the user buffer. (Size taken before the lambda's
  // init-capture moves the payload out: argument order is unspecified.)
  const std::uint32_t seq = pkt.seq;
  const std::size_t dma_bytes = pkt.payload.size();
  pci_.dma(dma_bytes,
           [this, g = gen_, data = std::move(pkt.payload), addr = *dma, key,
            seq, last, token, msg_len, msg_id, src, src_port, sid] {
             // The DMA engine itself is hardware: the copy lands even if
             // the MCP hung meanwhile. Post-DMA bookkeeping, however,
             // requires a live MCP.
             hmem_.write(addr, data);
             if (hung_ || !loaded_ || g != gen_) return;
             fragment_dma_done(key, seq, last, token, msg_len, msg_id, src,
                               src_port, sid);
           });
}

void Mcp::fragment_dma_done(std::uint64_t /*key*/, std::uint32_t seq,
                            bool last, RecvToken token, std::uint32_t msg_len,
                            std::uint32_t msg_id, net::NodeId src,
                            std::uint8_t src_port, std::uint32_t sid) {
  if (!last) return;
  ++stats_.msgs_delivered;
  EventRecord ev;
  ev.type = EventType::kRecv;
  ev.port = token.port;
  ev.peer = src;
  ev.peer_port = src_port;
  ev.stream = sid;
  ev.seq = seq;  // FTGM: lets the host keep its ACK-number backup current
  ev.len = msg_len;
  ev.token_id = token.token_id;
  ev.msg_id = msg_id;
  if (cfg_.mode == McpMode::kFtgm && cfg_.ftgm_delayed_ack) {
    // Delayed commit point: the RECV event (which updates the host's
    // backup) must land before the ACK releases the sender's token.
    post_event(ev.port, ev, [this, src, sid, seq] {
      exec(cfg_.timing.lanai.ack_proto,
           [this, src, sid, seq] { send_ack(src, sid, seq); });
    });
  } else {
    post_event(ev.port, ev);
  }
}

// --------------------------------------------------------------------------
// gm_get (RDMA read)
// --------------------------------------------------------------------------

void Mcp::host_post_get(const GetRequest& get) {
  catch_up();
  if (hung_ || !loaded_) return;
  if (get.port >= kMaxPorts || !ports_[get.port].open) return;
  if (nic_.route(get.dst) == nullptr) return;  // retry loop times out
  net::Packet p;
  p.type = net::PacketType::kGetReq;
  p.src = nic_.node_id();
  p.dst = get.dst;
  p.dst_port = get.dst_port;
  p.src_port = get.port;
  p.target_vaddr = get.remote_vaddr;
  p.msg_len = get.len;
  p.msg_id = get.correlation;
  p.payload = {
      std::byte{static_cast<unsigned char>(get.local_vaddr & 0xff)},
      std::byte{static_cast<unsigned char>((get.local_vaddr >> 8) & 0xff)},
      std::byte{static_cast<unsigned char>((get.local_vaddr >> 16) & 0xff)},
      std::byte{static_cast<unsigned char>((get.local_vaddr >> 24) & 0xff)}};
  p.seal();
  exec(cfg_.timing.lanai.dispatch_overhead,
       [this, p = std::move(p)]() mutable { nic_.send_packet(std::move(p)); });
}

void Mcp::handle_get_req(const net::Packet& pkt) {
  if (pkt.dst != nic_.node_id()) {
    ++stats_.foreign_drops;
    return;
  }
  if (!pkt.intact()) {
    ++stats_.crc_drops;
    return;
  }
  const std::uint8_t port = pkt.dst_port;
  if (port >= kMaxPorts || !ports_[port].open) return;
  // Protection boundary: only memory the local process registered for this
  // port may be read remotely.
  const std::uint32_t span = pkt.msg_len == 0 ? 1 : pkt.msg_len;
  if (host_ == nullptr || !host_->translate(port, pkt.target_vaddr) ||
      !host_->translate(port, pkt.target_vaddr + span - 1)) {
    ++stats_.unmapped_dma_refusals;
    return;  // never answered; the requester's retry loop gives up
  }
  if (pkt.payload.size() < 4) return;
  std::uint32_t local = 0;
  for (int i = 0; i < 4; ++i) {
    local |= std::to_integer<std::uint32_t>(pkt.payload[i]) << (8 * i);
  }
  ++stats_.gets_served;
  // Answer with an internal directed put out of our own registered memory.
  SendRequest r;
  r.port = port;
  r.dst = pkt.src;
  r.dst_port = pkt.src_port;
  r.host_addr = pkt.target_vaddr;
  r.len = pkt.msg_len;
  r.msg_id = pkt.msg_id;  // correlation id, echoed to the requester
  r.directed = true;
  r.notify = true;
  r.internal = true;
  r.target_vaddr = local;
  host_post_send(r);
}

// --------------------------------------------------------------------------
// Mapper support
// --------------------------------------------------------------------------

void Mcp::send_raw(net::Packet pkt) {
  catch_up();
  if (hung_ || !loaded_) return;
  exec(cfg_.timing.lanai.dispatch_overhead,
       [this, pkt = std::move(pkt)]() mutable {
         nic_.send_packet(std::move(pkt), /*resolve_route=*/false);
       });
}

void Mcp::host_restore_routes(net::NodeId mapper_node, std::uint32_t epoch) {
  catch_up();
  route_epoch_ = epoch;
  // A card that never heard from a mapper has nowhere to announce to; the
  // mapper's census probe / a fresh remap is the only way back in. Epoch 0
  // with a *known* mapper does announce: a card that recovered before ever
  // completing a route table may still hold partial mirror routes that
  // reach the mapper host, and the announce is what tells the mapper a
  // node it may never have mapped exists (DESIGN.md section 11).
  if (mapper_node == net::kInvalidNode) return;
  announce_dst_ = mapper_node;
  announce_epoch_ = epoch;
  announce_left_ = cfg_.max_announce_retries;
  announce_wait_ = cfg_.announce_retry_base;
  ++announce_gen_;
  send_announce(/*retry=*/false);
}

void Mcp::send_announce(bool retry) {
  if (hung_ || !loaded_) return;
  // Announce the restored epoch so the mapper can re-push (known laggard)
  // or remap (node the current map never saw). Re-sent with bounded
  // exponential backoff until a MAP_ROUTE at a current-or-newer epoch
  // arrives — the only acknowledgement the mapper ever sends back.
  net::Packet ann;
  ann.type = net::PacketType::kMapRouteAck;
  ann.src = nic_.node_id();
  ann.dst = announce_dst_;
  ann.payload = net::RouteAck{announce_epoch_, net::kProbeChunk,
                              announce_epoch_, /*announce=*/true}
                    .encode();
  ann.seal();
  ++stats_.announces_sent;
  if (retry) {
    ++stats_.announce_retries;
  }
  exec(cfg_.timing.lanai.dispatch_overhead,
       [this, ann = std::move(ann)]() mutable {
         nic_.send_packet(std::move(ann), /*resolve_route=*/true);
       });
  arm_announce_retry();
}

void Mcp::arm_announce_retry() {
  if (announce_left_ == 0) return;
  --announce_left_;
  const std::uint64_t g = announce_gen_;
  nic_.event_queue().post_after(announce_wait_, [this, g] {
    if (g != announce_gen_) return;  // cancelled or superseded
    if (hung_ || !loaded_) return;
    send_announce(/*retry=*/true);
  });
  announce_wait_ = std::min<sim::Time>(announce_wait_ * 2,
                                       cfg_.announce_retry_base * 64);
}

void Mcp::cancel_announce() {
  announce_left_ = 0;
  ++announce_gen_;
}

void Mcp::handle_map_packet(net::Packet pkt) {
  // Mapper packets carry no sequence numbers: a corrupted one cannot be
  // NACKed, only dropped (the mapper's timeout/retry machinery re-sends).
  // Installing a bit-flipped route would silently misroute data traffic.
  if (!pkt.intact()) {
    ++stats_.crc_drops;
    return;
  }
  switch (pkt.type) {
    case net::PacketType::kMapScout: {
      net::Packet reply;
      reply.type = net::PacketType::kMapReply;
      reply.src = nic_.node_id();
      reply.dst = pkt.src;
      reply.msg_id = pkt.msg_id;  // scout correlation id
      reply.route = net::reverse_route(pkt.walked);
      reply.payload = net::MapReplyInfo{net::DeviceKind::kInterface,
                                        nic_.node_id(), 1, pkt.walked}
                          .encode();
      reply.seal();
      nic_.send_packet(std::move(reply));
      break;
    }
    case net::PacketType::kMapReply:
      if (map_reply_handler_) map_reply_handler_(pkt);
      break;
    case net::PacketType::kMapRoute: {
      if (drop_map_routes_ > 0) {
        --drop_map_routes_;  // injected control-plane loss (test hook)
        break;
      }
      const net::RouteUpdateView u(pkt.payload);
      // The mapper heard us (or was about to push anyway): any MAP_ROUTE
      // at the announced epoch or newer retires the announce retry timer.
      if (announce_left_ > 0 && u.epoch >= announce_epoch_) {
        cancel_announce();
      }
      // Install unless the chunk is from an epoch older than what this
      // card already holds (a late retransmit racing a newer remap).
      if (u.epoch >= route_epoch_) {
        u.for_each([this](net::NodeId dst, std::span<const std::uint8_t> r) {
          nic_.set_route(dst, r);
        });
        if (u.nchunks > 0) route_epoch_ = std::max(route_epoch_, u.epoch);
      }
      // The driver versions its mirror and reports the last epoch it holds
      // completely; even a stale chunk is ACKed so the mapper's retry
      // machinery sees where the node actually is.
      std::uint32_t installed = u.epoch;
      if (host_) installed = host_->map_route_update(u, pkt.src);
      net::Packet ack;
      ack.type = net::PacketType::kMapRouteAck;
      ack.src = nic_.node_id();
      ack.dst = pkt.src;
      ack.route = net::reverse_route(pkt.walked);
      ack.payload =
          net::RouteAck{u.epoch,
                        u.nchunks == 0 ? net::kProbeChunk : u.chunk,
                        installed, /*announce=*/false}
              .encode();
      ack.seal();
      nic_.send_packet(std::move(ack), /*resolve_route=*/false);
      break;
    }
    case net::PacketType::kMapRouteAck:
      // Only the mapper host installs a handler; acks and announces that
      // land anywhere else are noise.
      if (map_reply_handler_) map_reply_handler_(pkt);
      break;
    default:
      break;
  }
}

}  // namespace myri::mcp
