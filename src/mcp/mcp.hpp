// The Myrinet Control Program (MCP).
//
// Event-driven protocol engine running "on" the emulated LANai. Handles the
// full GM transport: send fragmentation (4 KB packets), Go-Back-N reliable
// in-order delivery with ACK/NACK per stream, receive-token matching,
// zero-copy DMA into posted host buffers, host event posting, the L_timer()
// housekeeping routine, and mapper packet handling.
//
// Two modes (paper Sections 3-4):
//  - kGm:   one sequence-number stream per connection (remote node), MCP
//           generates sequence numbers, ACK sent as soon as a fragment is
//           accepted (before the DMA to the host buffer completes).
//  - kFtgm: one stream per (source port, remote node), sequence numbers
//           generated by the host and carried in the send request, the ACK
//           for a message's final fragment is delayed until the payload
//           has been DMAed to the user buffer and the RECV event (carrying
//           the sequence number) has been posted to the host; the IT1
//           software watchdog is armed and re-armed in L_timer().
//
// Every MCP routine executes through a serializing virtual-time executor
// (exec()), which both accounts LANai occupancy and reproduces the paper's
// observation that L_timer() invocations can lag their nominal period by
// queueing delay (max ~800 us).
//
// L_timer() is tickless (DESIGN.md §12). IT0 and IT1 are deadline
// registers on the Nic and a reserved L_timer run is plain data here; no
// event is scheduled per tick. catch_up() replays every tick due before
// the executing event — IT0 expiry (reserving the run at
// max(E, busy_until_) + 1.05 us), the run itself (counters, gap
// histogram, ISR and magic-word clear, IT0/IT1 re-arm) and IT1 expiry —
// in the order a chain of per-tick events would run them against the
// executing event, in closed form for runs of identical idle ticks. Every
// routine that reads or writes state a tick affects calls it first:
// exec()/run_send_chunk(), the NIC hooks, host_* commands,
// load/restart/hang, Nic::reset and the ISR/IMR/IT registers, the
// driver's magic-word access and FATAL handler, SRAM-flip injection, the
// stats accessors, and the end of every Cluster run slice.
// A real event is scheduled only for a tick with an effect outside the
// card: a run that must process queued control commands, or an IT1 expiry
// that raises the host FATAL interrupt (a hung card, or a run that lags
// past the deadline). That event is only a wake-up that calls catch_up().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host/pci.hpp"
#include "host/timing.hpp"
#include "lanai/nic.hpp"
#include "metrics/registry.hpp"
#include "mcp/send_chunk.hpp"
#include "mcp/sram_layout.hpp"
#include "mcp/types.hpp"
#include "sim/ring.hpp"
#include "sim/trace.hpp"

namespace myri::mcp {

class Mcp {
 public:
  struct Config {
    McpMode mode = McpMode::kGm;
    host::TimingConfig timing;
    std::uint32_t send_window = 16;       // unacked fragments per stream
    sim::Time rto = sim::usec(400);       // Go-Back-N retransmit timeout
    std::uint64_t cycle_budget = 100000;  // runaway-loop detection bound
    /// FTGM's delayed commit point (ACK after the host DMA + event post).
    /// Exposed as a switch for the ablation bench; disabling it reopens
    /// the paper's Figure 5 lost-message window.
    bool ftgm_delayed_ack = true;
    /// Post-recovery announce retry (DESIGN.md section 11): the announce
    /// host_restore_routes() sends is re-sent with bounded exponential
    /// backoff until a MAP_ROUTE for a current-or-newer epoch arrives
    /// (evidence the mapper heard us) or the budget runs out, so a
    /// recovery completing inside a lossy window still reaches the
    /// mapper. The budget is finite on purpose — a dead mapper host must
    /// not keep this card's event queue alive forever; the mapper's
    /// census probe is the complementary repair path.
    sim::Time announce_retry_base = sim::msec(1);  // doubles, capped x64
    std::uint32_t max_announce_retries = 10;      // ~320 ms retry span
  };

  Mcp(lanai::Nic& nic, host::PciBus& pci, host::HostMemory& hmem, Config cfg);

  // ---- lifecycle (driver-facing) ----
  /// Install the MCP: write send_chunk into SRAM, hook the NIC, initialize
  /// protocol state, arm IT0 (and, in FTGM mode, the IT1 watchdog + IMR).
  void load();
  [[nodiscard]] bool loaded() const noexcept { return loaded_; }
  /// Increments on every load() and on an MCP self-restart.
  [[nodiscard]] std::uint64_t generation() const noexcept { return gen_; }
  void set_host(HostIface* host) { host_ = host; }
  void set_trace(sim::Trace* t) { trace_ = t; }
  /// Expose the protocol counters (McpStats fields) and the L_timer gap
  /// histogram in `reg` under "<prefix>.".
  void bind_metrics(metrics::Registry& reg, const std::string& prefix);

  // ---- host command interface ----
  // Control path: queued, processed by the next L_timer() run (paper 4.2).
  void host_open_port(std::uint8_t port);
  void host_close_port(std::uint8_t port);
  void host_set_alarm(std::uint8_t port, sim::Time delay,
                      std::uint32_t alarm_id = 0);
  // Fast path: doorbell-dispatched.
  void host_post_send(const SendRequest& req);
  void host_provide_recv_token(const RecvToken& tok);
  /// gm_get: request remote registered memory; the response arrives as an
  /// internal directed put with notification (kGot event). Unreliable by
  /// itself — the library retries until the GOT event lands (idempotent).
  void host_post_get(const GetRequest& get);
  // FTGM recovery fast path (paper Section 4.4).
  void host_restore_ack_entry(net::NodeId peer, std::uint32_t stream,
                              std::uint32_t last_seq);
  void host_reopen_port(std::uint8_t port);
  /// Driver notification that the host page hash table is registered with
  /// the card (at driver load, and again by the FTD after recovery). Sends
  /// are refused with a kSendError event until this has happened.
  void host_register_page_hash() {
    catch_up();
    page_hash_registered_ = true;
  }

  // ---- mapper support ----
  /// Transmit a raw, explicitly routed packet (mapper scouts / route loads).
  void send_raw(net::Packet pkt);
  /// Receive mapper replies and route ACKs (set by the mapper running on
  /// this node).
  void set_map_reply_handler(std::function<void(const net::Packet&)> h) {
    map_reply_handler_ = std::move(h);
  }
  /// Highest route epoch whose MAP_ROUTE chunks this card has installed.
  /// Resets on load(): a card reset wipes the on-card table, and the
  /// driver re-seeds the view from its mirror via host_restore_routes().
  [[nodiscard]] std::uint32_t route_epoch() const noexcept {
    return route_epoch_;
  }
  /// Driver notification after restore_routes(): the mirror for `epoch`
  /// is back on the card. When the mapper is known the card announces its
  /// epoch (even epoch 0 — a card that recovered before ever completing a
  /// route table still needs to be pulled in), and keeps re-announcing
  /// with bounded exponential backoff until a MAP_ROUTE for a
  /// current-or-newer epoch arrives or the retry budget runs out.
  void host_restore_routes(net::NodeId mapper_node, std::uint32_t epoch);
  /// True while the post-recovery announce retry timer is live (an
  /// announce was sent and no MAP_ROUTE at its epoch has arrived yet).
  [[nodiscard]] bool announce_pending() const noexcept {
    return announce_left_ > 0;
  }
  /// Test/fault hook: silently drop the next `n` incoming MAP_ROUTE
  /// packets (control-plane loss; exercises the mapper's ACK/retry and
  /// scrub repair paths deterministically).
  void drop_next_map_routes(int n) { drop_map_routes_ = n; }

  // ---- status / instrumentation ----
  [[nodiscard]] bool hung() const noexcept { return hung_; }
  /// Why the processor stopped (valid when hung()).
  [[nodiscard]] const std::string& hang_reason() const noexcept {
    return hang_reason_;
  }
  /// Test/fault hook: wedge the network processor right now.
  void inject_hang(const std::string& reason = "injected");

  /// Replay every L_timer tick and IT0/IT1 expiry that precedes the
  /// executing event (outside event execution: everything up to now()).
  /// One comparison when nothing is due; see the header comment.
  void catch_up() {
    if (next_.at <= nic_.event_queue().now()) replay(/*wake=*/false);
  }

  // The accessors below first replay elapsed ticks: logically const, the
  // replay only materialises state that already exists in virtual time.
  [[nodiscard]] const McpStats& stats() const {
    const_cast<Mcp*>(this)->catch_up();
    return stats_;
  }
  [[nodiscard]] sim::Time busy_ns() const { return stats().busy_ns; }
  /// Longest observed gap between consecutive L_timer() completions (the
  /// paper's ~800 us figure the watchdog interval is chosen against).
  [[nodiscard]] sim::Time max_l_timer_gap() const {
    const_cast<Mcp*>(this)->catch_up();
    return max_l_timer_gap_;
  }
  [[nodiscard]] McpMode mode() const noexcept { return cfg_.mode; }
  [[nodiscard]] bool port_open(std::uint8_t port) const;
  [[nodiscard]] std::size_t recv_tokens_held(std::uint8_t port) const;

  /// True while any Go-Back-N stream to `peer` still has unacked
  /// fragments in flight (membership drain polls this on every sender).
  [[nodiscard]] bool has_unacked_to(net::NodeId peer) const {
    for (const auto& slot : send_streams_) {
      if (slot.stream->peer == peer && !slot.stream->outstanding.empty()) {
        return true;
      }
    }
    return false;
  }
  /// True when no send stream on this card has unacked fragments.
  [[nodiscard]] bool sends_quiescent() const {
    for (const auto& slot : send_streams_) {
      if (!slot.stream->outstanding.empty()) return false;
    }
    return true;
  }

  // Fault-injection targets: the send_chunk code segment in SRAM.
  [[nodiscard]] std::uint32_t code_base() const noexcept {
    return SramLayout::kCodeBase;
  }
  [[nodiscard]] std::uint32_t code_size() const noexcept {
    return static_cast<std::uint32_t>(image_.program.size_bytes());
  }

 private:
  // ---- sender state ----
  struct OutMsg {
    SendRequest req;
    std::uint32_t seq_first = 0;
    std::uint32_t seq_last = 0;
  };
  struct SendStream {
    net::NodeId peer = net::kInvalidNode;
    std::uint32_t sid = 0;
    std::uint32_t next_seq = 0;   // next fresh sequence number
    std::uint32_t base = 0;       // oldest unacked
    std::uint32_t cursor = 0;     // next fragment to (re)transmit
    std::uint32_t high_water = 0; // highest seq ever transmitted + 1
    sim::Ring<OutMsg> outstanding;
    sim::Time last_progress = 0;
    std::uint32_t rto_backoff = 1;  // exponential; resets on progress
    // Board ID the peer's last ACK or NACK carried, skipping stale ACKs
    // and NACKs that found nothing outstanding; 0 = not heard from yet.
    std::uint32_t peer_board = 0;
  };
  // ---- receiver state ----
  struct RecvStream {
    std::uint32_t expected = 0;
    bool active = false;          // a partial message is being assembled
    RecvToken token;
    std::uint32_t msg_id = 0;
    std::uint32_t msg_len = 0;
    std::uint32_t accepted = 0;   // bytes accepted so far
    net::NodeId src = net::kInvalidNode;
    std::uint8_t src_port = 0;
    sim::Time last_nack = 0;
  };
  struct PortState {
    bool open = false;
    sim::Ring<RecvToken> tokens;  // matched first-fit, front to back
  };
  // Streams by stream_key, in ascending key order: a sorted array of
  // (key, stream) slots, searched by bisection. Each stream lives in an
  // allocation of its own, so a SendStream& stays valid while another
  // stream is added; streams are dropped only all at once (load,
  // restart).
  template <typename Stream>
  class StreamTable {
   public:
    struct Slot {
      std::uint64_t key;
      std::unique_ptr<Stream> stream;
    };
    /// The stream under `key`, or null.
    [[nodiscard]] Stream* find(std::uint64_t key) const {
      const std::size_t i = lower_bound(key);
      return i < slots_.size() && slots_[i].key == key
                 ? slots_[i].stream.get()
                 : nullptr;
    }
    /// The stream under `key`, added (value-initialised) if missing.
    Stream& get(std::uint64_t key) {
      const std::size_t i = lower_bound(key);
      if (i == slots_.size() || slots_[i].key != key) {
        slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(i),
                      Slot{key, std::make_unique<Stream>()});
      }
      return *slots_[i].stream;
    }
    /// Index of the first slot whose key is above `key`.
    [[nodiscard]] std::size_t upper_bound(std::uint64_t key) const {
      std::size_t i = lower_bound(key);
      if (i < slots_.size() && slots_[i].key == key) ++i;
      return i;
    }
    [[nodiscard]] const Slot& slot(std::size_t i) const { return slots_[i]; }
    [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
    [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
    [[nodiscard]] const Slot* begin() const noexcept { return slots_.data(); }
    [[nodiscard]] const Slot* end() const noexcept {
      return slots_.data() + slots_.size();
    }
    void clear() { slots_.clear(); }

   private:
    [[nodiscard]] std::size_t lower_bound(std::uint64_t key) const {
      std::size_t lo = 0;
      std::size_t hi = slots_.size();
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (slots_[mid].key < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
    std::vector<Slot> slots_;
  };
  struct ControlCmd {
    enum class Kind { kOpen, kClose, kAlarm } kind = Kind::kOpen;
    std::uint8_t port = 0;
    sim::Time alarm_delay = 0;
    std::uint32_t alarm_id = 0;
  };

  // Serialize a routine on the LANai processor and account occupancy.
  // exec and post_event wrap their guard around the caller's step by
  // value, so step and guard are one closure, type-erased once in its
  // event. Defined in mcp.cpp, their only user.
  template <typename F>
  void exec(sim::Time cost, F fn);
  // Run send_chunk at `entry`: natively while the code is the loaded
  // image and the call takes a mirrored path, else interpreted. On an
  // abnormal return, transition to hung/restart.
  bool run_send_chunk(std::uint32_t entry);
  void handle_cpu_failure(const lanai::RunResult& r);
  void become_hung(const std::string& reason);
  void restart_self();
  // What load() and restart_self() share: a new generation with no
  // protocol state (ports closed, no streams, nothing queued or in flight).
  void start_generation();

  // Tickless L_timer. A virtual event is an IT0/IT1/IT2 expiry or a
  // reserved run, keyed like a queue entry: (time, scheduling time).
  enum class Tick { kNone, kIt0, kIt1, kIt2, kRun };
  struct TickEvent {
    Tick what = Tick::kNone;
    sim::Time at = ~sim::Time{0};
    sim::Time as_of = 0;
  };
  [[nodiscard]] TickEvent next_tick() const;
  [[nodiscard]] bool due(const TickEvent& t, bool wake) const;
  void replay(bool wake);
  void apply_tick(const TickEvent& t);
  bool skip_idle_ticks();
  void reserve_l_timer(sim::Time expiry);
  void run_l_timer(sim::Time at);
  void arm_it0(sim::Time at);
  void arm_watchdog(sim::Time at);
  [[nodiscard]] sim::Time it0_reload() const;  // IT0 arm, in whole ticks
  [[nodiscard]] sim::Time l_timer_cost() const {
    return cfg_.timing.lanai.dispatch_overhead + sim::usecf(0.6);
  }
  [[nodiscard]] bool watchdog_will_expire() const;
  void replan();

  // Sender pipeline.
  SendStream& send_stream(net::NodeId peer, std::uint32_t sid);
  [[nodiscard]] bool stream_has_work(const SendStream& s) const;
  /// The outstanding message holding the cursor's fragment, or null.
  [[nodiscard]] const OutMsg* message_at_cursor(const SendStream& s) const;
  void kick_sender();
  void start_fragment(SendStream& s);
  void finish_fragment_tx();
  void on_ack(const net::Packet& pkt);
  void on_nack(const net::Packet& pkt);
  // Move every outstanding message, in order, onto fresh numbers from
  // `first`, and restart the window there.
  void renumber(SendStream& s, std::uint32_t first);
  void complete_messages(SendStream& s);
  void drop_message(SendStream& s, const OutMsg& m, EventType why);
  void schedule_rto_scan();

  // Receiver pipeline.
  void on_packet();
  void handle_data(net::Packet pkt);
  // Send an ACK (`seq` = last accepted) or a NACK (`seq` = expected) after
  // one ack_proto step; it carries this card's board ID.
  void reply(net::PacketType type, net::NodeId to, std::uint32_t sid,
             std::uint32_t seq);
  // The commit point: FTGM's ACK for a message's final fragment waits
  // until the payload DMA and the RECV event post have completed.
  [[nodiscard]] bool ack_waits_for_host(bool last) const {
    return cfg_.mode == McpMode::kFtgm && last && cfg_.ftgm_delayed_ack;
  }
  void fragment_dma_done(std::uint32_t seq, bool last, RecvToken token,
                         std::uint32_t msg_len, std::uint32_t msg_id,
                         net::NodeId src, std::uint8_t src_port,
                         std::uint32_t sid);
  // A receive token joined `port`'s pool: tell the invariant checker.
  void report_recv_token(std::uint8_t port) const;
  // DMA an event record to the host; `after` runs once it has landed,
  // unless the MCP hung meanwhile.
  template <typename After>
  void post_event(std::uint8_t port, EventRecord ev, After after);
  void post_event(std::uint8_t port, EventRecord ev);

  // Mapper packets.
  void handle_map_packet(net::Packet pkt);
  // Post-recovery announce (host_restore_routes) + its retry timer.
  void send_announce(bool retry);
  void arm_announce_retry();
  void cancel_announce();
  // gm_get service (responder side).
  void handle_get_req(const net::Packet& pkt);

  lanai::Nic& nic_;
  host::PciBus& pci_;
  host::HostMemory& hmem_;
  Config cfg_;
  bool page_hash_registered_ = false;
  HostIface* host_ = nullptr;
  sim::Trace* trace_ = nullptr;
  const SendChunkImage& image_;  // shared by every card in the process
  std::uint64_t code_epoch_ = 0;  // SRAM code epoch right after load()

  bool loaded_ = false;
  bool hung_ = false;
  std::string hang_reason_;
  std::uint64_t gen_ = 0;

  sim::Time busy_until_ = 0;
  sim::Time last_l_timer_ = 0;
  sim::Time max_l_timer_gap_ = 0;

  // Tick state besides the Nic's IT0/IT1 deadline registers: reserved
  // L_timer runs (R, and the IT0 expiry E that reserved it), the cached
  // earliest virtual event, and the one wake-up event, if any.
  struct ReservedRun {
    sim::Time at;
    sim::Time as_of;
  };
  std::deque<ReservedRun> runs_;
  TickEvent next_;
  // exec() and run_send_chunk() replan only once busy_until_ passes this:
  // beyond it the next run may lag past the IT1 deadline.
  sim::Time busy_limit_ = ~sim::Time{0};
  bool replaying_ = false;
  sim::EventQueue::Handle wake_;
  sim::Time wake_at_ = ~sim::Time{0};
  sim::Time wake_as_of_ = 0;

  std::array<PortState, kMaxPorts> ports_{};
  std::deque<ControlCmd> control_queue_;
  StreamTable<SendStream> send_streams_;
  StreamTable<RecvStream> recv_streams_;

  bool dma_active_ = false;             // interpreted send DMA in flight
  std::uint64_t pending_stream_key_ = 0;
  std::uint32_t pending_seq_ = 0;
  bool rto_scan_armed_ = false;
  bool rx_handler_pending_ = false;
  std::uint64_t last_served_ = 0;       // round-robin position

  std::function<void(const net::Packet&)> map_reply_handler_;
  std::uint32_t route_epoch_ = 0;  // installed route-table epoch (see above)
  int drop_map_routes_ = 0;        // fault hook: pending MAP_ROUTE drops
  // Post-recovery announce retry state (see host_restore_routes).
  net::NodeId announce_dst_ = net::kInvalidNode;
  std::uint32_t announce_epoch_ = 0;
  std::uint32_t announce_left_ = 0;   // retries remaining; 0 = idle
  sim::Time announce_wait_ = 0;       // current backoff
  std::uint64_t announce_gen_ = 0;    // invalidates stale retry timers
  McpStats stats_;
  metrics::CounterViews views_;
  metrics::Histogram* m_l_timer_gap_ = nullptr;
};

}  // namespace myri::mcp
