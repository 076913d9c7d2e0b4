// GM port: the user-level communication endpoint (paper Section 3.1).
//
// Mirrors the GM programming model: connectionless messaging through up to
// 8 ports per node, implicit send/receive tokens, asynchronous completion
// through a receive (event) queue, and a gm_unknown()-style default handler
// for internal events. In FTGM mode the library transparently maintains the
// BackupStore (send/receive token copies, host-generated sequence numbers,
// the ACK-number table) and implements the FAULT_DETECTED recovery handler
// — applications need no changes, exactly as the paper requires.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backup_store.hpp"
#include "gm/status.hpp"
#include "mcp/types.hpp"
#include "metrics/registry.hpp"
#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace myri::gm {

class Node;

/// A pinned, DMA-able message buffer (GM's zero-copy requirement).
struct Buffer {
  host::DmaAddr addr = 0;
  std::uint32_t size = 0;
  [[nodiscard]] bool valid() const noexcept { return size != 0; }
};

/// What a receive handler sees for an arrived message.
struct RecvInfo {
  Buffer buffer;              // the posted buffer the message landed in
  std::uint32_t len = 0;
  net::NodeId src = net::kInvalidNode;
  std::uint8_t src_port = 0;
  std::uint8_t priority = 0;
};

/// Completion callback for sends/gets (ok == delivered & acknowledged).
using SendCallback = std::function<void(bool ok)>;

/// One parameter block for every send flavour (gm_send_with_callback,
/// gm_directed_send_with_callback, fire-and-forget): designated
/// initializers replace the old positional sprawl.
///   port.post(buf, len, {.dst = 3, .dst_port = 2, .callback = cb});
struct SendOptions {
  net::NodeId dst = net::kInvalidNode;
  std::uint8_t dst_port = 0;
  std::uint8_t priority = 0;
  /// Engaged => RDMA put into the remote process's registered memory at
  /// this virtual address (the receiver consumes no token, sees no event).
  std::optional<std::uint32_t> remote_vaddr{};
  SendCallback callback{};
};

struct PortStats {
  std::uint64_t sends_posted = 0;
  std::uint64_t sends_completed = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t alarms = 0;
  // Host-CPU time attributable to the send call path and to receive-event
  // processing (the paper's "host utilization" metric, Table 2).
  sim::Time send_cpu_ns = 0;
  sim::Time recv_cpu_ns = 0;
  std::uint64_t recoveries = 0;  // FAULT_DETECTED recoveries completed
};

class Port {
 public:
  struct Config {
    std::uint32_t send_tokens = 16;
    std::uint32_t recv_tokens = 16;
  };
  using SendCallback = gm::SendCallback;
  using RecvHandler = std::function<void(const RecvInfo&)>;

  Port(Node& node, std::uint8_t id, Config cfg);
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  [[nodiscard]] std::uint8_t id() const noexcept { return id_; }
  [[nodiscard]] Node& node() noexcept { return node_; }

  /// Allocate a pinned DMA buffer and register its pages for this port.
  Buffer alloc_dma_buffer(std::uint32_t size);

  /// The one send entry point: relinquish a send token and queue `len`
  /// bytes of `buf` per `opts` (plain message, or RDMA put when
  /// opts.remote_vaddr is engaged). Returns:
  ///   kOk          accepted; opts.callback fires on completion
  ///   kInvalidArg  invalid buffer, len > buf.size, or invalid dst
  ///   kRecovering  FAULT_DETECTED replay in progress — back off, retry
  ///   kUnreachable no route installed for dst (mapper hasn't reached it)
  ///   kDraining    dst is draining and this port has no stream to it yet
  ///   kNoSendToken all tokens in flight — retry on a completion callback
  /// On any non-kOk result opts.callback never fires: check the Status.
  [[nodiscard]] Status post(const Buffer& buf, std::uint32_t len,
                            SendOptions opts);

  /// gm_send_with_callback (thin forwarder to post()).
  Status send_with_callback(const Buffer& buf, std::uint32_t len,
                            net::NodeId dst, std::uint8_t dst_port,
                            std::uint8_t priority, SendCallback cb) {
    return post(buf, len,
                SendOptions{.dst = dst,
                            .dst_port = dst_port,
                            .priority = priority,
                            .remote_vaddr = std::nullopt,
                            .callback = std::move(cb)});
  }

  /// gm_directed_send_with_callback (RDMA put): thin forwarder to post()
  /// with remote_vaddr engaged. The remote port must have the target pages
  /// registered (its own DMA buffers are).
  Status directed_send_with_callback(const Buffer& buf, std::uint32_t len,
                                     net::NodeId dst, std::uint8_t dst_port,
                                     std::uint32_t remote_vaddr,
                                     SendCallback cb,
                                     std::uint8_t priority = 0) {
    return post(buf, len,
                SendOptions{.dst = dst,
                            .dst_port = dst_port,
                            .priority = priority,
                            .remote_vaddr = remote_vaddr,
                            .callback = std::move(cb)});
  }

  /// gm_get (RDMA read): fetch `len` bytes of the remote process's
  /// registered memory at `remote_vaddr` into `local` (which must be one
  /// of this port's registered buffers). The request is retried until the
  /// response lands (gets are idempotent); cb(false) after the retry
  /// budget is exhausted (unregistered remote memory, dead peer, ...).
  [[nodiscard]] Status get_with_callback(const Buffer& local,
                                         std::uint32_t len, net::NodeId dst,
                                         std::uint8_t dst_port,
                                         std::uint32_t remote_vaddr,
                                         SendCallback cb);

  /// gm_provide_receive_buffer: relinquish a receive token. Returns kOk,
  /// kInvalidArg, kRecovering or kNoRecvToken.
  Status provide_receive_buffer(const Buffer& buf, std::uint8_t priority = 0);

  /// Handler invoked (from the event pump) for each received message.
  void set_receive_handler(RecvHandler h) { recv_handler_ = std::move(h); }

  /// gm_set_alarm: one-shot alarm delivered through the receive queue.
  void set_alarm(sim::Time delay, std::function<void()> handler);

  /// Invoked after this port finishes FAULT_DETECTED recovery (FTGM).
  void set_on_recovered(std::function<void()> f) {
    on_recovered_ = std::move(f);
  }

  /// Publish this port's accounting (tokens in flight, event-queue depth,
  /// host CPU time, recovery replay timing) under "<prefix>.".
  void bind_metrics(metrics::Registry& reg, const std::string& prefix);

  // ---- introspection ----
  [[nodiscard]] std::uint32_t send_tokens_free() const noexcept {
    return send_tokens_free_;
  }
  [[nodiscard]] std::uint32_t recv_tokens_free() const noexcept {
    return recv_tokens_free_;
  }
  [[nodiscard]] bool recovering() const noexcept { return recovering_; }
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return stats_.recoveries;
  }
  [[nodiscard]] const PortStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const core::BackupStore& backup() const noexcept {
    return backup_;
  }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  /// Test-only fault hook: conjure one send token out of thin air. Exists
  /// to prove the chaos oracle's token-conservation invariant fires on a
  /// real leak (fi::ScenarioEvent::Kind::kTokenLeak) — never called by
  /// production code, never generated in random schedules.
  void test_inject_send_token();

  // ---- host receive queue (used by the MCP glue and the FTD) ----
  void push_event(const mcp::EventRecord& ev);

 private:
  /// Wrap a deferred callback so it becomes a no-op if this Port has been
  /// destroyed (gm_close while events or CPU work are in flight).
  template <typename F>
  auto guarded(F&& f) {
    return [w = std::weak_ptr<int>(life_),
            f = std::forward<F>(f)]() mutable {
      if (w.expired()) return;
      f();
    };
  }

  /// Flat table keyed by a token id (or a get's correlation, an alarm's
  /// id). It holds one entry per token in flight, so it stays as small as
  /// the port's token count and a linear scan beats hashing; nothing
  /// iterates it, so lookup order cannot leak into behaviour. Ids are
  /// never reused, so put() never meets a duplicate.
  template <typename V>
  class TokenTable {
   public:
    void reserve(std::size_t n) { slots_.reserve(n); }
    void put(std::uint32_t id, V v) { slots_.push_back({id, std::move(v)}); }
    /// Remove and return the entry for `id`, if there is one.
    std::optional<V> take(std::uint32_t id) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].id != id) continue;
        std::optional<V> out(std::move(slots_[i].value));
        if (i + 1 != slots_.size()) slots_[i] = std::move(slots_.back());
        slots_.pop_back();
        return out;
      }
      return std::nullopt;
    }

   private:
    struct Slot {
      std::uint32_t id;
      V value;
    };
    std::vector<Slot> slots_;
  };

  struct BoundMetrics {
    metrics::Gauge* send_tokens_in_flight = nullptr;
    metrics::Gauge* recv_tokens_posted = nullptr;
    metrics::Gauge* event_queue_depth = nullptr;
    metrics::Histogram* replay_ns = nullptr;
  };

  void sync_token_gauges();
  // A send token came back: tell the invariant checker.
  void report_send_token() const;

  Status submit_send(const Buffer& buf, std::uint32_t len,
                     mcp::SendRequest req, SendCallback cb);
  void pump();
  void dispatch(const mcp::EventRecord& ev);
  void unknown(const mcp::EventRecord& ev);      // gm_unknown()
  void handle_fault_detected();                  // FTGM transparent recovery
  [[nodiscard]] bool ftgm() const;

  Node& node_;
  std::uint8_t id_;
  Config cfg_;
  std::uint32_t send_tokens_free_;
  std::uint32_t recv_tokens_free_;
  std::uint32_t next_token_id_ = 1;
  std::uint32_t next_msg_id_ = 1;

  sim::Ring<mcp::EventRecord> queue_;  // host-side receive queue
  bool pump_armed_ = false;

  struct PendingGet {
    mcp::GetRequest req;
    SendCallback cb;
    int attempts = 0;
  };
  void issue_get(std::uint32_t correlation);

  // A posted receive buffer and the priority it was posted at.
  struct PostedBuffer {
    Buffer buffer;
    std::uint8_t priority = 0;
  };

  TokenTable<SendCallback> send_callbacks_;   // send token -> completion
  TokenTable<PendingGet> pending_gets_;       // correlation -> get
  TokenTable<PostedBuffer> recv_buffers_;     // recv token -> buffer
  TokenTable<std::function<void()>> alarms_;  // alarm id -> handler
  std::uint32_t next_alarm_id_ = 1;

  // Destinations this port has posted to, sorted: streams already
  // established when a drain begins are exempt from the kDraining gate.
  std::vector<net::NodeId> active_dsts_;
  void note_active_dst(net::NodeId dst);
  [[nodiscard]] bool active_dst(net::NodeId dst) const;

  RecvHandler recv_handler_;
  std::function<void()> on_recovered_;
  core::BackupStore backup_;   // maintained only in FTGM mode
  bool recovering_ = false;
  sim::Time recover_started_ = 0;
  PortStats stats_;
  metrics::CounterViews views_;
  BoundMetrics m_;
  std::shared_ptr<int> life_ = std::make_shared<int>(0);  // liveness token
};

}  // namespace myri::gm
