#include "gm/port.hpp"

#include <algorithm>

#include "gm/node.hpp"

namespace myri::gm {

Port::Port(Node& node, std::uint8_t id, Config cfg)
    : node_(node),
      id_(id),
      cfg_(cfg),
      send_tokens_free_(cfg.send_tokens),
      recv_tokens_free_(cfg.recv_tokens) {
  send_callbacks_.reserve(cfg.send_tokens);
  recv_buffers_.reserve(cfg.recv_tokens);
  // Each token in flight comes back as at most one event.
  queue_.reserve(cfg.send_tokens + cfg.recv_tokens);
}

bool Port::ftgm() const {
  return node_.config().mode == mcp::McpMode::kFtgm;
}

void Port::bind_metrics(metrics::Registry& reg, const std::string& prefix) {
  const std::string p = prefix + '.';
  views_.expose(reg, p + "sends_posted", stats_.sends_posted);
  views_.expose(reg, p + "sends_completed", stats_.sends_completed);
  views_.expose(reg, p + "msgs_received", stats_.msgs_received);
  views_.expose(reg, p + "bytes_sent", stats_.bytes_sent);
  views_.expose(reg, p + "bytes_received", stats_.bytes_received);
  views_.expose(reg, p + "send_cpu_ns", stats_.send_cpu_ns);
  views_.expose(reg, p + "recv_cpu_ns", stats_.recv_cpu_ns);
  views_.expose(reg, p + "recoveries", stats_.recoveries);
  m_.send_tokens_in_flight = &reg.gauge(p + "send_tokens_in_flight");
  m_.recv_tokens_posted = &reg.gauge(p + "recv_tokens_posted");
  m_.event_queue_depth = &reg.gauge(p + "event_queue_depth");
  m_.replay_ns = &reg.histogram(p + "recovery.replay_ns");
}

void Port::test_inject_send_token() {
  ++send_tokens_free_;
  sync_token_gauges();
  report_send_token();
}

void Port::report_send_token() const {
  if (sim::Checks* c = node_.event_queue().checks()) {
    c->send_token_returned(*this);
  }
}

void Port::sync_token_gauges() {
  metrics::level(m_.send_tokens_in_flight,
                 static_cast<std::int64_t>(cfg_.send_tokens) -
                     static_cast<std::int64_t>(send_tokens_free_));
  metrics::level(m_.recv_tokens_posted,
                 static_cast<std::int64_t>(cfg_.recv_tokens) -
                     static_cast<std::int64_t>(recv_tokens_free_));
}

Buffer Port::alloc_dma_buffer(std::uint32_t size) {
  auto addr = node_.alloc_pinned(size);
  if (!addr) return {};
  // Register every page of the buffer in the page hash table so the MCP
  // can translate and DMA it (virtual == DMA address in this model, but
  // the mapping must exist or the MCP refuses the transfer).
  for (host::DmaAddr page = *addr / host::kPageSize * host::kPageSize;
       page < *addr + size; page += host::kPageSize) {
    node_.page_hash().map(id_, page, page);
  }
  return Buffer{*addr, size};
}

bool Port::active_dst(net::NodeId dst) const {
  return std::binary_search(active_dsts_.begin(), active_dsts_.end(), dst);
}

void Port::note_active_dst(net::NodeId dst) {
  const auto it =
      std::lower_bound(active_dsts_.begin(), active_dsts_.end(), dst);
  if (it == active_dsts_.end() || *it != dst) active_dsts_.insert(it, dst);
}

Status Port::post(const Buffer& buf, std::uint32_t len, SendOptions opts) {
  mcp::SendRequest req;
  req.dst = opts.dst;
  req.dst_port = opts.dst_port;
  req.priority = opts.priority;
  if (opts.remote_vaddr) {
    req.directed = true;
    req.target_vaddr = *opts.remote_vaddr;
  }
  return submit_send(buf, len, std::move(req), std::move(opts.callback));
}

Status Port::submit_send(const Buffer& buf, std::uint32_t len,
                         mcp::SendRequest req, SendCallback cb) {
  if (!buf.valid() || len > buf.size || req.dst == net::kInvalidNode) {
    return Status::kInvalidArg;
  }
  if (recovering_) return Status::kRecovering;
  // The card came back from a reload but this port's FAULT_DETECTED has
  // not been dispatched yet (the FTD is still restoring tables), so the
  // on-card port is closed and a post would be refused after the host
  // already allocated its FTGM sequence block — a hole in the stream's
  // sequence space that no retransmission can ever fill. Back off like
  // any other recovery window. Posts while the card is hung or unloaded
  // are unaffected: those land in the backup store and replay intact.
  if (ftgm() && node_.mcp().loaded() && !node_.mcp().hung() &&
      !node_.mcp().port_open(id_)) {
    return Status::kRecovering;
  }
  // A remap declared this node's installed routes stale and the fresh
  // epoch has not fully landed yet: refuse instead of launching onto a
  // route that may cross a dead trunk (callers back off and retry).
  if (node_.routes_stale()) return Status::kRecovering;
  if (!node_.has_route(req.dst)) return Status::kUnreachable;
  // A draining destination accepts traffic only from streams established
  // before the drain began: in-flight conversations finish exactly-once,
  // new ones are refused so the node can quiesce and retire.
  if (node_.dst_draining(req.dst) && !active_dst(req.dst)) {
    return Status::kDraining;
  }
  if (send_tokens_free_ == 0) return Status::kNoSendToken;
  note_active_dst(req.dst);
  --send_tokens_free_;
  ++stats_.sends_posted;
  stats_.bytes_sent += len;
  sync_token_gauges();

  req.port = id_;
  req.host_addr = buf.addr;
  req.len = len;
  req.token_id = next_token_id_++;
  req.msg_id = next_msg_id_++;
  const net::NodeId dst = req.dst;

  const auto& t = node_.config().timing;
  sim::Time cost = t.hostt.send_api_overhead;
  if (ftgm()) {
    // Host-generated sequence numbers and the send-token copy: the whole
    // "continuous checkpointing" cost on the send side (paper: ~0.25 us).
    req.seq_first = backup_.alloc_seq_block(dst, mcp::fragments_of(len));
    backup_.add_send(req);
    cost += t.hostt.ftgm_send_backup;
    cost += t.hostt.ftgm_seq_sync;  // 0 in the chosen per-port design
  }
  if (cb) send_callbacks_.put(req.token_id, std::move(cb));
  stats_.send_cpu_ns += cost;

  // The Node outlives every Port; capture it rather than `this` so a
  // gm_close between the charge and the PIO cannot dangle.
  Node* n = &node_;
  node_.cpu().run(cost, [n, req] {
    n->pci().pio([n, req] {
      n->mcp().host_post_send(req);
      n->nic().ring_doorbell();
    });
  });
  return Status::kOk;
}

Status Port::get_with_callback(const Buffer& local, std::uint32_t len,
                               net::NodeId dst, std::uint8_t dst_port,
                               std::uint32_t remote_vaddr, SendCallback cb) {
  if (!local.valid() || len > local.size || dst == net::kInvalidNode) {
    return Status::kInvalidArg;
  }
  if (recovering_) return Status::kRecovering;
  if (node_.routes_stale()) return Status::kRecovering;
  if (!node_.has_route(dst)) return Status::kUnreachable;
  if (node_.dst_draining(dst) && !active_dst(dst)) {
    return Status::kDraining;
  }
  note_active_dst(dst);
  mcp::GetRequest g;
  g.port = id_;
  g.dst = dst;
  g.dst_port = dst_port;
  g.remote_vaddr = remote_vaddr;
  g.local_vaddr = static_cast<std::uint32_t>(local.addr);
  g.len = len;
  g.correlation = next_token_id_++;
  pending_gets_.put(g.correlation, PendingGet{g, std::move(cb), 0});
  issue_get(g.correlation);
  return Status::kOk;
}

void Port::issue_get(std::uint32_t correlation) {
  auto pg = pending_gets_.take(correlation);
  if (!pg) return;
  if (pg->attempts >= 12) {
    if (pg->cb) pg->cb(false);
    return;
  }
  const int attempts = ++pg->attempts;
  const mcp::GetRequest req = pg->req;
  pending_gets_.put(correlation, std::move(*pg));
  Node* n = &node_;
  node_.cpu().run(node_.config().timing.hostt.send_api_overhead, [n, req] {
    n->pci().pio([n, req] {
      n->mcp().host_post_get(req);
      n->nic().ring_doorbell();
    });
  });
  // Idempotent retry with exponential backoff: lost requests or responses
  // are reissued, and the total budget (~2.5 s) outlasts a full FTGM NIC
  // recovery on either end of the path.
  const sim::Time delay =
      std::min<sim::Time>(sim::msec(2) << (attempts - 1), sim::msec(800));
  node_.event_queue().post_after(
      delay, guarded([this, correlation] { issue_get(correlation); }));
}

Status Port::provide_receive_buffer(const Buffer& buf,
                                    std::uint8_t priority) {
  if (!buf.valid()) return Status::kInvalidArg;
  // During FAULT_DETECTED replay the recv-token queue is rebuilt from the
  // BackupStore; accepting a fresh token here would double-post it (once
  // now, once from the backup copy the replay is about to install).
  if (recovering_) return Status::kRecovering;
  if (recv_tokens_free_ == 0) return Status::kNoRecvToken;
  --recv_tokens_free_;
  sync_token_gauges();

  mcp::RecvToken tok;
  tok.port = id_;
  tok.host_addr = buf.addr;
  tok.size = buf.size;
  tok.priority = priority;
  tok.token_id = next_token_id_++;
  recv_buffers_.put(tok.token_id, PostedBuffer{buf, priority});
  if (ftgm()) backup_.add_recv(tok);

  Node* n = &node_;
  node_.cpu().run(sim::usecf(0.10), [n, tok] {
    n->pci().pio([n, tok] {
      n->mcp().host_provide_recv_token(tok);
      n->nic().ring_doorbell();
    });
  });
  return Status::kOk;
}

void Port::set_alarm(sim::Time delay, std::function<void()> handler) {
  const std::uint32_t aid = next_alarm_id_++;
  alarms_.put(aid, std::move(handler));
  node_.mcp().host_set_alarm(id_, delay, aid);
}

void Port::push_event(const mcp::EventRecord& ev) {
  queue_.push_back(ev);
  metrics::level(m_.event_queue_depth,
                 static_cast<std::int64_t>(queue_.size()));
  if (!pump_armed_) {
    pump_armed_ = true;
    node_.event_queue().post_after(
        node_.config().timing.hostt.poll_interval,
        guarded([this] { pump(); }));
  }
}

void Port::pump() {
  if (queue_.empty()) {
    pump_armed_ = false;
    return;
  }
  const mcp::EventRecord ev = queue_.take_front();
  metrics::level(m_.event_queue_depth,
                 static_cast<std::int64_t>(queue_.size()));

  const auto& t = node_.config().timing;
  sim::Time cost;
  switch (ev.type) {
    case mcp::EventType::kRecv:
      // The paper's per-receive host cost; FTGM adds two hash-table
      // updates (recv-token copy + ACK-number table, ~0.40 us).
      cost = t.hostt.recv_api_overhead;
      if (ftgm()) cost += t.hostt.ftgm_recv_backup;
      stats_.recv_cpu_ns += cost;
      break;
    case mcp::EventType::kSent:
      cost = sim::usecf(0.15);  // callback dispatch only
      break;
    default:
      cost = sim::usecf(0.10);
      break;
  }
  node_.cpu().run(cost, guarded([this, ev] {
                    dispatch(ev);
                    pump();
                  }));
}

void Port::dispatch(const mcp::EventRecord& ev) {
  ++stats_.events_dispatched;
  switch (ev.type) {
    case mcp::EventType::kRecv: {
      if (ftgm()) {
        backup_.note_recv_seq(ev.peer, ev.stream, ev.seq);
        backup_.remove_recv(ev.token_id);
      }
      ++recv_tokens_free_;
      ++stats_.msgs_received;
      stats_.bytes_received += ev.len;
      sync_token_gauges();
      RecvInfo info;
      if (const auto posted = recv_buffers_.take(ev.token_id)) {
        info.buffer = posted->buffer;
        info.priority = posted->priority;
      }
      info.len = ev.len;
      info.src = ev.peer;
      info.src_port = ev.peer_port;
      if (recv_handler_) recv_handler_(info);
      break;
    }
    case mcp::EventType::kSent: {
      // The backup copy is removed just before the callback is invoked
      // (paper Section 4.1).
      if (ftgm()) backup_.complete_send(ev.token_id, ev.seq);
      ++send_tokens_free_;
      ++stats_.sends_completed;
      sync_token_gauges();
      report_send_token();
      if (auto cb = send_callbacks_.take(ev.token_id)) (*cb)(true);
      break;
    }
    case mcp::EventType::kGot: {
      if (ftgm()) backup_.note_recv_seq(ev.peer, ev.stream, ev.seq);
      if (auto got = pending_gets_.take(ev.msg_id)) {
        if (got->cb) got->cb(true);
      }
      break;
    }
    case mcp::EventType::kAlarm: {
      ++stats_.alarms;
      if (auto h = alarms_.take(ev.token_id)) {
        if (*h) (*h)();
      }
      break;
    }
    default:
      unknown(ev);
      break;
  }
}

void Port::unknown(const mcp::EventRecord& ev) {
  // gm_unknown(): the default handler for GM-internal events. FTGM's
  // transparency hinges on hooking FAULT_DETECTED here (paper Section 4.4).
  switch (ev.type) {
    case mcp::EventType::kFaultDetected:
      if (ftgm()) handle_fault_detected();
      break;
    case mcp::EventType::kSendError: {
      ++stats_.send_errors;
      if (ftgm()) backup_.remove_send(ev.token_id);
      ++send_tokens_free_;
      sync_token_gauges();
      report_send_token();
      if (auto cb = send_callbacks_.take(ev.token_id)) (*cb)(false);
      break;
    }
    default:
      break;
  }
}

void Port::handle_fault_detected() {
  recovering_ = true;
  ++stats_.recoveries;
  recover_started_ = node_.event_queue().now();

  // The handler's execution time dominates per-process recovery (paper
  // Table 3: ~900 ms): port teardown/reopen handshakes, pinned-page
  // revalidation, receive-queue rebuild, plus per-item restore costs.
  const auto& rt = node_.config().timing.recovery;
  sim::Time cost = rt.per_process_base;
  cost += rt.per_send_token_restore * backup_.send_count();
  cost += rt.per_recv_token_restore * backup_.recv_count();
  cost += rt.per_stream_restore * backup_.ack_table().size();

  node_.cpu().run(cost, guarded([this] {
    auto& m = node_.mcp();
    // 1. Restore the LANai's receive-token queue from our copies.
    for (const auto& tok : backup_.recvs()) {
      m.host_provide_recv_token(tok);
    }
    // 2. Update the LANai with the last sequence number received on each
    //    stream so it ACKs the right messages and NACKs out-of-order ones.
    for (const auto& [key, e] : backup_.ack_table()) {
      m.host_restore_ack_entry(e.peer, e.stream, e.last_seq);
    }
    // 3. Reopen the port; the LANai reinitializes per-port state.
    m.host_reopen_port(id_);
    // 4. Re-post every unacknowledged send token with its original
    //    host-generated sequence numbers; peers that already received a
    //    message drop the duplicate at the MCP level and re-ACK.
    for (const auto& req : backup_.sends()) {
      m.host_post_send(req);
    }
    node_.nic().ring_doorbell();
    recovering_ = false;
    // Table 3's "per-process recovery" row: FAULT_DETECTED dispatch to
    // tokens-replayed, i.e. the paper's port replay phase.
    metrics::observe(m_.replay_ns,
                     node_.event_queue().now() - recover_started_);
    if (on_recovered_) on_recovered_();
  }));
}

}  // namespace myri::gm
