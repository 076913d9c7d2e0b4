#include "fm/endpoint.hpp"

#include <cstring>

namespace myri::fm {

namespace {
// Wire framing: byte 0 = handler id (0..15), or 0xff for a credit-return
// message whose byte 1 carries the credit count.
constexpr unsigned char kCreditMsg = 0xff;
constexpr std::size_t kHeaderBytes = 2;
}  // namespace

Endpoint::Endpoint(gm::Node& node, Config cfg) : node_(node), cfg_(cfg) {
  gm::Port::Config pc;
  pc.send_tokens = 32;
  pc.recv_tokens = 64;
  port_ = &node_.open_port(cfg_.gm_port, pc);
  // Bounce pool: enough posted buffers for every peer's credits; FM posts
  // them all up front.
  for (int i = 0; i < 32; ++i) {
    port_->provide_receive_buffer(
        port_->alloc_dma_buffer(cfg_.buf_size + kHeaderBytes));
  }
  for (int i = 0; i < 8; ++i) {
    staging_.push_back(port_->alloc_dma_buffer(cfg_.buf_size + kHeaderBytes));
  }
  port_->set_receive_handler(
      [this](const gm::RecvInfo& info) { on_message(info); });
}

void Endpoint::add_peer(net::NodeId peer) {
  send_credits_.try_emplace(peer, cfg_.credits_per_peer);
  owed_credits_.try_emplace(peer, 0);
}

void Endpoint::register_handler(int handler_id, Handler h) {
  handlers_[handler_id] = std::move(h);
}

sim::Time Endpoint::copy_cost(std::size_t bytes) const {
  // MB/s == bytes/us.
  return static_cast<sim::Time>(static_cast<double>(bytes) /
                                cfg_.copy_mb_per_s * 1000.0);
}

int Endpoint::credits_for(net::NodeId dst) const {
  auto it = send_credits_.find(dst);
  return it == send_credits_.end() ? 0 : it->second;
}

bool Endpoint::send(net::NodeId dst, int handler_id,
                    std::span<const std::byte> data) {
  if (data.size() > cfg_.buf_size) return false;
  auto cit = send_credits_.find(dst);
  if (cit == send_credits_.end()) return false;
  if (cit->second <= 0) {
    ++stats_.credit_stalls;
    return false;
  }
  if (staging_.empty()) {
    ++stats_.credit_stalls;
    return false;
  }
  --cit->second;
  ++stats_.sends;

  gm::Buffer slot = staging_.back();
  staging_.pop_back();
  // Host copy into the pinned staging slot (FM has no zero-copy path).
  auto dstspan = node_.memory().at(slot.addr, kHeaderBytes + data.size());
  dstspan[0] = static_cast<std::byte>(handler_id & 0xff);
  dstspan[1] = std::byte{0};
  std::memcpy(dstspan.data() + kHeaderBytes, data.data(), data.size());
  const sim::Time copy = copy_cost(data.size());
  stats_.copy_cpu_ns += copy + cfg_.credit_overhead;
  node_.cpu().run(copy + cfg_.credit_overhead, [] {});

  const gm::Status st = port_->post(
      slot, static_cast<std::uint32_t>(kHeaderBytes + data.size()),
      {.dst = dst, .dst_port = cfg_.gm_port, .callback = [this, slot](bool) {
         staging_.push_back(slot);
         drain_queue();
       }});
  if (!st) {
    // Token exhausted or port recovering: undo the credit/slot claim and
    // let the caller queue the message for a later drain.
    staging_.push_back(slot);
    ++send_credits_[dst];
    --stats_.sends;
    ++stats_.credit_stalls;
    return false;
  }
  return true;
}

void Endpoint::send_or_queue(net::NodeId dst, int handler_id,
                             std::span<const std::byte> data) {
  if (send(dst, handler_id, data)) return;
  queue_.push_back(
      {dst, handler_id, std::vector<std::byte>(data.begin(), data.end())});
}

void Endpoint::drain_queue() {
  while (!queue_.empty()) {
    Queued& q = queue_.front();
    if (!send(q.dst, q.handler_id, q.data)) return;
    queue_.pop_front();
  }
}

void Endpoint::on_message(const gm::RecvInfo& info) {
  auto bytes = node_.memory().at(info.buffer.addr, info.len);
  const auto tag = std::to_integer<unsigned char>(bytes[0]);
  if (tag == kCreditMsg) {
    // Credit return from a receiver: replenish and drain queued sends.
    const int n = std::to_integer<int>(bytes[1]);
    send_credits_[info.src] += n;
    port_->provide_receive_buffer(info.buffer);
    drain_queue();
    return;
  }

  // Data: copy OUT of the bounce buffer (the second host copy), then run
  // the handler on the copied view and return the credit.
  const std::size_t len = info.len - kHeaderBytes;
  std::vector<std::byte> data(bytes.begin() + kHeaderBytes, bytes.end());
  const sim::Time copy = copy_cost(len);
  stats_.copy_cpu_ns += copy + cfg_.credit_overhead;
  ++stats_.delivered;
  const net::NodeId src = info.src;
  port_->provide_receive_buffer(info.buffer);
  node_.cpu().run(copy + cfg_.credit_overhead,
                  [this, src, tag, data = std::move(data)] {
                    auto it = handlers_.find(tag);
                    if (it != handlers_.end() && it->second) {
                      it->second(src, data);
                    }
                  });

  // Batched explicit credit return (host-level flow control).
  int& owed = ++owed_credits_[src];
  if (owed >= cfg_.credit_return_batch) {
    return_credits(src, owed);
    owed = 0;
  }
}

void Endpoint::return_credits(net::NodeId to, int n) {
  if (staging_.empty()) {
    // No staging slot free for the credit message right now. Credit
    // messages must never consume send credits (that would deadlock the
    // flow control), so retry shortly instead of queueing behind data.
    node_.event_queue().post_after(sim::usec(5), [this, to, n] {
      return_credits(to, n);
    });
    return;
  }
  ++stats_.credit_returns;
  gm::Buffer slot = staging_.back();
  staging_.pop_back();
  auto bytes = node_.memory().at(slot.addr, 2);
  bytes[0] = std::byte{kCreditMsg};
  bytes[1] = std::byte{static_cast<unsigned char>(n)};
  node_.cpu().run(cfg_.credit_overhead, [] {});
  const gm::Status st =
      port_->post(slot, 2,
                  {.dst = to, .dst_port = cfg_.gm_port,
                   .callback = [this, slot](bool) {
                     staging_.push_back(slot);
                     drain_queue();
                   }});
  if (!st) {
    // Could not post the credit message (tokens busy / recovering): put
    // the slot back and retry on the same no-slot backoff path.
    --stats_.credit_returns;
    staging_.push_back(slot);
    node_.event_queue().post_after(sim::usec(5), [this, to, n] {
      return_credits(to, n);
    });
  }
}

}  // namespace myri::fm
