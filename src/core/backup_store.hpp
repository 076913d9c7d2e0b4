// Host-side backup of the network-interface state a port depends on.
//
// This is the paper's central idea (Section 4.1): instead of periodic
// checkpoints, the process continuously keeps copies of exactly the state
// the LANai holds on its behalf —
//   * every send token handed to the LANai (removed just before the send
//     callback runs),
//   * every receive token handed to the LANai (removed when the matching
//     message is received),
//   * the per-(destination, port)-stream sequence-number generators (the
//     host, not the MCP, numbers messages in FTGM), and
//   * the ACK-number table: the last sequence number received on each
//     incoming stream, kept current from RECV events.
// After a NIC failure, the FAULT_DETECTED handler replays this store into
// the reloaded MCP, which is sufficient for exactly-once delivery across
// the failure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mcp/types.hpp"
#include "net/packet.hpp"

namespace myri::core {

/// Token copies in post order: a vector with a head index. Copies leave
/// almost always from the front (sends complete and receive buffers fill
/// in the order they were posted), which only advances the head; a copy
/// leaving from the middle is erased so the rest keep their order. Once
/// the live part empties, or is at most as long as the dead prefix, the
/// vector is reset or compacted, so steady traffic reuses one buffer.
template <typename T>
class PostOrder {
 public:
  void push(const T& v) { items_.push_back(v); }

  /// Remove and return the copy whose token_id is `id`, if there is one.
  std::optional<T> take(std::uint32_t id) {
    for (std::size_t i = head_; i < items_.size(); ++i) {
      if (items_[i].token_id != id) continue;
      std::optional<T> taken = items_[i];
      if (i != head_) {
        items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (++head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= kCompactAt && head_ * 2 >= items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      return taken;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return items_.size() - head_;
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return items_[head_ + i];
  }
  [[nodiscard]] const T* begin() const noexcept {
    return items_.data() + head_;
  }
  [[nodiscard]] const T* end() const noexcept {
    return items_.data() + items_.size();
  }
  [[nodiscard]] T* begin() noexcept { return items_.data() + head_; }
  [[nodiscard]] T* end() noexcept { return items_.data() + items_.size(); }
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 16;
  std::vector<T> items_;
  std::size_t head_ = 0;  // items_[0, head_) have been removed
};

class BackupStore {
 public:
  // ---- send-token copies ----
  void add_send(const mcp::SendRequest& req) { sends_.push(req); }

  /// Remove the copy for `token_id`; call on a send error.
  void remove_send(std::uint32_t token_id) { sends_.take(token_id); }

  /// Remove the copy for `token_id`, whose message the MCP completed
  /// under `seq_last` (the SENT event's number); call just before the
  /// send callback. A number other than the copy's means the MCP
  /// renumbered the stream — a spare card took the peer's place, or a
  /// refused send left a hole — so the destination's generator and its
  /// queued copies move by the same distance: a recovery then re-posts
  /// them under the numbers the receiver expects.
  void complete_send(std::uint32_t token_id, std::uint32_t seq_last) {
    const std::optional<mcp::SendRequest> done = sends_.take(token_id);
    if (!done) return;
    const std::uint32_t shift =
        seq_last - (done->seq_first + mcp::fragments_of(done->len) - 1);
    if (shift == 0) return;
    seq_slot(done->dst) += shift;
    for (mcp::SendRequest& req : sends_) {
      if (req.dst == done->dst) req.seq_first += shift;
    }
  }

  /// Outstanding (unacknowledged) sends, in original post order — the
  /// order matters: recovery re-posts them with their original sequence
  /// numbers, which must be contiguous per stream.
  [[nodiscard]] const PostOrder<mcp::SendRequest>& sends() const {
    return sends_;
  }

  // ---- receive-token copies ----
  void add_recv(const mcp::RecvToken& tok) { recvs_.push(tok); }
  void remove_recv(std::uint32_t token_id) { recvs_.take(token_id); }
  [[nodiscard]] const PostOrder<mcp::RecvToken>& recvs() const {
    return recvs_;
  }

  // ---- host-generated sequence numbers (per destination stream) ----
  /// Allocate `nfrags` contiguous sequence numbers for a message to `dst`;
  /// returns the first.
  std::uint32_t alloc_seq_block(net::NodeId dst, std::uint32_t nfrags) {
    std::uint32_t& next = seq_slot(dst);
    const std::uint32_t first = next;
    next += nfrags;
    return first;
  }
  [[nodiscard]] std::uint32_t next_seq(net::NodeId dst) const {
    const auto it = seq_lower_bound(dst);
    return it != seq_gen_.end() && it->first == dst ? it->second : 0;
  }

  // ---- ACK-number table (receiver side) ----
  /// Record that the message ending at `seq` on (peer, stream) reached the
  /// process (driven by RECV events, which carry the sequence number).
  void note_recv_seq(net::NodeId peer, std::uint32_t stream,
                     std::uint32_t seq) {
    const std::uint64_t key = mcp::stream_key(peer, stream);
    auto it = std::lower_bound(
        ack_table_.begin(), ack_table_.end(), key,
        [](const AckSlot& s, std::uint64_t k) { return s.first < k; });
    if (it == ack_table_.end() || it->first != key) {
      ack_table_.insert(it, {key, AckEntry{peer, stream, seq}});
    } else if (seq + 1 > it->second.last_seq + 1) {
      it->second.last_seq = seq;
    }
  }
  struct AckEntry {
    net::NodeId peer;
    std::uint32_t stream;
    std::uint32_t last_seq;
  };
  using AckSlot = std::pair<std::uint64_t, AckEntry>;
  /// One entry per incoming stream, in ascending stream_key order (the
  /// order recovery restores them in).
  [[nodiscard]] const std::vector<AckSlot>& ack_table() const {
    return ack_table_;
  }

  // ---- sizing (the paper reports ~20 KB extra virtual memory) ----
  [[nodiscard]] std::size_t send_count() const { return sends_.size(); }
  [[nodiscard]] std::size_t recv_count() const { return recvs_.size(); }
  [[nodiscard]] std::size_t approx_bytes() const {
    return sends_.size() * sizeof(mcp::SendRequest) +
           recvs_.size() * sizeof(mcp::RecvToken) +
           ack_table_.size() * sizeof(AckEntry) +
           seq_gen_.size() * sizeof(std::uint64_t);
  }

  void clear() {
    sends_.clear();
    recvs_.clear();
    ack_table_.clear();
    seq_gen_.clear();
  }

 private:
  using SeqSlot = std::pair<net::NodeId, std::uint32_t>;
  [[nodiscard]] std::vector<SeqSlot>::const_iterator seq_lower_bound(
      net::NodeId dst) const {
    return std::lower_bound(
        seq_gen_.begin(), seq_gen_.end(), dst,
        [](const SeqSlot& s, net::NodeId d) { return s.first < d; });
  }
  std::uint32_t& seq_slot(net::NodeId dst) {
    auto it = seq_gen_.begin() + (seq_lower_bound(dst) - seq_gen_.cbegin());
    if (it == seq_gen_.end() || it->first != dst) {
      it = seq_gen_.insert(it, {dst, 0});
    }
    return it->second;
  }

  PostOrder<mcp::SendRequest> sends_;
  PostOrder<mcp::RecvToken> recvs_;
  std::vector<AckSlot> ack_table_;  // sorted by stream key
  std::vector<SeqSlot> seq_gen_;    // sorted by destination
};

}  // namespace myri::core
