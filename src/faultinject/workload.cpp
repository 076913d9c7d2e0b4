#include "faultinject/workload.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace myri::fi {

namespace {

// pattern(m, j) = 131m + 31j + 7 = 31(j + k_m) (mod 256), with the phase
// k_m = 223(131m + 7) mod 256 (223 is 31's inverse mod 256). So every
// message is a window into one 256-byte period, and whole runs of a
// payload are filled with memcpy and checked with memcmp. The period is
// stored twice over so a 256-byte run starting at any phase is contiguous.
struct Period {
  std::array<std::byte, 512> bytes{};
  constexpr Period() {
    for (std::uint32_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::byte>((31 * i) & 0xff);
    }
  }
};
constexpr Period kPeriod;

std::uint32_t phase(int msg) {
  return (223u * (131u * static_cast<std::uint32_t>(msg) + 7u)) & 0xff;
}

// Calls f(j, run, n) for payload bytes [from, from + n) of message `msg`
// in runs of at most 256 bytes; stops early when f returns false.
template <typename F>
bool for_each_run(int msg, std::uint32_t from, std::uint32_t n, F&& f) {
  const std::uint32_t k = phase(msg);
  for (std::uint32_t j = from; j < from + n;) {
    const std::uint32_t run = std::min<std::uint32_t>(256, from + n - j);
    if (!f(j, &kPeriod.bytes[(j + k) & 0xff], run)) return false;
    j += run;
  }
  return true;
}

}  // namespace

void StreamWorkload::fill_pattern(std::span<std::byte> out, int msg) {
  for_each_run(msg, 0, static_cast<std::uint32_t>(out.size()),
               [&](std::uint32_t j, const std::byte* run, std::uint32_t n) {
                 std::memcpy(out.data() + j, run, n);
                 return true;
               });
}

bool StreamWorkload::matches_pattern(std::span<const std::byte> in, int msg,
                                     std::uint32_t from) {
  if (in.size() <= from) return true;
  return for_each_run(
      msg, from, static_cast<std::uint32_t>(in.size()) - from,
      [&](std::uint32_t j, const std::byte* run, std::uint32_t n) {
        return std::memcmp(in.data() + j, run, n) == 0;
      });
}

StreamWorkload::StreamWorkload(gm::Port& sender, gm::Port& receiver,
                               Config cfg)
    : sender_(sender), receiver_(receiver), cfg_(cfg) {
  recv_count_.assign(static_cast<std::size_t>(cfg_.total_msgs), 0);
}

void StreamWorkload::start() {
  started_ = true;
  // Receiver side: post buffers and verify arrivals.
  for (int i = 0; i < cfg_.recv_buffers; ++i) {
    provide_recv(receiver_.alloc_dma_buffer(cfg_.msg_len));
  }
  receiver_.set_receive_handler([this](const gm::RecvInfo& info) {
    verify(info);
    // Zero-copy discipline: hand the buffer straight back.
    provide_recv(info.buffer);
  });

  // Sender side: one pinned buffer per in-flight slot.
  for (int i = 0; i < cfg_.max_in_flight; ++i) {
    send_bufs_.push_back(sender_.alloc_dma_buffer(cfg_.msg_len));
    slot_busy_.push_back(false);
  }
  pump_sends();
}

void StreamWorkload::fill(const gm::Buffer& buf, int msg) {
  auto span = sender_.node().memory().at(buf.addr, cfg_.msg_len);
  fill_pattern(span, msg);
  // Message index in the first 4 bytes (still matches pattern() in checks
  // below because verify() decodes it first).
  if (span.size() >= 4) {
    span[0] = static_cast<std::byte>(msg & 0xff);
    span[1] = static_cast<std::byte>((msg >> 8) & 0xff);
    span[2] = static_cast<std::byte>((msg >> 16) & 0xff);
    span[3] = static_cast<std::byte>((msg >> 24) & 0xff);
  }
}

void StreamWorkload::pump_sends() {
  while (!abandoned_ && next_msg_ < cfg_.total_msgs) {
    // Paced stream: wait out the gap since the last post. The pace timer
    // is separate from the 1 ms backoff retry so the cadence stays exact.
    if (cfg_.send_gap > 0) {
      const sim::Time now = sender_.node().event_queue().now();
      if (now < next_send_at_) {
        arm_pace(next_send_at_ - now);
        return;
      }
    }
    // Find a free slot.
    int slot = -1;
    for (std::size_t i = 0; i < slot_busy_.size(); ++i) {
      if (!slot_busy_[i]) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) return;  // all slots in flight; resume on a callback
    const int msg = next_msg_;
    fill(send_bufs_[static_cast<std::size_t>(slot)], msg);
    const gm::Status st = sender_.post(
        send_bufs_[static_cast<std::size_t>(slot)], cfg_.msg_len,
        {.dst = receiver_.node().id(),
         .dst_port = receiver_.id(),
         .priority = cfg_.priority,
         .callback =
             [this, slot](bool success) {
               slot_busy_[static_cast<std::size_t>(slot)] = false;
               if (success) {
                 ++sent_ok_;
               } else {
                 ++send_failures_;
               }
               pump_sends();
             }});
    if (st.code() == gm::Status::kRecovering ||
        st.code() == gm::Status::kUnreachable ||
        st.code() == gm::Status::kDraining) {
      // FAULT_DETECTED replay in progress, no route right now (cable
      // down, remap pending), or the destination is draining: no
      // completion callback is due to wake us, so come back on a timer
      // once the port reopens / routes return. (A draining destination
      // never reopens — the caller is expected to abandon or the stream
      // simply stalls until the horizon; established streams were
      // admitted before the drain and do not hit this path.)
      ++send_backoffs_;
      arm_retry();
      return;
    }
    if (!st) return;  // out of send tokens; resume on a callback
    slot_busy_[static_cast<std::size_t>(slot)] = true;
    ++next_msg_;
    if (cfg_.send_gap > 0) {
      next_send_at_ = sender_.node().event_queue().now() + cfg_.send_gap;
    }
  }
}

void StreamWorkload::arm_pace(sim::Time delay) {
  if (pace_armed_) return;
  pace_armed_ = true;
  sender_.node().event_queue().post_after(delay, [this] {
    pace_armed_ = false;
    pump_sends();
  });
}

void StreamWorkload::provide_recv(const gm::Buffer& buf) {
  if (!receiver_.provide_receive_buffer(buf, cfg_.priority)) {
    // Refused mid-recovery (or token-exhausted): park the buffer and
    // re-provide when the retry timer fires, so no capacity is leaked.
    recv_retry_.push_back(buf);
    arm_retry();
  }
}

void StreamWorkload::arm_retry() {
  if (retry_armed_) return;
  retry_armed_ = true;
  sender_.node().event_queue().post_after(sim::msec(1), [this] {
    retry_armed_ = false;
    std::vector<gm::Buffer> parked;
    parked.swap(recv_retry_);
    for (const gm::Buffer& b : parked) provide_recv(b);
    pump_sends();
  });
}

void StreamWorkload::verify(const gm::RecvInfo& info) {
  ++received_;
  auto span = receiver_.node().memory().at(info.buffer.addr, info.len);
  if (span.size() < 4 || info.len != cfg_.msg_len) {
    ++corrupted_;
    if (on_delivery_) on_delivery_(-1);
    return;
  }
  const int msg = std::to_integer<int>(span[0]) |
                  std::to_integer<int>(span[1]) << 8 |
                  std::to_integer<int>(span[2]) << 16 |
                  std::to_integer<int>(span[3]) << 24;
  if (msg < 0 || msg >= cfg_.total_msgs) {
    ++corrupted_;
    if (on_delivery_) on_delivery_(-1);
    return;
  }
  if (!matches_pattern(span, msg, 4)) {
    ++corrupted_;
    if (on_delivery_) on_delivery_(-1);
    return;
  }
  if (++recv_count_[static_cast<std::size_t>(msg)] > 1) ++duplicates_;
  if (on_delivery_) on_delivery_(msg);
}

int StreamWorkload::missing() const {
  int n = 0;
  for (int c : recv_count_) {
    if (c == 0) ++n;
  }
  return n;
}

bool StreamWorkload::complete() const {
  if (!started_) return false;
  for (int c : recv_count_) {
    if (c != 1) return false;
  }
  return corrupted_ == 0;
}

}  // namespace myri::fi
