// Verified streaming workload for fault experiments.
//
// A sender port streams numbered, patterned messages to a receiver port;
// the receiver checks every byte and counts exact-once delivery. The
// workload is the oracle the fault-injection campaign classifies against:
// content mismatches => "messages corrupted", missing messages =>
// "other errors", double delivery => duplicates (must never survive FTGM
// recovery).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gm/node.hpp"
#include "gm/port.hpp"

namespace myri::fi {

class StreamWorkload {
 public:
  struct Config {
    int total_msgs = 30;
    std::uint32_t msg_len = 2048;
    std::uint8_t priority = 0;
    int recv_buffers = 16;
    int max_in_flight = 8;
    /// Minimum virtual time between message posts. 0 = pump at max rate
    /// (the classic short-schedule behavior). Soak mode paces streams so
    /// hours of virtual time cost background-traffic events, not a
    /// saturated fabric's.
    sim::Time send_gap = 0;
  };

  StreamWorkload(gm::Port& sender, gm::Port& receiver, Config cfg);

  /// Allocate buffers, arm the receiver, begin streaming.
  void start();

  /// Observer invoked for every delivered message with its decoded index
  /// (-1 when the payload failed verification). Fires for duplicates too,
  /// so a continuous oracle sees every delivery, not just the first. Must
  /// be set before start().
  void set_on_delivery(std::function<void(int msg)> obs) {
    on_delivery_ = std::move(obs);
  }

  [[nodiscard]] gm::Port& sender() noexcept { return sender_; }
  [[nodiscard]] gm::Port& receiver() noexcept { return receiver_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  // ---- outcome counters ----
  [[nodiscard]] int sent_ok() const noexcept { return sent_ok_; }
  [[nodiscard]] int send_failures() const noexcept { return send_failures_; }
  /// Posts refused with a retryable Status (kRecovering during
  /// FAULT_DETECTED replay) and re-attempted on a timer.
  [[nodiscard]] int send_backoffs() const noexcept { return send_backoffs_; }
  [[nodiscard]] int received() const noexcept { return received_; }
  [[nodiscard]] int corrupted() const noexcept { return corrupted_; }
  [[nodiscard]] int duplicates() const noexcept { return duplicates_; }
  [[nodiscard]] int missing() const;
  /// Every message received exactly once with correct contents.
  [[nodiscard]] bool complete() const;

  /// Give the stream up: its endpoint died for good (node replaced, card
  /// quarantined). Stops pumping new messages; outstanding GBN frames
  /// keep retransmitting into the dead route, which is the protocol's
  /// no-give-up contract, not the workload's problem. The runner skips
  /// abandoned streams in completion and quiescence checks.
  void abandon() { abandoned_ = true; }
  [[nodiscard]] bool abandoned() const noexcept { return abandoned_; }

  /// Expected byte at position j of message i.
  static std::byte pattern(int msg, std::uint32_t j) {
    return static_cast<std::byte>((msg * 131 + static_cast<int>(j) * 31 + 7) &
                                  0xff);
  }

  /// Write pattern(msg, j) to out[j] for every j, a whole run at a time.
  static void fill_pattern(std::span<std::byte> out, int msg);
  /// True when in[j] == pattern(msg, j) for every j >= from.
  static bool matches_pattern(std::span<const std::byte> in, int msg,
                              std::uint32_t from);

 private:
  void pump_sends();
  void fill(const gm::Buffer& buf, int msg);
  void verify(const gm::RecvInfo& info);
  void provide_recv(const gm::Buffer& buf);
  void arm_retry();
  void arm_pace(sim::Time delay);

  gm::Port& sender_;
  gm::Port& receiver_;
  Config cfg_;
  std::vector<gm::Buffer> send_bufs_;   // one per in-flight slot
  std::vector<bool> slot_busy_;
  std::vector<int> recv_count_;         // per message index
  int next_msg_ = 0;
  int sent_ok_ = 0;
  int send_failures_ = 0;
  int send_backoffs_ = 0;
  int received_ = 0;
  int corrupted_ = 0;
  int duplicates_ = 0;
  bool started_ = false;
  bool abandoned_ = false;
  bool retry_armed_ = false;
  bool pace_armed_ = false;
  sim::Time next_send_at_ = 0;  // send_gap pacing cursor
  std::function<void(int)> on_delivery_;
  std::vector<gm::Buffer> recv_retry_;  // provides refused mid-recovery
};

}  // namespace myri::fi
