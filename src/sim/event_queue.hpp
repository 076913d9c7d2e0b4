// Discrete-event simulation kernel.
//
// A single EventQueue drives the whole simulated cluster: hosts, NICs,
// switches and daemons all schedule closures against one virtual clock.
// Events at equal timestamps run in FIFO scheduling order, which keeps every
// experiment fully deterministic for a given seed.
//
// Internally the queue is a calendar queue: a ring of fixed-width time
// buckets plus a min-heap overflow for events beyond the ring's horizon,
// with all event entries pooled in a slab allocator (closures live inline
// in the slab via InlineCallback — no per-event heap allocation on the hot
// path). An occupancy bitmap over the ring (one bit per bucket plus a
// summary word) lets the cursor jump straight to the next non-empty bucket
// with two count-trailing-zeros steps, so a sparse timeline costs nothing
// per empty bucket. The execution order is defined purely by the
// (timestamp, sequence) pair, identical to the classic binary-heap
// implementation this replaced, so golden traces and chaos digests are
// bit-stable across the designs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace myri::sim {

class EventQueue {
 public:
  /// Sized so the common Link/Switch hop closures (capturing a 128-byte
  /// Packet plus a pointer and a port) stay inline in the event slab.
  using Callback = InlineCallback<152>;

  struct Slab;  // event entry pool, defined in event_queue.cpp

  /// Cancellation handle for a scheduled event. Copyable; outliving the
  /// queue or the event firing is safe (cancel becomes a no-op). The
  /// handle addresses a pooled slot by (index, generation): once the
  /// event fires or is cancelled the slot's generation moves on and the
  /// handle goes inert.
  class Handle {
   public:
    Handle() = default;

    /// Prevent the event from firing. No-op if already fired or cancelled.
    void cancel();

    /// True if the event is still waiting to fire.
    [[nodiscard]] bool pending() const;

   private:
    friend class EventQueue;
    Handle(std::weak_ptr<Slab> s, std::uint32_t slot, std::uint32_t gen)
        : slab_(std::move(s)), slot_(slot), gen_(gen) {}
    std::weak_ptr<Slab> slab_;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `cb` at absolute time `at` (clamped to now if in the past).
  Handle schedule_at(Time at, Callback cb);

  /// Schedule `cb` after `delay` nanoseconds of virtual time.
  Handle schedule_after(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Run the next pending event, advancing the clock. False if queue empty.
  bool step();

  /// Run all events with timestamp <= t; the clock ends exactly at t.
  /// Returns the number of events executed.
  std::size_t run_until(Time t);

  /// Run all events within the next `d` nanoseconds.
  std::size_t run_for(Time d) { return run_until(now_ + d); }

  /// Run until the queue drains or `max_events` have executed.
  /// The cap guards tests against runaway self-rescheduling loops.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Observer invoked after every executed event, with the clock already
  /// advanced to the event's timestamp. Continuous checkers (the chaos
  /// oracle) hook here to sample cluster invariants at event granularity
  /// instead of only at end-of-run. One observer at a time (last wins;
  /// empty function clears). The observer must not call step()/run*()
  /// re-entrantly, but may schedule new events.
  void set_after_event(std::function<void(Time)> obs) {
    after_event_ = std::move(obs);
  }

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept;

  /// Number of live events waiting.
  [[nodiscard]] std::size_t pending_events() const noexcept;

  /// Cancelled entries still occupying queue slots (reclaimed lazily at
  /// pop time or eagerly by compaction).
  [[nodiscard]] std::size_t cancelled_pending() const noexcept;

  /// Total events executed since construction (for diagnostics).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Compaction sweeps performed (cancelled-entry eviction; see
  /// maybe_compact in event_queue.cpp). Exported as `sim.eq_compactions`.
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }

 private:
  // One ring bucket covers 256 ns; 4096 buckets span ~1.05 ms. Events
  // beyond the horizon wait in the overflow heap and migrate into the
  // ring as the cursor advances.
  static constexpr int kBucketShift = 8;
  static constexpr std::uint64_t kBucketCount = 1u << 12;
  static constexpr std::uint64_t kBucketMask = kBucketCount - 1;

  // A bucket entry: enough to order the event and find its slab slot.
  // The generation pins the slot's identity — a stale item whose slot
  // was recycled is skipped at pop time.
  struct Item {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static constexpr std::uint64_t bucket_of(Time at) noexcept {
    return at >> kBucketShift;
  }

  // Occupancy bitmap: bit i of occ_ is set iff ring bucket i holds at
  // least one item (stale and cancelled items included); bit w of
  // occ_summary_ is set iff occ_[w] is non-zero.
  static constexpr std::size_t kOccWords = kBucketCount / 64;
  static_assert(kOccWords <= 64, "one summary bit per bitmap word");
  void mark_occupied(std::uint64_t idx) noexcept;
  void mark_empty(std::uint64_t idx) noexcept;
  [[nodiscard]] std::uint64_t next_occupied(std::uint64_t idx) const noexcept;
  template <typename F>
  void for_each_occupied(F&& f);

  void place_item(const Item& it);
  void migrate_overflow();
  bool advance_to_next(bool bounded, Time limit);
  bool pop_and_run(bool bounded, Time limit);
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  void reclaim_all();
  void maybe_compact();

  std::shared_ptr<Slab> slab_;
  std::vector<std::vector<Item>> buckets_;
  std::array<std::uint64_t, kOccWords> occ_{};
  std::uint64_t occ_summary_ = 0;
  std::vector<Item> overflow_;  // min-heap on (at, seq)
  std::function<void(Time)> after_event_;
  Time now_ = 0;
  std::uint64_t cur_bn_ = 0;     // absolute bucket number of the cursor
  bool cur_sorted_ = false;      // current bucket sorted & being drained
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace myri::sim
