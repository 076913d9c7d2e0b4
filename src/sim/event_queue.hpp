// Discrete-event simulation kernel.
//
// A single EventQueue drives the whole simulated cluster: hosts, NICs,
// switches and daemons all schedule closures against one virtual clock.
// Events at equal timestamps run in FIFO scheduling order, which keeps every
// experiment fully deterministic for a given seed.
//
// Every entry also records the virtual time it was scheduled at, exposed
// for the executing event as current_scheduled_at(). Lazily modelled
// components use it to break equal-timestamp ties the way an eager model
// would have: the tickless L_timer (mcp::Mcp::catch_up) replays card
// ticks analytically, and a virtual tick at now() precedes the executing
// event exactly when its eager event would have been scheduled first
// (DESIGN.md §12).
//
// Internally the queue is a calendar queue: a ring of fixed-width time
// buckets plus a min-heap overflow for events beyond the ring's horizon,
// with all event entries pooled in a slab allocator. Each closure is built
// directly in its slab entry (InlineCallback) and runs there: entries have
// stable addresses, so the hot path neither allocates nor copies a closure
// per event (DESIGN.md §12). An occupancy bitmap over the ring (one bit
// per bucket plus a summary word) lets the cursor jump straight to the
// next non-empty bucket with two count-trailing-zeros steps, so a sparse
// timeline costs nothing per empty bucket. The execution order is defined
// purely by the (timestamp, sequence) pair, identical to the classic
// binary-heap implementation this replaced, so golden traces and chaos
// digests are bit-stable across the designs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/checks.hpp"
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
  Handle schedule_at(Time at, Callback cb) {
    const Claim c = claim(at);
    c.cb.emplace(std::move(cb));
    return Handle(slab_, c.slot, c.gen);
  }

  /// Schedule `cb` after `delay` nanoseconds of virtual time.
  Handle schedule_after(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// schedule_at for an event nobody will cancel: `f` is built directly
  /// in its slab entry and no Handle is made. The hot paths use this.
  template <typename F>
  void post_at(Time at, F&& f) {
    claim(at).cb.emplace(std::forward<F>(f));
  }

  /// post_at after `delay` nanoseconds of virtual time.
  template <typename F>
  void post_after(Time delay, F&& f) {
    post_at(now_ + delay, std::forward<F>(f));
  }

  /// Virtual time at which the event now executing was scheduled. Outside
  /// event execution (between run slices) it is kNotExecuting: the caller
  /// then comes after every event at or before now().
  [[nodiscard]] Time current_scheduled_at() const noexcept {
    return cur_scheduled_at_;
  }
  static constexpr Time kNotExecuting = ~Time{0};

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

  /// Point-of-change invariant checker for everything driven by this
  /// queue (sim/checks.hpp), or null. Components report each state change
  /// an invariant depends on through checks(); the chaos oracle attaches
  /// here. One checker at a time (last wins; null detaches).
  void set_checks(Checks* c) noexcept { checks_ = c; }
  [[nodiscard]] Checks* checks() const noexcept { return checks_; }

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

  // A freshly queued slab entry whose callback the caller builds in place.
  // The one commit routine behind schedule_at and post_at.
  struct Claim {
    Callback& cb;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  Claim claim(Time at);

  void place_item(const Item& it);
  void migrate_overflow();
  bool advance_to_next(bool bounded, Time limit);
  bool pop_and_run(bool bounded, Time limit);
  std::uint32_t alloc_slot();
  void retire_slot(std::uint32_t slot);
  void recycle_slot(std::uint32_t slot);
  void free_slot(std::uint32_t slot);
  void reclaim_all();
  void maybe_compact();

  std::shared_ptr<Slab> slab_;
  std::vector<std::vector<Item>> buckets_;
  std::array<std::uint64_t, kOccWords> occ_{};
  std::uint64_t occ_summary_ = 0;
  std::vector<Item> overflow_;  // min-heap on (at, seq)
  Checks* checks_ = nullptr;
  Time now_ = 0;
  Time cur_scheduled_at_ = kNotExecuting;
  std::uint64_t cur_bn_ = 0;     // absolute bucket number of the cursor
  bool cur_sorted_ = false;      // current bucket sorted & being drained
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace myri::sim
