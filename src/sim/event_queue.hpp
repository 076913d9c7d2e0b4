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
// Internally the queue has two tiers over one slab of event entries
// (DESIGN.md §12). The near future, every event due before the horizon
// (the rest of the clock's 16 µs bucket and at least one more), lives in
// a small 4-ary min-heap of compact (at, seq, slot) keys. Only the sparse
// far tail (retransmit timers, alarms, watchdog wakes) goes to a calendar
// of 4096 buckets whose lists are threaded through the slab entries, so
// no bucket owns memory; an occupancy bitmap finds the next non-empty
// bucket in two count-trailing-zeros steps, and when the clock nears the
// horizon the next bucket is poured into the heap. Each closure is built
// directly in its slab entry (InlineCallback) and runs and is destroyed
// there, so the hot path neither allocates nor copies a closure per event.
// The execution order is defined purely by the (timestamp, sequence) pair,
// identical to the classic binary-heap implementation this replaced, so
// golden traces and chaos digests are bit-stable across the designs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "sim/callback.hpp"
#include "sim/checks.hpp"
#include "sim/time.hpp"

namespace myri::sim {

class alignas(64) EventQueue {
 public:
  /// Sized so the common Link/Switch hop closures (capturing a 128-byte
  /// Packet plus a pointer and a port) stay inline in the event slab.
  using Callback = InlineCallback<152>;

 private:
  struct Entry;  // one pooled event, defined in event_queue.cpp
  struct Slab;   // what Handles hold: the queue, while it lives

 public:
  /// Cancellation handle for a scheduled event. Copyable; outliving the
  /// queue or the event firing is safe (cancel becomes a no-op). The
  /// handle addresses a pooled slot by (index, generation) and goes inert
  /// once the event starts running (the slot's generation moves on) or is
  /// cancelled (the entry's callback is emptied).
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

  /// schedule_at for an event nobody will cancel: `f` is built directly
  /// in its slab entry and no Handle is made. The hot paths use this.
  template <typename F>
  void post_at(Time at, F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      require_callable(static_cast<bool>(f));
    }
    Callback& cb = claim(at);
    try {
      cb.emplace(std::forward<F>(f));
    } catch (...) {
      unclaim();  // copying `f` threw: the entry stays queued, cancelled
      throw;
    }
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

  /// Scheduling sequence number of the event now executing; outside event
  /// execution it is kAfterAll, which orders after every event at now().
  /// With now() it places the caller in the `(at, seq)` order, so a
  /// lazily settled model can tell which of its virtual events at now()
  /// precede it (net::Link's arrivals, DESIGN.md section 9).
  [[nodiscard]] std::uint64_t current_seq() const noexcept {
    return cur_seq_;
  }
  static constexpr std::uint64_t kAfterAll = ~std::uint64_t{0};

  /// The sequence number the next schedule_at/post_at takes.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

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
  /// compact() in event_queue.cpp). Exported as `sim.eq_compactions`.
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }

 private:
  // Near tier: a 4-ary min-heap of 128-bit keys, the time in the high
  // half and the tie in the low half, so one integer compare orders them
  // by (at, seq). The tie is the scheduling sequence above the slab slot:
  // each sequence is unique, and the slot finds the entry.
  using Key = unsigned __int128;
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kSlotBits);
  static constexpr Key make_key(Time at, std::uint64_t tie) noexcept {
    return Key{at} << 64 | tie;
  }
  static constexpr Time key_at(Key k) noexcept {
    return static_cast<Time>(k >> 64);
  }
  static constexpr std::uint32_t key_slot(Key k) noexcept {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) &
                                      kSlotMask);
  }
  void near_push(Key k, Entry& e);
  void near_pop();
  void near_heapify();

  // Far tier: bucket b holds the events with (at >> kBucketShift) % 4096
  // == b, for any number of ring turns ahead, as a singly linked list
  // through the entries. Everything below the horizon bucket is in the
  // near tier, everything at or past it in the far tier.
  static constexpr int kBucketShift = 14;
  static constexpr std::uint64_t kBucketCount = 1u << 12;
  static constexpr std::uint64_t kBucketMask = kBucketCount - 1;
  // The horizon stays at least this many buckets past the clock's bucket.
  static constexpr std::uint64_t kLead = 2;
  static constexpr std::uint64_t bucket_of(Time at) noexcept {
    return at >> kBucketShift;
  }

  // Occupancy bitmap: bit i of occ_ is set iff far bucket i is non-empty
  // (cancelled entries included); bit w of occ_summary_ is set iff
  // occ_[w] is non-zero.
  static constexpr std::size_t kOccWords = kBucketCount / 64;
  static_assert(kOccWords <= 64, "one summary bit per bitmap word");
  void mark_occupied(std::uint64_t idx) noexcept;
  void mark_empty(std::uint64_t idx) noexcept;
  [[nodiscard]] bool occupied(std::uint64_t idx) const noexcept;
  [[nodiscard]] std::uint64_t next_occupied(std::uint64_t idx) const noexcept;
  template <typename F>
  void for_each_occupied(F&& f);

  void far_push(std::uint32_t slot, Time at);
  void pour(std::uint64_t bn);
  void pour_until(std::uint64_t target);
  bool refill(bool bounded, Time limit);
  [[nodiscard]] std::uint64_t earliest_far_bucket();

  // A queued entry with an empty callback reads as cancelled, so an empty
  // callback is refused before anything is queued.
  static void require_callable(bool callable);

  // Queue a fresh entry and return its empty callback for the caller to
  // build in place. The one commit routine behind schedule_at and post_at.
  Callback& claim(Time at);
  Callback& claim_slow(Time at);
  // Count the entry claim() just returned, still empty, as cancelled.
  void unclaim() noexcept;
  std::uint64_t stamp(Entry& e, std::uint32_t slot, Time at);

  bool pop_and_run(bool bounded, Time limit);
  void reclaim_all();
  void compact();

  // Slab: pooled entries in chunks that never move, recycled through a
  // free list. Chunk k holds 256 << k entries, so the table of 17 chunks
  // covers every 24-bit slot number and fits in the queue object itself.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr int kFirstChunkShift = 8;
  static constexpr int kChunks = 17;
  [[nodiscard]] Entry& entry(std::uint32_t slot) const noexcept;
  std::uint32_t grow_slab();
  void push_free(std::uint32_t slot, Entry& e);
  std::uint32_t pop_free();
  void free_slot(std::uint32_t slot);

  // The fields every event touches, in the queue's first two cache lines.
  Time now_ = 0;
  Time cur_scheduled_at_ = kNotExecuting;
  std::uint64_t cur_seq_ = kAfterAll;
  std::uint64_t next_seq_ = 0;
  std::unique_ptr<Key[]> near_;  // heap storage, sized with the slab
  Entry* top_ = nullptr;         // the entry of near_[0]
  Entry* free_ = nullptr;        // the entry of free_head_
  std::uint32_t near_size_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;           // pending (non-cancelled) events
  std::size_t cancelled_ = 0;      // cancelled entries not yet reclaimed
  std::uint64_t horizon_ = kLead;  // first bucket number of the far tier
  std::uint64_t executed_ = 0;
  Checks* checks_ = nullptr;
  std::uint32_t slots_ = 0;  // slots handed out so far
  std::uint32_t near_cap_ = 0;
  std::array<Entry*, kChunks> chunk_{};

  std::size_t far_size_ = 0;  // entries in the far tier
  std::unique_ptr<std::uint32_t[]> heads_;  // far bucket lists
  std::uint64_t occ_summary_ = 0;
  std::array<std::uint64_t, kOccWords> occ_{};
  std::uint64_t compactions_ = 0;
  // Last, so Handles go inert before the entries are destroyed.
  std::shared_ptr<Slab> slab_;
};

}  // namespace myri::sim
