// Calendar-queue event core: determinism and safety pins.
//
// The EventQueue rewrite (calendar buckets + overflow heap + pooled slab
// entries) must be observably identical to the binary heap it replaced:
// execution order is defined purely by (timestamp, sequence). These tests
// pin FIFO order across every internal boundary (bucket edges, ring wrap,
// overflow migration), cancellation/compaction behaviour, generation-
// counter handle safety, randomized differential checks against a naive
// reference model (dense and sparse timelines), and finally a full 64-node chaos scenario whose digest
// was captured on the pre-rewrite heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "faultinject/scenario.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace myri::sim {
namespace {

// Bucket geometry mirrored from event_queue.hpp (256 ns × 4096 buckets).
constexpr Time kBucketWidth = 256;
constexpr Time kRingSpan = kBucketWidth * 4096;

TEST(EventQueueCalendar, EqualTimestampFifoAcrossBucketBoundaries) {
  EventQueue eq;
  std::vector<int> order;
  int tag = 0;
  // Same-timestamp groups straddling a bucket edge, the ring-wrap span
  // and the overflow horizon, scheduled in interleaved time order so
  // bucket placement cannot accidentally encode arrival order.
  const Time spots[] = {kBucketWidth - 1, kBucketWidth,     kBucketWidth + 1,
                        kRingSpan - 1,    kRingSpan,        kRingSpan + 1,
                        3 * kRingSpan,    3 * kRingSpan + 1};
  for (int rep = 0; rep < 4; ++rep) {
    for (const Time t : spots) {
      eq.schedule_at(t, [&order, id = tag++] { order.push_back(id); });
    }
  }
  eq.run();
  // Expected: sort tags by (time, scheduling sequence). Tag encodes the
  // sequence; its spot index encodes the time.
  std::vector<std::pair<Time, int>> want;
  for (int id = 0; id < tag; ++id) want.push_back({spots[id % 8], id});
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(order.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(order[i], want[i].second) << "position " << i;
  }
}

TEST(EventQueueCalendar, CallbackSchedulingAtNowRunsBehindItsPeers) {
  // An event scheduled from inside a callback at the current timestamp
  // lands in the bucket being drained; it must still run after every
  // already-pending event of that timestamp (higher sequence).
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(100, [&] {
    order.push_back(0);
    eq.schedule_after(0, [&] { order.push_back(9); });
  });
  eq.schedule_at(100, [&] { order.push_back(1); });
  eq.schedule_at(100, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(EventQueueCalendar, CompactionEvictsCancelledEntries) {
  EventQueue eq;
  int fired = 0;
  std::vector<EventQueue::Handle> doomed;
  // 4000 events far out, most cancelled: the cancelled population must
  // cross the compaction threshold (1024 dead and dead >= live) and be
  // swept without disturbing the survivors' order.
  std::vector<int> order;
  for (int i = 0; i < 4000; ++i) {
    const Time at = 1000 + static_cast<Time>(i) * 100;
    if (i % 8 == 0) {
      eq.schedule_at(at, [&order, i] { order.push_back(i); });
    } else {
      doomed.push_back(eq.schedule_at(at, [&fired] { ++fired; }));
    }
  }
  for (auto& h : doomed) h.cancel();
  EXPECT_GE(eq.cancelled_pending(), 1024u);
  // Scheduling after the mass-cancel is what triggers the sweep.
  eq.schedule_at(5'000'000, [&order] { order.push_back(-1); });
  EXPECT_GE(eq.compactions(), 1u);
  EXPECT_EQ(eq.cancelled_pending(), 0u);
  eq.run();
  EXPECT_EQ(fired, 0);
  ASSERT_EQ(order.size(), 501u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i) * 8);
  }
  EXPECT_EQ(order.back(), -1);
}

TEST(EventQueueCalendar, CancelDuringCompactedDrainIsSafe) {
  // Cancelling from inside a callback while earlier mass-cancellation
  // already compacted must neither fire the cancelled event nor corrupt
  // the queue (the old failure mode for stale-slot reuse).
  EventQueue eq;
  bool late_ran = false;
  std::vector<EventQueue::Handle> doomed;
  for (int i = 0; i < 3000; ++i) {
    doomed.push_back(eq.schedule_at(10'000 + i, [] {}));
  }
  EventQueue::Handle victim;
  eq.schedule_at(500, [&] { victim.cancel(); });
  victim = eq.schedule_at(20'000'000, [&] { late_ran = true; });
  for (auto& h : doomed) h.cancel();
  eq.schedule_at(600, [] {});  // trigger compaction
  EXPECT_GE(eq.compactions(), 1u);
  eq.run();
  EXPECT_FALSE(late_ran);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueueCalendar, HandleOutlivesQueue) {
  EventQueue::Handle h;
  {
    EventQueue eq;
    h = eq.schedule_at(50, [] {});
    EXPECT_TRUE(h.pending());
  }
  // The queue (and its slab) are gone: the handle must go inert, not
  // dangle.
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(EventQueueCalendar, StaleHandleCannotCancelARecycledSlot) {
  EventQueue eq;
  bool second_ran = false;
  auto h1 = eq.schedule_at(10, [] {});
  eq.run();  // slot freed, generation bumped
  auto h2 = eq.schedule_at(20, [&] { second_ran = true; });
  h1.cancel();  // stale generation: must not touch h2's event
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
  eq.run();
  EXPECT_TRUE(second_ran);
}

// ---- closures run in place -------------------------------------------------
//
// A closure is built in its slab entry and runs there; the slot rejoins
// the free list only after the callback returns. These pin what that
// must not change: the closure's storage stays put while the callback
// grows the pool, the running event's own Handle is inert, nothing the
// callback schedules reuses its slot, and equal-timestamp order.

TEST(EventQueueInPlace, CallbackGrowsTheSlabThenReadsItsCaptures) {
  struct Ctx {
    EventQueue eq;
    std::array<std::uint64_t, 16> want{};
    int children = 0;
    bool checked = false;
  } ctx;
  std::array<std::uint64_t, 16> pattern{};  // 128 bytes: a Packet's size
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
  }
  ctx.want = pattern;
  auto shared = std::make_shared<std::vector<int>>(64, 7);
  auto body = [c = &ctx, pattern, shared] {
    // Thousands of live events: the pool grows by many chunks while this
    // closure is still running from its own entry.
    for (int i = 0; i < 5000; ++i) {
      c->eq.post_after(1 + static_cast<Time>(i), [c] { ++c->children; });
    }
    EXPECT_EQ(pattern, c->want);
    ASSERT_EQ(shared->size(), 64u);
    EXPECT_EQ(shared->front() + shared->back(), 14);
    c->checked = true;
  };
  // 152 bytes: the closure itself lives in the slab entry, not behind a
  // heap pointer, so only stable entries keep its captures in place.
  static_assert(EventQueue::Callback::fits_inline<decltype(body)>());
  ctx.eq.schedule_at(10, std::move(body));
  ctx.eq.run();
  EXPECT_TRUE(ctx.checked);
  EXPECT_EQ(ctx.children, 5000);
  EXPECT_TRUE(ctx.eq.empty());
}

TEST(EventQueueInPlace, RunningEventsOwnHandleIsInert) {
  EventQueue eq;
  EventQueue::Handle self;
  int others = 0;
  bool ran = false;
  self = eq.schedule_at(100, [&] {
    EXPECT_FALSE(self.pending());
    const std::size_t before = eq.pending_events();
    self.cancel();  // a no-op: must not touch the queue's counts
    EXPECT_EQ(eq.pending_events(), before);
    EXPECT_EQ(eq.cancelled_pending(), 0u);
    eq.post_after(0, [&others] { ++others; });
    EXPECT_EQ(eq.pending_events(), before + 1);
    ran = true;
  });
  eq.schedule_at(100, [&others] { ++others; });
  EXPECT_TRUE(self.pending());
  eq.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(others, 2);
  EXPECT_FALSE(self.pending());
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueueInPlace, SelfReschedulingNeverReusesItsRunningSlot) {
  // Each generation schedules its successor, then reads its own captures.
  // Were the successor built in the running slot, it would overwrite this
  // closure's tag and free its vector (ASan reports the use after free).
  EventQueue eq;
  std::vector<std::uint64_t> seen;
  struct Step {
    EventQueue* eq;
    std::vector<std::uint64_t>* seen;
    std::uint64_t tag;
    std::vector<std::uint64_t> history;
    void operator()() {
      if (tag < 40) {
        Step next{eq, seen, tag + 1, history};
        next.history.push_back(tag);
        eq->post_after(tag % 3, std::move(next));
      }
      EXPECT_EQ(history.size(), tag);
      for (std::size_t i = 0; i < history.size(); ++i) {
        EXPECT_EQ(history[i], i);
      }
      seen->push_back(tag);
    }
  };
  eq.post_at(5, Step{&eq, &seen, 0, {}});
  eq.run();
  ASSERT_EQ(seen.size(), 41u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(EventQueueInPlace, RunOnceDestroysTheClosureAsTheCallReturns) {
  // One indirect call runs the closure and destroys it: inline and heap-
  // held closures alike, and also when the call throws.
  auto token = std::make_shared<int>(7);
  long seen = 0;
  EventQueue::Callback small([token, &seen] { seen = token.use_count(); });
  small.run_once();
  EXPECT_EQ(seen, 2);  // the closure's copy lived through the call
  EXPECT_FALSE(small);
  EXPECT_EQ(token.use_count(), 1);

  const std::array<std::uint64_t, 32> pad{};  // 256 bytes: held on the heap
  auto big = [token, pad, &seen] {
    seen = token.use_count() + static_cast<long>(pad[0]);
  };
  static_assert(!EventQueue::Callback::fits_inline<decltype(big)>());
  EventQueue::Callback large(std::move(big));
  large.run_once();
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(token.use_count(), 1);

  EventQueue::Callback thrower([token] { throw std::runtime_error("boom"); });
  EXPECT_THROW(thrower.run_once(), std::runtime_error);
  EXPECT_FALSE(thrower);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueInPlace, EmptyCallbacksAreRefusedBeforeAnythingIsQueued) {
  // A queued entry with an empty callback would read as cancelled and
  // unbalance the live and cancelled counts.
  EventQueue eq;
  EXPECT_THROW(eq.schedule_at(10, EventQueue::Callback{}),
               std::invalid_argument);
  EXPECT_THROW(eq.post_at(10, EventQueue::Callback{}), std::invalid_argument);
  EXPECT_TRUE(eq.empty());
  EXPECT_EQ(eq.cancelled_pending(), 0u);
  bool ran = false;
  eq.post_at(20, [&ran] { ran = true; });
  EXPECT_EQ(eq.run(), 1u);
  EXPECT_TRUE(ran);
}

TEST(EventQueueInPlace, ThrowingClosureCopyLeavesTheLiveCountAsItWas) {
  // post_at builds the closure in an entry it has already queued. When
  // copying the closure throws, that entry stays behind as a cancelled
  // one: the live count is as before, and the entry is reclaimed like any
  // other cancelled one.
  struct Throws {
    Throws() = default;
    Throws(const Throws&) { throw std::runtime_error("copy"); }
    void operator()() const {}
  };
  EventQueue eq;
  bool ran = false;
  eq.post_at(10, [&ran] { ran = true; });
  const Throws t;
  EXPECT_THROW(eq.post_at(5, t), std::runtime_error);
  EXPECT_EQ(eq.pending_events(), 1u);
  EXPECT_EQ(eq.cancelled_pending(), 1u);
  EXPECT_EQ(eq.run(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(eq.empty());
  EXPECT_EQ(eq.cancelled_pending(), 0u);
}

TEST(EventQueueInPlace, EqualTimestampOrderMatchesTheCopyingQueue) {
  // Equal-timestamp waves on both sides of a bucket edge whose events
  // schedule children at now and one bucket later, and cancel a
  // neighbour. The order was recorded
  // on the queue that moved each closure out of its slot before running
  // it; running in place and recycling the slot afterwards must not move
  // a single event.
  EventQueue eq;
  std::vector<int> order;
  std::vector<EventQueue::Handle> handles;
  int next_id = 0;
  std::function<void(Time)> spawn;
  spawn = [&](Time at) {
    const int id = next_id++;
    handles.push_back(eq.schedule_at(at, [&, id] {
      order.push_back(id);
      if (next_id < 120) {
        if (id % 3 == 0) spawn(eq.now());
        if (id % 2 == 0) spawn(eq.now() + kBucketWidth);
      }
      if (id % 7 == 3 && static_cast<std::size_t>(id + 1) < handles.size()) {
        handles[id + 1].cancel();
      }
    }));
  };
  for (const Time t : {Time{1000}, Time{1000}, Time{1023}, Time{1024}}) {
    for (int k = 0; k < 5; ++k) spawn(t);
  }
  eq.run();
  const std::vector<int> want = {
      0, 1, 2, 3, 5, 6, 7, 8, 9, 20, 23, 24, 27, 29, 31, 10, 12, 13, 14, 33,
      36, 37, 15, 16, 17, 19, 39, 41, 21, 22, 26, 28, 30, 42, 46, 48, 51, 53,
      32, 34, 35, 38, 40, 43, 44, 45, 47, 49, 50, 52, 59, 54, 55, 56, 62, 57,
      66, 58, 61, 63, 64, 65, 70, 68, 69, 74, 71, 72, 76, 73, 75, 79, 77, 78,
      80, 82, 83};
  EXPECT_EQ(order, want);
}

// Naive reference model for the differential tests: every scheduled
// event with its (at, seq), the clock when it was scheduled, and whether
// it was cancelled. The queue under test must fire exactly the
// uncancelled events, in (at, seq) order, each at its time and reporting
// its scheduling time through current_scheduled_at(); after run_until(t)
// exactly those due by t must have fired. An event may carry a hook that
// runs inside it, to schedule or cancel from a callback.
class Differential {
 public:
  using Hook = std::function<void(Differential&)>;

  EventQueue& eq() { return eq_; }
  [[nodiscard]] std::size_t scheduled() const { return ref_.size(); }

  std::size_t schedule(Time at, Hook hook = nullptr) {
    const std::uint64_t s = ref_.size();
    ref_.push_back({std::max(at, eq_.now()), s, eq_.now()});
    hooks_.push_back(std::move(hook));
    handles_.push_back(eq_.schedule_at(at, [this, s] { fire(s); }));
    return s;
  }

  // Cancel event k if it is still pending (a fired or already cancelled
  // pick is a deliberate no-op on both sides).
  void cancel(std::size_t k) {
    if (handles_[k].pending()) {
      handles_[k].cancel();
      ref_[k].cancelled = true;
    }
  }

  void run_until(Time t) {
    eq_.run_until(t);
    ASSERT_EQ(eq_.now(), t);
    std::size_t due = 0;
    for (const Ref& r : ref_) due += !r.cancelled && r.at <= t;
    ASSERT_EQ(fired_.size(), due) << "run_until(" << t << ")";
  }

  void finish() {
    eq_.run();
    std::vector<Ref> want;
    for (const Ref& r : ref_) {
      if (!r.cancelled) want.push_back(r);
    }
    std::sort(want.begin(), want.end(), [](const Ref& a, const Ref& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    });
    ASSERT_EQ(fired_.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(fired_[i], want[i].seq) << "divergence at event " << i;
    }
    EXPECT_EQ(eq_.executed(), fired_.size());
    EXPECT_TRUE(eq_.empty());
  }

 private:
  struct Ref {
    Time at;
    std::uint64_t seq;
    Time scheduled_at;
    bool cancelled = false;
  };

  void fire(std::uint64_t s) {
    fired_.push_back(s);
    EXPECT_EQ(eq_.now(), ref_[s].at) << "event " << s;
    EXPECT_EQ(eq_.current_scheduled_at(), ref_[s].scheduled_at)
        << "event " << s;
    if (hooks_[s]) {
      const Hook hook = hooks_[s];  // the hook may grow hooks_
      hook(*this);
    }
  }

  EventQueue eq_;
  std::vector<Ref> ref_;
  std::vector<Hook> hooks_;
  std::vector<EventQueue::Handle> handles_;
  std::vector<std::uint64_t> fired_;  // seq order actually observed
};

TEST(EventQueueCalendar, DifferentialAgainstReferenceModel) {
  // Random schedule/cancel/run_until workload, mirrored against a naive
  // (at, seq)-sorted reference. Any divergence in firing order or count
  // is a determinism regression.
  Rng rng(2026);
  Differential d;
  Time vnow = 0;
  for (int round = 0; round < 200; ++round) {
    const int burst = 1 + static_cast<int>(rng.below(20));
    for (int i = 0; i < burst; ++i) {
      // Mix of near (same bucket), mid (ring) and far (overflow) events,
      // plus exact duplicates of the current time.
      const std::uint64_t r = rng.below(100);
      Time at = vnow;
      if (r < 20) {
        at = vnow + rng.below(64);
      } else if (r < 70) {
        at = vnow + rng.below(200'000);
      } else {
        at = vnow + rng.below(20'000'000);
      }
      d.schedule(at);
    }
    for (int i = 0; i < 3; ++i) d.cancel(rng.below(d.scheduled()));
    vnow += rng.below(300'000);
    d.run_until(vnow);
  }
  d.finish();
}

// A random gap of whole buckets plus an offset inside the last one: from
// the same bucket to several ring horizons, with the edges of a bitmap
// word (63/64/65) and of the ring (4095/4096/4097) called out.
Time sparse_gap(Rng& rng) {
  static constexpr Time kBuckets[] = {0,    1,    2,        63,
                                      64,   65,   1000,     4095,
                                      4096, 4097, 2 * 4096 + 17,
                                      5 * 4096};
  const Time b = kBuckets[rng.below(std::size(kBuckets))];
  return b * kBucketWidth + rng.below(kBucketWidth);
}

TEST(EventQueueCalendar, SparseTimelineDifferential) {
  // Few events separated by long empty stretches: the cursor jumps over
  // empty buckets, wraps the ring, rebases onto the overflow, and parks
  // at run_until limits that land inside empty stretches, after which
  // late inserts arrive ahead of everything still queued.
  Rng rng(4096);
  Differential d;
  Time vnow = 0;
  for (int round = 0; round < 400; ++round) {
    const int burst = static_cast<int>(rng.below(4));
    for (int i = 0; i < burst; ++i) d.schedule(vnow + sparse_gap(rng));
    if (rng.below(4) == 0) d.cancel(rng.below(d.scheduled()));
    vnow += sparse_gap(rng);
    d.run_until(vnow);
    // Late inserts right behind the parked cursor.
    if (rng.below(2) == 0) d.schedule(vnow + rng.below(3 * kBucketWidth));
  }
  d.finish();
}

TEST(EventQueueCalendar, SparseTimelineWithMassCancellation) {
  // Sparse arrivals plus rounds that cancel most of what is pending:
  // compaction empties buckets while later buckets (and the overflow)
  // still hold live events, and rounds that cancel everything leave the
  // queue live-empty so the next run_until reclaims every dead entry.
  Rng rng(77);
  Differential d;
  Time vnow = 0;
  for (int round = 0; round < 60; ++round) {
    const int burst = 600 + static_cast<int>(rng.below(600));
    for (int i = 0; i < burst; ++i) d.schedule(vnow + sparse_gap(rng));
    const std::uint64_t mode = rng.below(10);
    if (mode < 2) {
      for (std::size_t k = 0; k < d.scheduled(); ++k) {
        if (rng.below(10) < 9) d.cancel(k);
      }
    } else if (mode < 3) {
      for (std::size_t k = 0; k < d.scheduled(); ++k) d.cancel(k);
    }
    vnow += sparse_gap(rng);
    d.run_until(vnow);
  }
  EXPECT_GE(d.eq().compactions(), 1u);
  d.finish();
}

TEST(EventQueueCalendar, CursorWrapsFromBucket4095ToBucket0) {
  EventQueue eq;
  std::vector<int> order;
  const auto push = [&order](int v) {
    return [&order, v] { order.push_back(v); };
  };
  eq.schedule_at(4095 * kBucketWidth + 10, push(0));
  eq.run_until(4095 * kBucketWidth);  // cursor parked on ring slot 4095
  EXPECT_TRUE(order.empty());
  // Ring slot 0 is the next bucket number (4096); slot 4094 is the last
  // bucket of the window, behind the cursor's own slot.
  eq.schedule_at((4096 + 4094) * kBucketWidth, push(3));
  eq.schedule_at(4096 * kBucketWidth + 5, push(2));
  eq.schedule_at(4095 * kBucketWidth + 200, push(1));
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueCalendar, WrapFindsAnEarlierSlotOfTheCursorsOwnWord) {
  // Cursor on slot 4033 (bitmap word 63, bit 1); the only other occupied
  // slot is 4032 (same word, bit 0), a full ring later. The search must
  // wrap around the whole ring back into the cursor's own word.
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(4033 * kBucketWidth + 1, [&] { order.push_back(0); });
  eq.run_until(4033 * kBucketWidth);
  eq.schedule_at((4096 + 4032) * kBucketWidth + 7,
                 [&] { order.push_back(1); });
  eq.run_until((4096 + 4000) * kBucketWidth);  // park mid-stretch
  EXPECT_EQ(order, (std::vector<int>{0}));
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(eq.now(), (4096 + 4032) * kBucketWidth + 7);
}

TEST(EventQueueCalendar, CompactionEmptiesEarlyBucketsAheadOfLiveOnes) {
  // Cancelled entries fill the early buckets; live ones sit in later
  // buckets and in the overflow. Compaction must empty the early buckets
  // completely, so the cursor skips them rather than landing on one.
  EventQueue eq;
  std::vector<int> order;
  std::vector<EventQueue::Handle> doomed;
  for (int i = 0; i < 2000; ++i) {
    doomed.push_back(eq.schedule_at(static_cast<Time>(i % 50) * kBucketWidth,
                                    [&order] { order.push_back(-1); }));
  }
  eq.schedule_at(3000 * kBucketWidth, [&order] { order.push_back(1); });
  eq.schedule_at(3 * kRingSpan, [&order] { order.push_back(2); });
  for (auto& h : doomed) h.cancel();
  eq.schedule_at(2000 * kBucketWidth, [&order] { order.push_back(0); });
  EXPECT_GE(eq.compactions(), 1u);
  EXPECT_EQ(eq.cancelled_pending(), 0u);
  EXPECT_EQ(eq.run_until(1000 * kBucketWidth), 0u);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueCalendar, ParkedCursorStillMigratesTheOverflow) {
  // run_until parks the cursor at its limit's bucket when the next
  // occupied bucket lies beyond it; the overflow must migrate right then.
  // Here the ring entries that would otherwise pull the overflow in on
  // the next jump are cancelled and compacted away, and a late insert
  // lands in the ring beyond the overflow event: that event must still
  // run first.
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(5000 * kBucketWidth, [&order] { order.push_back(0); });
  std::vector<EventQueue::Handle> doomed;
  for (int i = 0; i < 1100; ++i) {
    doomed.push_back(eq.schedule_at(4000 * kBucketWidth, [&order] {
      order.push_back(-1);
    }));
  }
  EXPECT_EQ(eq.run_until(3000 * kBucketWidth), 0u);  // parks at 3000
  for (auto& h : doomed) h.cancel();
  eq.schedule_at(6000 * kBucketWidth, [&order] { order.push_back(1); });
  EXPECT_GE(eq.compactions(), 1u);
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(eq.now(), 6000 * kBucketWidth);
}

TEST(EventQueueCalendar, ReclaimAllResetsEveryBucket) {
  // Cancelling every pending event makes the next run reclaim the dead
  // entries wherever they sit (current bucket, later buckets, overflow).
  // The same slots then take fresh events that must fire normally.
  EventQueue eq;
  std::vector<EventQueue::Handle> dead;
  for (const Time b : {Time{5}, Time{100}, Time{4000}, Time{3 * 4096}}) {
    dead.push_back(eq.schedule_at(b * kBucketWidth, [] { FAIL(); }));
  }
  for (auto& h : dead) h.cancel();
  EXPECT_EQ(eq.run_until(200 * kBucketWidth), 0u);
  EXPECT_EQ(eq.cancelled_pending(), 0u);
  std::vector<int> order;
  eq.schedule_at(4000 * kBucketWidth, [&order] { order.push_back(1); });
  eq.schedule_at(201 * kBucketWidth, [&order] { order.push_back(0); });
  eq.schedule_at(3 * kRingSpan, [&order] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueCalendar, RunUntilThenLateInsertKeepsOrder) {
  // run_until() can leave the cursor parked mid-ring; a later insert at
  // a nearer time must still fire before everything already queued.
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(10'000'000, [&] { order.push_back(2); });
  eq.run_until(5'000'000);
  eq.schedule_at(6'000'000, [&] { order.push_back(1); });
  eq.schedule_after(0, [&] { order.push_back(0); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eq.now(), 10'000'000u);
}

// ---- two tiers: near heap and far calendar ---------------------------------
//
// Every event due before the horizon waits in the near heap; the horizon
// stays at least two 16 384 ns buckets past the clock's bucket. Later
// events wait in the far calendar of 4096 such buckets, any number of ring
// turns ahead, and are poured into the heap as the horizon reaches them.
// Geometry mirrored from event_queue.hpp; every schedule below is checked
// against the reference model for order and current_scheduled_at().
constexpr Time kFarBucket = Time{1} << 14;
constexpr Time kFarTurn = kFarBucket * 4096;

// A time within a few ns of an edge the tiers care about, seen from `now`:
// the bucket edges one to four buckets ahead (the horizon moves among
// them), the next ring turn, and later turns.
Time tier_edge(Rng& rng, Time now) {
  static constexpr Time kAhead[] = {1, 2, 3, 4, 4096, 4097, 2 * 4096 + 1,
                                    3 * 4096};
  const Time edge =
      (now / kFarBucket + kAhead[rng.below(std::size(kAhead))]) * kFarBucket;
  return edge + rng.below(7) - 3;
}

TEST(EventQueueTiers, EventsStraddlingTheNearFarBoundary) {
  Rng rng(11);
  Differential d;
  Time vnow = 0;
  for (int round = 0; round < 300; ++round) {
    const int burst = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < burst; ++i) d.schedule(tier_edge(rng, vnow));
    // Steps to an edge move the horizon one bucket at a time or in jumps.
    vnow = rng.below(3) == 0 ? tier_edge(rng, vnow)
                             : vnow + rng.below(2 * kFarBucket);
    d.run_until(vnow);
  }
  d.finish();
}

TEST(EventQueueTiers, AtNowInsertsFromCallbacksInBothTiers) {
  // Events spawn children at their own time (behind their equal-timestamp
  // peers), inside and just past the horizon, and a ring turn ahead, whose
  // own children then run from a far-tier pour. Some seeds share one far
  // timestamp, so poured peers and their at-now children interleave.
  Rng rng(12);
  Differential d;
  int budget = 5000;
  Differential::Hook spawn = [&](Differential& x) {
    const Time now = x.eq().now();
    const int kids = static_cast<int>(rng.below(3));
    for (int i = 0; i < kids && budget > 0; ++i, --budget) {
      switch (rng.below(4)) {
        case 0:
          x.schedule(now, spawn);
          break;
        case 1:
          x.schedule(now + rng.below(kFarBucket), spawn);
          break;
        case 2:
          x.schedule(tier_edge(rng, now), spawn);
          break;
        default:
          x.schedule(now + kFarTurn + rng.below(kFarBucket), spawn);
          break;
      }
    }
  };
  for (int i = 0; i < 50; ++i) d.schedule(rng.below(4 * kFarBucket), spawn);
  for (int i = 0; i < 5; ++i) d.schedule(kFarTurn + 100, spawn);
  for (int i = 0; i < 20; ++i) {
    d.schedule(kFarTurn * (1 + rng.below(3)) + rng.below(kFarBucket), spawn);
  }
  d.finish();
  EXPECT_EQ(budget, 0);
}

TEST(EventQueueTiers, CancelsOfNearAndFarEvents) {
  // Cancels from outside and from callbacks hit events in the heap, in the
  // calendar and a ring turn ahead; cancelled far entries are dropped when
  // their bucket is poured, cancelled near ones when they reach the top.
  Rng rng(13);
  Differential d;
  Time vnow = 0;
  const Differential::Hook cancel_one = [&rng](Differential& x) {
    x.cancel(rng.below(x.scheduled()));
  };
  for (int round = 0; round < 200; ++round) {
    const int burst = 1 + static_cast<int>(rng.below(12));
    for (int i = 0; i < burst; ++i) {
      const std::uint64_t r = rng.below(3);
      const Time at = r == 0   ? vnow + rng.below(kFarBucket)
                      : r == 1 ? vnow + rng.below(2 * kFarTurn)
                               : tier_edge(rng, vnow);
      d.schedule(at, rng.below(4) == 0 ? cancel_one : nullptr);
    }
    for (int i = 0; i < 3; ++i) d.cancel(rng.below(d.scheduled()));
    vnow += rng.below(4 * kFarBucket);
    d.run_until(vnow);
  }
  d.finish();
}

TEST(EventQueueTiers, CompactionWithBothTiersPopulated) {
  // Mass cancellation across the heap and the calendar (this turn and
  // later ones) crosses the compaction threshold; the sweep must empty
  // both tiers of dead entries and leave the survivors' order alone.
  Differential d;
  d.run_until(kFarBucket / 2);
  for (int i = 0; i < 3000; ++i) {
    const Time at = i % 3 == 0 ? kFarBucket / 2 + static_cast<Time>(i) * 7
                               : static_cast<Time>(3 + (i * 37) % 9000) *
                                         kFarBucket +
                                     static_cast<Time>(i);
    d.schedule(at);
  }
  for (std::size_t k = 0; k < d.scheduled(); ++k) {
    if (k % 10 != 0) d.cancel(k);
  }
  EXPECT_EQ(d.eq().compactions(), 0u);
  EXPECT_GE(d.eq().cancelled_pending(), 1024u);
  d.schedule(kFarBucket);  // the next schedule sweeps
  EXPECT_EQ(d.eq().compactions(), 1u);
  EXPECT_EQ(d.eq().cancelled_pending(), 0u);
  d.run_until(3 * kFarBucket);
  d.finish();
}

TEST(EventQueueTiers, BoundedRunsParkInEmptyStretches) {
  // Sparse far events with bounded runs whose limits land in empty
  // stretches, inside a queued event's bucket but before it, and exactly
  // on it; late inserts then arrive ahead of everything still queued.
  Rng rng(14);
  Differential d;
  Time vnow = 0;
  for (int round = 0; round < 300; ++round) {
    if (rng.below(3) == 0) {
      d.schedule(vnow + kFarBucket * (2 + rng.below(3 * 4096)) +
                 rng.below(kFarBucket));
    }
    switch (rng.below(3)) {
      case 0:
        vnow += rng.below(kFarBucket);
        break;
      case 1:
        vnow = tier_edge(rng, vnow);
        break;
      default:
        vnow += kFarBucket * rng.below(2 * 4096);
        break;
    }
    d.run_until(vnow);
    d.schedule(vnow + rng.below(3));
    if (rng.below(2) == 0) d.schedule(vnow + rng.below(2 * kFarBucket));
  }
  d.finish();
}

TEST(EventQueueTiers, HorizonCrossingDuringABoundedRun) {
  // One run_until whose limit lies buckets past the horizon: the horizon
  // moves inside the run, and callbacks in that run schedule on both
  // sides of it, into a bucket already holding a later event, and a ring
  // turn ahead into the same bucket index.
  Differential d;
  const Time t0 = 10 * kFarBucket;
  d.schedule(5 * kFarBucket + 3, [t0](Differential& x) {
    x.schedule(t0 + 2);
    x.schedule(x.eq().now());
  });
  d.schedule(t0 - 1, [](Differential& x) {
    x.schedule(x.eq().now() + kFarBucket);
    x.schedule(x.eq().now());
    x.schedule(x.eq().now() + 1);
  });
  d.schedule(t0);
  d.schedule(t0 + 1);
  d.schedule(12 * kFarBucket - 1);
  d.schedule(t0 + kFarTurn);
  d.run_until(t0 + 1);  // t0 + 2, same bucket, stays queued
  d.run_until(11 * kFarBucket + 5);
  d.finish();
}

TEST(EventQueueTiers, EqualTimestampOrderAcrossTheTiersMatchesTheParent) {
  // Equal-timestamp waves on both sides of the initial horizon and a ring
  // turn on, whose events spawn children at now, one bucket on and one
  // turn on, and cancel neighbours. The order was recorded on the queue
  // this one replaced (one sorted 256 ns calendar with an overflow heap).
  EventQueue eq;
  std::vector<int> order;
  std::vector<EventQueue::Handle> handles;
  int next_id = 0;
  std::function<void(Time)> spawn;
  spawn = [&](Time at) {
    const int id = next_id++;
    handles.push_back(eq.schedule_at(at, [&, id] {
      order.push_back(id);
      if (next_id < 160) {
        if (id % 3 == 0) spawn(eq.now());
        if (id % 4 == 1) spawn(eq.now() + kFarBucket);
        if (id % 5 == 2) spawn(eq.now() + kFarTurn);
      }
      if (id % 7 == 3 && static_cast<std::size_t>(id + 1) < handles.size()) {
        handles[id + 1].cancel();
      }
      if (id % 11 == 5 && id >= 2) handles[id - 2].cancel();
    }));
  };
  for (const Time t : {2 * kFarBucket - 1, 2 * kFarBucket - 1, 2 * kFarBucket,
                       2 * kFarBucket + 1, kFarTurn + 2 * kFarBucket}) {
    for (int k = 0; k < 4; ++k) spawn(t);
  }
  eq.run();
  const std::vector<int> want = {
      0, 1, 2, 3, 5, 6, 7, 20, 23, 25, 8, 9, 10, 28, 12, 13, 14, 15, 30,
      33, 34, 35, 21, 24, 27, 37, 39, 40, 44, 29, 32, 36, 47, 38, 42,
      49, 45, 52, 51, 55, 22, 26, 16, 17, 19, 31, 41, 43, 57, 60, 63,
      64, 48, 65, 50, 59, 54, 61, 67, 66, 70, 68, 56, 62, 69, 72, 74,
      73, 76, 71, 75, 77, 78, 80, 79};
  EXPECT_EQ(order, want);
}

// ---- digest stability across the queue rewrite ---------------------------

TEST(EventQueueCalendar, PinnedChaosScenarioDigestIsUnchanged) {
  // This digest was captured on the pre-rewrite shared_ptr binary-heap
  // EventQueue for the pinned 64-node fat-tree hang scenario below. The
  // calendar queue must reproduce it bit-identically: if this fails, the
  // rewrite changed equal-timestamp execution order somewhere.
  constexpr std::uint64_t kHeapDigest = 0xd367e149968f9e52ULL;

  fi::Scenario s;
  s.seed = 7;
  s.nodes = 64;
  s.fabric = net::FabricPreset::kFatTree;
  s.msgs = 60;
  s.msg_len = 1500;
  s.drop = 0.02;
  s.corrupt = 0.01;
  fi::ScenarioEvent hang;
  hang.kind = fi::ScenarioEvent::Kind::kNicHang;
  hang.node = 13;
  hang.at = fi::Scenario::kWarmup + sim::usec(500);
  s.events.push_back(hang);

  const fi::RunReport r = fi::ScenarioRunner::run(s);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.digest, kHeapDigest);
  EXPECT_EQ(r.deliveries, 3840u);
  EXPECT_EQ(r.recoveries, 1u);
}

}  // namespace
}  // namespace myri::sim
