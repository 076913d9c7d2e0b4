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
#include <cstdint>
#include <iterator>
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

// Naive reference model for the differential tests: every scheduled
// event with its (at, seq) and whether it was cancelled. The queue under
// test must fire exactly the uncancelled events, in (at, seq) order, and
// after run_until(t) exactly those due by t must have fired.
class Differential {
 public:
  EventQueue& eq() { return eq_; }
  [[nodiscard]] std::size_t scheduled() const { return ref_.size(); }

  void schedule(Time at) {
    const std::uint64_t s = ref_.size();
    handles_.push_back(
        eq_.schedule_at(at, [this, s] { fired_.push_back(s); }));
    ref_.push_back({std::max(at, eq_.now()), s});
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
    bool cancelled = false;
  };
  EventQueue eq_;
  std::vector<Ref> ref_;
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
