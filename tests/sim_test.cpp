// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/ring.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace myri::sim {
namespace {

TEST(Ring, BehavesLikeADequeThroughWrapAndGrowth) {
  // push_back, push_front, take_front and order-keeping erase, checked
  // after every step against std::deque while the ring wraps and grows.
  std::mt19937 rng(3);
  Ring<int> ring;
  std::deque<int> ref;
  int next = 0;
  for (int step = 0; step < 50000; ++step) {
    const unsigned roll = rng() % 10;
    if (roll < 4 && ref.size() < 200) {
      ring.push_back(next);
      ref.push_back(next++);
    } else if (roll < 5 && ref.size() < 200) {
      ring.push_front(next);
      ref.push_front(next++);
    } else if (roll < 8 && !ref.empty()) {
      ASSERT_EQ(ring.take_front(), ref.front());
      ref.pop_front();
    } else if (roll < 9 && !ref.empty()) {
      const std::size_t i = rng() % ref.size();
      ring.erase(i);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (rng() % 64 == 0) {
      ring.clear();
      ref.clear();
    }
    ASSERT_EQ(ring.size(), ref.size());
    std::size_t i = 0;
    for (const int v : ring) ASSERT_EQ(v, ref[i++]);
    if (!ref.empty()) {
      ASSERT_EQ(ring.back(), ref.back());
    }
  }
}

TEST(Time, Conversions) {
  EXPECT_EQ(usec(1), 1000u);
  EXPECT_EQ(usecf(0.5), 500u);
  EXPECT_EQ(usecf(0.25), 250u);
  EXPECT_EQ(msec(2), 2'000'000u);
  EXPECT_EQ(sec(1), 1'000'000'000u);
  EXPECT_DOUBLE_EQ(to_usec(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_msec(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_sec(kSecond), 1.0);
}

TEST(Time, FractionalMicrosecondsRound) {
  EXPECT_EQ(usecf(0.0001), 0u);
  EXPECT_EQ(usecf(0.3), 300u);
  EXPECT_EQ(usecf(13.0), 13000u);
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(30, [&] { order.push_back(3); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, EqualTimestampsRunFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eq.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  eq.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue eq;
  Time fired = 0;
  eq.schedule_at(50, [&] {
    eq.schedule_after(25, [&] { fired = eq.now(); });
  });
  eq.run();
  EXPECT_EQ(fired, 75u);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue eq;
  eq.schedule_at(100, [] {});
  eq.run();
  Time fired = 0;
  eq.schedule_at(10, [&] { fired = eq.now(); });  // in the past
  eq.run();
  EXPECT_EQ(fired, 100u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue eq;
  bool ran = false;
  auto h = eq.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  eq.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue eq;
  int runs = 0;
  auto h = eq.schedule_at(10, [&] { ++runs; });
  eq.run();
  h.cancel();  // must not crash or corrupt
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, CancelFromInsideCallback) {
  EventQueue eq;
  bool second_ran = false;
  EventQueue::Handle h2;
  eq.schedule_at(10, [&] { h2.cancel(); });
  h2 = eq.schedule_at(20, [&] { second_ran = true; });
  eq.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventQueue, RunUntilAdvancesClockExactly) {
  EventQueue eq;
  int count = 0;
  eq.schedule_at(10, [&] { ++count; });
  eq.schedule_at(20, [&] { ++count; });
  eq.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(eq.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(eq.now(), 20u);
  EXPECT_EQ(eq.pending_events(), 1u);
}

TEST(EventQueue, RunForIsRelative) {
  EventQueue eq;
  eq.schedule_at(5, [] {});
  eq.run();
  EXPECT_EQ(eq.now(), 5u);
  eq.run_for(10);
  EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, RunCapStopsSelfRescheduling) {
  EventQueue eq;
  std::function<void()> loop = [&] { eq.schedule_after(1, loop); };
  eq.schedule_at(0, loop);
  const std::size_t n = eq.run(1000);
  EXPECT_EQ(n, 1000u);
  EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue eq;
  EXPECT_FALSE(eq.step());
  eq.schedule_at(1, [] {});
  EXPECT_TRUE(eq.step());
  EXPECT_FALSE(eq.step());
}

TEST(EventQueue, EmptyAccountsForCancellations) {
  EventQueue eq;
  auto h = eq.schedule_at(10, [] {});
  EXPECT_FALSE(eq.empty());
  h.cancel();
  EXPECT_TRUE(eq.empty());
  EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, ExecutedCounter) {
  EventQueue eq;
  for (int i = 0; i < 5; ++i) eq.schedule_at(i, [] {});
  eq.run();
  EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue eq;
  int depth = 0;
  std::function<void(int)> chain = [&](int d) {
    depth = d;
    if (d < 10) eq.schedule_after(5, [&, d] { chain(d + 1); });
  };
  eq.schedule_at(0, [&] { chain(1); });
  eq.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(eq.now(), 45u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BetweenInclusive) {
  Rng r(7);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    lo |= v == 3;
    hi |= v == 5;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng r(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.bernoulli(0.5) ? 1 : 0;
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(42);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.next_u64() == f2.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, PickCoversElements) {
  Rng r(5);
  std::vector<int> v{10, 20, 30};
  bool seen[3] = {};
  for (int i = 0; i < 100; ++i) {
    const int x = r.pick(v);
    seen[x / 10 - 1] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

// Probabilities a link is given: the soak profile's baseline and
// loss-window rates, the chaos generator's 0.01-step drop grid, and edges
// (the smallest doubles, powers of two around 2^-64, just below 1).
std::vector<double> fault_probabilities() {
  std::vector<double> ps = {0.005, 0.002, 0.10, 0.05, 0.001, 1.0 / 3};
  for (int i = 1; i <= 20; ++i) ps.push_back(i * 0.01);
  for (const double e :
       {std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), 0x1p-66, 0x1p-65, 0x1p-64,
        0x1p-63, 0x1.8p-64, 1e-19, 1e-12, 0.5, 0.75,
        std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0), 0.999999,
        1.0 - 0x1p-52, std::nextafter(1.0, 0.0)}) {
    ps.push_back(e);
  }
  return ps;
}

// std::bernoulli_distribution fed one chosen engine output.
bool library_draw(double p, std::uint64_t x) {
  struct Replay {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type x;
    result_type operator()() { return x; }
  };
  Replay e{x};
  return std::bernoulli_distribution(p)(e);
}

TEST(FixedBernoulli, SameResultsAndSameStreamAsRngBernoulli) {
  for (const double p : fault_probabilities()) {
    Rng a(2026);
    Rng b(2026);
    const FixedBernoulli fb(p);
    ASSERT_TRUE(fb.draws()) << p;
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(fb(b), a.bernoulli(p)) << "p " << p << ", draw " << i;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << p;  // as many outputs spent
  }
}

TEST(FixedBernoulli, MatchesTheLibraryWithinTwoOfEveryThreshold) {
  std::mt19937_64 rng(7);
  for (const double p : fault_probabilities()) {
    const FixedBernoulli fb(p);
    const std::uint64_t t = fb.threshold();
    ASSERT_GT(t, 0u) << p;  // output 0 is below every p > 0
    for (std::uint64_t d = 0; d <= 4; ++d) {
      const std::uint64_t x = t - 2 + d;  // wraps past 0 only if t < 2
      if (t < 2 && d < 2 - t) continue;
      EXPECT_EQ(fb.hit(x), library_draw(p, x))
          << "p " << p << ", output " << x << ", threshold " << t;
    }
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t x = rng();
      ASSERT_EQ(fb.hit(x), library_draw(p, x)) << "p " << p << ", " << x;
    }
    EXPECT_FALSE(fb.hit(~std::uint64_t{0})) << p;
  }
}

TEST(FixedBernoulli, ZeroAndOneDecideWithoutDrawing) {
  for (const double p : {0.0, -0.5, 1.0, 2.0}) {
    Rng a(9);
    Rng b(9);
    const FixedBernoulli fb(p);
    EXPECT_FALSE(fb.draws());
    for (int i = 0; i < 10; ++i) EXPECT_EQ(fb(b), a.bernoulli(p));
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng r(3);
  Rng untouched(3);
  EXPECT_FALSE(FixedBernoulli()(r));
  EXPECT_EQ(r.next_u64(), untouched.next_u64());
}

}  // namespace
}  // namespace myri::sim
