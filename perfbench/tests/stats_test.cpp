// Unit tests of the benchmark's own statistics (src/stats.hpp). Exits
// non-zero if any check fails; run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void nearest_rank_percentiles() {
  // 1..100: the p-th percentile is exactly p.
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(nearest_rank(v, 50.0) == 50);
  CHECK(nearest_rank(v, 99.0) == 99);  // 0.99 * 100 is not rounded up to 100
  CHECK(nearest_rank(v, 100.0) == 100);
  CHECK(nearest_rank(v, 0.5) == 1);
  // Rank ceil(p/100 * n): 5 samples, p50 -> rank 3, p90 -> rank 5.
  std::vector<int> w = {40, 10, 50, 20, 30};
  CHECK(nearest_rank(w, 50.0) == 30);
  CHECK(nearest_rank(w, 90.0) == 50);
  CHECK(nearest_rank(w, 20.0) == 10);
  CHECK(nearest_rank(w, 21.0) == 20);
  std::vector<int> one = {7};
  CHECK(nearest_rank(one, 99.0) == 7);
  CHECK(nearest_rank_index(99.9, 1000) == 999);
  CHECK(samples_beyond(99.0, 1000) == 10);
  CHECK(samples_beyond(99.0, 999) == 9);
}

void tail_percentiles() {
  // The highest ladder percentile with at least ten samples beyond it.
  CHECK(!tail_percentile(0).has_value());
  CHECK(!tail_percentile(19).has_value());  // median leaves 9 beyond
  CHECK(*tail_percentile(20) == 50.0);
  CHECK(*tail_percentile(99) == 50.0);      // p90 leaves 9 beyond
  CHECK(*tail_percentile(100) == 90.0);
  CHECK(*tail_percentile(999) == 90.0);     // p99 leaves 9 beyond
  CHECK(*tail_percentile(1000) == 99.0);
  CHECK(*tail_percentile(10000) == 99.9);
  CHECK(*tail_percentile(100000) == 99.99);
  CHECK(*tail_percentile(10'000'000) == 99.9999);
  // n = 100: p99 leaves one sample beyond, p90 ten.
  CHECK(*tail_percentile(100, 5) == 90.0);
  CHECK(*tail_percentile(100, 1) == 99.0);
}

void medians_and_quartiles() {
  CHECK(near(median({3.0}), 3.0));
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(median({5.0, 1.0, 3.0}), 3.0));
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  CHECK(near(q.q1, 2.75));
  CHECK(near(q.q2, 5.5));
  CHECK(near(q.q3, 8.25));
  CHECK(near(q.relative_spread(), 5.5 / 5.5));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2, 1});
  CHECK(near(two.q1, 0.75));
  CHECK(near(two.q2, 1.5));
  CHECK(near(two.q3, 2.25));
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles five = quartiles({16, 8, 4, 2, 1});
  CHECK(near(five.q1, 1.5));
  CHECK(near(five.q2, 4.0));
  CHECK(near(five.q3, 12.0));
  CHECK(near(quartiles({7, 7, 7}).relative_spread(), 0.0));
}

void fast_rates() {
  // Rank ceil(0.9 * n): the fastest of up to nine rates, the second
  // fastest of 10 to 19, the third of 20 to 29.
  CHECK(near(fast_rate({5.0}), 5.0));
  CHECK(near(fast_rate({3.0, 9.0, 1.0, 6.0, 2.0, 8.0}), 9.0));
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(i);
  CHECK(near(fast_rate(twenty), 18.0));
}

void span_self_time() {
  // No children: the whole duration.
  CHECK(self_time({0, 100}, {}) == 100);
  // Disjoint children are subtracted.
  CHECK(self_time({0, 100}, {{10, 20}, {50, 80}}) == 60);
  // Overlapping children count once.
  CHECK(self_time({0, 100}, {{10, 40}, {30, 60}}) == 50);
  // Nested children (a grandchild listed too) count once.
  CHECK(self_time({0, 100}, {{10, 60}, {20, 30}}) == 50);
  // Children spilling past either edge only count inside the parent.
  CHECK(self_time({100, 200}, {{50, 120}, {190, 260}}) == 70);
  // A child outside the parent does not count.
  CHECK(self_time({100, 200}, {{0, 50}, {250, 300}}) == 100);
  // Unsorted input.
  CHECK(self_time({0, 100}, {{70, 90}, {0, 10}}) == 70);
  // Children covering everything leave nothing.
  CHECK(self_time({0, 100}, {{0, 50}, {50, 100}}) == 0);
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  tail_percentiles();
  medians_and_quartiles();
  fast_rates();
  span_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::fprintf(stderr, "stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}
