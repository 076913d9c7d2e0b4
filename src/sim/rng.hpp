// Deterministic, seedable random number generation.
//
// Every stochastic component (link error injection, fault campaigns, jitter)
// draws from an explicitly seeded Rng so experiments are reproducible run to
// run. Components that need independent streams derive them with fork() so
// adding draws in one component does not perturb another.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace myri::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : eng_(seed) {}

  /// Uniform 64-bit value.
  std::uint64_t next_u64() { return eng_(); }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(eng_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(eng_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(eng_);
  }

  /// True with probability p. Spends one engine output when 0 < p < 1
  /// (or p is NaN, which is never true), none otherwise.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(eng_);
  }

  /// Pick a uniformly random element; v must be non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(below(v.size()))];
  }

  /// Derive an independent generator for stream id `stream`.
  Rng fork(std::uint64_t stream) {
    // Mix the stream id through splitmix64 so neighbouring ids decorrelate.
    std::uint64_t z = next_u64() + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
  }

 private:
  std::mt19937_64 eng_;
};

/// Rng::bernoulli(p) for a probability fixed in advance, decided by one
/// integer compare. It spends the same engine outputs as bernoulli(p) and
/// returns the same results: libstdc++'s bernoulli_distribution is true
/// when generate_canonical<double>(x) < p for the engine output x, and
/// generate_canonical is non-decreasing in x, so the true outputs are
/// exactly those below a threshold found once, by binary search over the
/// library's own predicate.
class FixedBernoulli {
 public:
  /// Never true, draws nothing (p = 0).
  FixedBernoulli() = default;
  explicit FixedBernoulli(double p) {
    if (p <= 0.0) return;
    if (p >= 1.0) {
      mode_ = Mode::kAlways;
      return;
    }
    mode_ = Mode::kDraw;
    // The smallest output the distribution rejects; the largest output
    // is always rejected (its canonical value is just below 1), and a
    // NaN p rejects all, leaving the threshold at 0.
    std::uint64_t lo = 0;
    std::uint64_t hi = ~std::uint64_t{0};
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (library_hit(p, mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    below_ = lo;
  }

  /// The draw: Rng::bernoulli(p) on `rng`, outputs spent included.
  bool operator()(Rng& rng) const {
    if (mode_ != Mode::kDraw) return mode_ == Mode::kAlways;
    return hit(rng.next_u64());
  }
  /// The verdict on engine output `x` when a draw is made.
  [[nodiscard]] bool hit(std::uint64_t x) const noexcept {
    return x < below_;
  }
  /// The smallest engine output a draw rejects.
  [[nodiscard]] std::uint64_t threshold() const noexcept { return below_; }
  /// False for p <= 0 and p >= 1, which decide without drawing.
  [[nodiscard]] bool draws() const noexcept { return mode_ == Mode::kDraw; }

 private:
  /// std::bernoulli_distribution(p) fed the engine output `x`.
  static bool library_hit(double p, std::uint64_t x) {
    struct Replay {  // an engine of mt19937_64's range that returns x
      using result_type = std::uint64_t;
      static constexpr result_type min() { return 0; }
      static constexpr result_type max() { return ~result_type{0}; }
      result_type x;
      result_type operator()() const { return x; }
    };
    static_assert(Replay::min() == std::mt19937_64::min() &&
                  Replay::max() == std::mt19937_64::max());
    Replay e{x};
    return std::bernoulli_distribution(p)(e);
  }

  enum class Mode : std::uint8_t { kNever, kDraw, kAlways };
  Mode mode_ = Mode::kNever;
  std::uint64_t below_ = 0;  // a draw is true below this output
};

}  // namespace myri::sim
