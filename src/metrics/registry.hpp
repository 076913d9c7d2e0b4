// Process-wide observability registry: a name index over the stack's
// accounting.
//
// The paper's claims are quantitative (Table 2 overhead, Table 3 recovery
// breakdown, Figs 7-8), so every layer of the stack publishes its numbers
// under one naming scheme. Most counters are views: the count itself lives
// in a component's stats struct (McpStats, PortStats, LinkStats, ...) and
// the registry reads the field by name (CounterViews), so each fact is
// counted once. A few counters with no stats twin (fabric.cable_events,
// mapper.joins, bench.*), and every gauge and histogram, are registry-
// owned; an update is a pointer-guarded O(1) add with no allocation.
// Snapshots are exported as deterministic JSON (sorted names, integers
// only) so benches can diff a machine-readable baseline across commits.
//
// Naming scheme (see DESIGN.md "Metrics & observability"):
//   <owner>.<component>.<metric>[_<unit>]
//   e.g. node0.mcp.retransmissions, link.node1.delivered_bytes,
//        node0.ftd.recovery.reload_ns
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace myri::metrics {

/// Monotonically increasing event/byte count: its own tally (add/inc),
/// plus the live stats field of the component exposing it, if any.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;  // a copy would alias live fields
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) noexcept { v_ += n; }
  void inc() noexcept { ++v_; }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return field_ == nullptr ? v_ : v_ + *field_;
  }

 private:
  friend class CounterViews;
  // Stop reading the field; its final value becomes part of the tally.
  void fold() noexcept {
    v_ = value();
    field_ = nullptr;
  }

  std::uint64_t v_ = 0;
  const std::uint64_t* field_ = nullptr;
};

/// Instantaneous level (queue depth, tokens in flight) with a high-water
/// mark, so a snapshot shows both "now" and "worst seen".
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_ = v;
    max_ = std::max(max_, v);
  }
  void add(std::int64_t d) noexcept { set(v_ + d); }
  [[nodiscard]] std::int64_t value() const noexcept { return v_; }
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }

 private:
  std::int64_t v_ = 0;
  std::int64_t max_ = 0;
};

/// Fixed-bucket histogram: bounds are chosen at registration, add() is a
/// branch-light upper-bound search over a small vector (no allocation).
/// Exact count/sum/min/max are kept alongside the buckets, so means are
/// exact and only percentiles are bucket-quantized.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly ascending; values above
  /// the last bound land in an implicit overflow bucket.
  explicit Histogram(std::vector<std::uint64_t> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  /// Powers-of-`factor` bounds starting at `start`: the default shape for
  /// durations (1 us .. ~8 s when called with (1000, 2, 24)).
  static std::vector<std::uint64_t> exponential_bounds(std::uint64_t start,
                                                       double factor,
                                                       int count) {
    std::vector<std::uint64_t> b;
    double v = static_cast<double>(start);
    for (int i = 0; i < count; ++i) {
      b.push_back(static_cast<std::uint64_t>(v));
      v *= factor;
    }
    return b;
  }

  /// Default time buckets: 1 us to ~8.4 s in powers of two (nanoseconds).
  static const std::vector<std::uint64_t>& default_time_bounds() {
    static const std::vector<std::uint64_t> kBounds =
        exponential_bounds(1000, 2.0, 24);
    return kBounds;
  }

  /// Record `n` samples of value `v` (n = 0 records nothing).
  void add(std::uint64_t v, std::uint64_t n = 1) noexcept {
    if (n == 0) return;
    // First bound >= v (inclusive upper bounds); off the end -> overflow.
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    counts_[static_cast<std::size_t>(it - bounds_.begin())] += n;
    count_ += n;
    sum_ += v * n;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Nearest-rank percentile, quantized to bucket upper bounds (the
  /// overflow bucket reports the exact observed max).
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept {
    if (count_ == 0) return 0;
    double rank = p / 100.0 * static_cast<double>(count_);
    rank = std::ceil(rank);
    const std::uint64_t target =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rank));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      cum += counts_[i];
      if (cum >= target) {
        return i < bounds_.size() ? std::min(bounds_[i], max_) : max_;
      }
    }
    return max_;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts()
      const noexcept {
    return counts_;
  }

  /// Forget every observation (bounds are kept). For histograms that
  /// snapshot per-round state (e.g. fabric.route_len_hops holds only the
  /// current epoch's routes) rather than accumulate forever.
  void reset() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<std::uint64_t>::max();
    max_ = 0;
  }

  /// Windowed mode: this histogram holds a bounded window of samples
  /// (its owner resets it per round, and/or Registry::roll_windowed()
  /// resets it per soak check window) instead of accumulating for the
  /// whole run. Long-run percentile reads stay fresh, and the soak drift
  /// oracle can bound the live sample count — a windowed histogram whose
  /// count keeps climbing is a missing roll, which is a leak.
  void set_windowed(bool windowed = true) noexcept { windowed_ = windowed; }
  [[nodiscard]] bool windowed() const noexcept { return windowed_; }

  /// Accumulate another histogram (same bounds: bucket-exact; different
  /// bounds: scalars only, buckets are left untouched).
  void merge(const Histogram& o) noexcept {
    if (o.count_ == 0) return;
    if (o.bounds_ == bounds_) {
      for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts_[i] += o.counts_[i];
      }
    }
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
  bool windowed_ = false;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Named instrument store. Registration returns stable references (node-
/// based maps), so components cache pointers once and update lock-free on
/// the hot path. One Registry per Cluster by default; benches merge the
/// per-repeat registries into an aggregate before reporting.
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds =
                           Histogram::default_time_bounds()) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
    }
    return it->second;
  }

  [[nodiscard]] const Counter* find_counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }
  /// Every registered histogram, by name (drift probes iterate these).
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

  /// Reset every histogram marked windowed (see Histogram::set_windowed).
  /// Soak mode calls this once per check window so windowed instruments
  /// hold at most one window of samples. Returns how many were rolled.
  std::size_t roll_windowed() {
    std::size_t rolled = 0;
    for (auto& [name, h] : histograms_) {
      if (!h.windowed()) continue;
      h.reset();
      ++rolled;
    }
    return rolled;
  }

  /// Accumulate every instrument of `o` into this registry (counters add,
  /// gauges keep the other's last value and the joint high-water mark,
  /// histograms merge). Used by benches to aggregate across repeats.
  void merge(const Registry& o) {
    for (const auto& [name, c] : o.counters_) counters_[name].add(c.value());
    for (const auto& [name, g] : o.gauges_) {
      Gauge& mine = gauges_[name];
      mine.set(std::max(mine.max(), g.max()));
      mine.set(g.value());
    }
    for (const auto& [name, h] : o.histograms_) {
      auto it = histograms_.find(name);
      if (it == histograms_.end()) {
        histograms_.emplace(name, h);
      } else {
        it->second.merge(h);
      }
    }
  }

  /// Deterministic JSON snapshot: object keys sorted (std::map order),
  /// integers only, histogram buckets emitted sparsely as [bound, count]
  /// pairs with null as the overflow bound.
  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      if (!first) out += ',';
      first = false;
      out += '"' + escape(name) + "\":" + std::to_string(c.value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
      if (!first) out += ',';
      first = false;
      out += '"' + escape(name) + "\":{\"max\":" + std::to_string(g.max()) +
             ",\"value\":" + std::to_string(g.value()) + '}';
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) out += ',';
      first = false;
      out += '"' + escape(name) + "\":{\"buckets\":[";
      bool bfirst = true;
      const auto& counts = h.bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        if (!bfirst) out += ',';
        bfirst = false;
        out += '[';
        out += i < h.bounds().size() ? std::to_string(h.bounds()[i]) : "null";
        out += ',' + std::to_string(counts[i]) + ']';
      }
      out += "],\"count\":" + std::to_string(h.count()) +
             ",\"max\":" + std::to_string(h.max()) +
             ",\"min\":" + std::to_string(h.min()) +
             ",\"sum\":" + std::to_string(h.sum()) + '}';
    }
    out += "}}";
    return out;
  }

 private:
  static std::string escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// The counters one component exposes: each reads a field of its stats
/// struct under a registry name. When the component dies (a closed port,
/// a torn-down FailoverManager) the views fold each field's final value
/// into its counter, so the registry keeps the last value and a successor
/// exposed under the same name counts on top of it. Declare it after the
/// stats it exposes; the registry must outlive it.
class CounterViews {
 public:
  CounterViews() = default;
  CounterViews(const CounterViews&) = delete;
  CounterViews& operator=(const CounterViews&) = delete;
  ~CounterViews() {
    for (const auto& [c, field] : views_) {
      if (c->field_ == field) c->fold();
    }
  }

  void expose(Registry& reg, const std::string& name,
              const std::uint64_t& field) {
    Counter& c = reg.counter(name);
    if (c.field_ == &field) return;
    c.fold();  // a live predecessor under this name hands over
    c.field_ = &field;
    views_.emplace_back(&c, &field);
  }

 private:
  std::vector<std::pair<Counter*, const std::uint64_t*>> views_;
};

/// Null-safe update helpers: components hold instrument pointers that stay
/// null until (unless) bind_metrics() is called, so unbound hot paths pay
/// one predictable branch.
inline void bump(Counter* c, std::uint64_t n = 1) noexcept {
  if (c != nullptr) c->add(n);
}
inline void level(Gauge* g, std::int64_t v) noexcept {
  if (g != nullptr) g->set(v);
}
inline void observe(Histogram* h, std::uint64_t v,
                    std::uint64_t n = 1) noexcept {
  if (h != nullptr) h->add(v, n);
}

/// Timing of a multi-stage operation (the FTD's recovery sequence): each
/// mark() records the duration since the previous mark into the histogram
/// "<prefix>.<phase>_ns", finish() records "<prefix>.total_ns". Cheap
/// enough for control paths; not intended for per-packet use.
class PhaseTimer {
 public:
  PhaseTimer() = default;
  PhaseTimer(Registry& reg, std::string prefix)
      : reg_(&reg), prefix_(std::move(prefix)) {}

  [[nodiscard]] bool bound() const noexcept { return reg_ != nullptr; }

  void start(sim::Time now) noexcept { start_ = last_ = now; }

  void mark(std::string_view phase, sim::Time now) {
    if (reg_ != nullptr) {
      reg_->histogram(prefix_ + '.' + std::string(phase) + "_ns")
          .add(now - last_);
    }
    last_ = now;
  }

  void finish(sim::Time now) {
    if (reg_ != nullptr) {
      reg_->histogram(prefix_ + ".total_ns").add(now - start_);
    }
    last_ = now;
  }

 private:
  Registry* reg_ = nullptr;
  std::string prefix_;
  sim::Time start_ = 0;
  sim::Time last_ = 0;
};

}  // namespace myri::metrics
