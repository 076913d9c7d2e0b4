// In-memory span recorder for the traced run.
//
// The benchmark opens a wall-clock span around each of its own calls into
// a layer (cluster build, warm-up, Port::post, every run_for slice, its
// receive handlers) and records one virtual-time span per message, from
// post to the receiver's callback. Spans nest by call order: a span opened
// while another is open becomes its child, so a run_for slice's self time
// is the simulator's own work minus the handlers and posts it called back.
//
// Per-name totals (count, duration, self time) are exact for the whole
// run. Raw spans are kept up to a cap and written out as JSON at exit: a
// 512-node ring posts millions of messages, and the totals, not the raw
// list, feed the reported metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanRecorder(std::size_t max_kept = 200'000)
      : max_kept_(max_kept) {}

  /// Open a wall-clock span named by a string literal. Spans close in
  /// LIFO order (Scope does that); one opened inside another is its child.
  void begin(const char* name) {
    const std::int64_t parent = open_.empty() ? -1 : open_.back().id;
    open_.push_back({name, next_id_++, parent, wall_ns(), {}});
  }

  void end() {
    const std::int64_t stop = wall_ns();
    Open o = std::move(open_.back());
    open_.pop_back();
    const Interval iv{o.start, stop};
    Totals& t = totals(wall_, o.name);
    ++t.count;
    t.total_ns += stop - o.start;
    t.self_ns += self_time(iv, std::move(o.children));
    if (!open_.empty()) open_.back().children.push_back(iv);
    keep({o.name, 'w', o.id, o.parent, o.start, stop, 0});
  }

  /// RAII span around a scope. A null recorder (the untraced run) makes
  /// it free: no clock reads, no allocation.
  class Scope {
   public:
    Scope(SpanRecorder* r, const char* name) : r_(r) {
      if (r_ != nullptr) r_->begin(name);
    }
    ~Scope() {
      if (r_ != nullptr) r_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* r_;
  };

  /// One message's virtual-time span, post -> receive callback, in
  /// simulated nanoseconds; `msg` identifies the message.
  void message(const char* name, std::uint64_t msg, std::uint64_t posted,
               std::uint64_t received) {
    const auto d = static_cast<std::int64_t>(received - posted);
    Totals& t = totals(virtual_, name);
    ++t.count;
    t.total_ns += d;
    t.self_ns += d;
    keep({name, 'v', next_id_++, -1, static_cast<std::int64_t>(posted),
          static_cast<std::int64_t>(received), msg});
  }

  /// Exact totals of the wall-clock spans called `name`.
  [[nodiscard]] Totals wall(const char* name) const {
    for (const auto& [n, t] : wall_) {
      if (std::strcmp(n, name) == 0) return t;
    }
    return {};
  }

  /// Write the totals and every kept span as JSON. False on I/O error.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"dropped\":%llu,\"totals\":[",
                 static_cast<unsigned long long>(dropped_));
    bool first = true;
    for (const auto* m : {&wall_, &virtual_}) {
      for (const auto& [name, t] : *m) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"clock\":\"%s\",\"count\":%llu,"
                     "\"total_ns\":%lld,\"self_ns\":%lld}",
                     first ? "" : ",", name, m == &wall_ ? "wall" : "virtual",
                     static_cast<unsigned long long>(t.count),
                     static_cast<long long>(t.total_ns),
                     static_cast<long long>(t.self_ns));
        first = false;
      }
    }
    std::fputs("],\"spans\":[", f);
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"clock\":\"%s\",\"id\":%lld,"
                   "\"parent\":%lld,\"start\":%lld,\"end\":%lld,\"msg\":%llu}",
                   i == 0 ? "" : ",", k.name,
                   k.clock == 'w' ? "wall" : "virtual",
                   static_cast<long long>(k.id),
                   static_cast<long long>(k.parent),
                   static_cast<long long>(k.start),
                   static_cast<long long>(k.end),
                   static_cast<unsigned long long>(k.msg));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    const char* name;
    std::int64_t id;
    std::int64_t parent;
    std::int64_t start;
    std::vector<Interval> children;
  };
  struct Kept {
    const char* name;
    char clock;  // 'w' wall, 'v' virtual
    std::int64_t id;
    std::int64_t parent;  // id of the enclosing span, -1 at top level
    std::int64_t start;
    std::int64_t end;
    std::uint64_t msg;  // message id of a virtual span
  };
  using TotalsList = std::vector<std::pair<const char*, Totals>>;

  // A handful of names per run: a linear scan beats hashing a string.
  static Totals& totals(TotalsList& list, const char* name) {
    for (auto& [n, t] : list) {
      if (n == name || std::strcmp(n, name) == 0) return t;
    }
    list.emplace_back(name, Totals{});
    return list.back().second;
  }

  void keep(const Kept& k) {
    if (kept_.size() < max_kept_) {
      kept_.push_back(k);
    } else {
      ++dropped_;
    }
  }

  std::size_t max_kept_;
  std::int64_t next_id_ = 0;
  std::vector<Open> open_;
  std::vector<Kept> kept_;
  std::uint64_t dropped_ = 0;
  TotalsList wall_;
  TotalsList virtual_;
};

}  // namespace perfbench
