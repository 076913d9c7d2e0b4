#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace myri::sim {

// ---- event slab ----------------------------------------------------------
//
// Every scheduled event occupies one pooled Entry; the closure is stored
// inline (InlineCallback), so the steady-state hot path does zero heap
// allocation. Slots are recycled through a free list; each reuse bumps the
// slot's generation so outstanding Handles (and any queue item referencing
// the old incarnation) go inert instead of touching the new occupant. The
// slab is shared_ptr-owned by the queue and weak_ptr-referenced by Handles,
// which makes a Handle outliving its queue a safe no-op.

struct EventQueue::Slab {
  static constexpr std::uint32_t kNone = 0xffffffffu;

  enum class State : std::uint8_t { kFree, kPending, kCancelled };

  // The event's (at, seq) live in its queue Item; the entry keeps the
  // clock at scheduling time for current_scheduled_at(). 192 bytes: three
  // cache lines.
  struct Entry {
    Time scheduled_at = 0;
    std::uint64_t seq = 0;
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNone;
    State state = State::kFree;
  };

  std::vector<Entry> pool;
  std::uint32_t free_head = kNone;
  std::size_t live = 0;       // pending (non-cancelled) events
  std::size_t cancelled = 0;  // cancelled entries not yet reclaimed
};

void EventQueue::Handle::cancel() {
  auto s = slab_.lock();
  if (!s || slot_ >= s->pool.size()) return;
  Slab::Entry& e = s->pool[slot_];
  if (e.gen != gen_ || e.state != Slab::State::kPending) return;
  e.state = Slab::State::kCancelled;
  e.cb = nullptr;  // release captured resources eagerly
  --s->live;
  ++s->cancelled;
}

bool EventQueue::Handle::pending() const {
  auto s = slab_.lock();
  if (!s || slot_ >= s->pool.size()) return false;
  const Slab::Entry& e = s->pool[slot_];
  return e.gen == gen_ && e.state == Slab::State::kPending;
}

namespace {

// "Later" ordering on (at, seq). Used three ways: sorting a bucket
// descending (so it drains ascending from the back), as the comparator
// that makes std::push_heap a min-heap, and for the sorted insert into
// the currently-draining bucket.
constexpr auto kLater = [](const auto& a, const auto& b) {
  if (a.at != b.at) return a.at > b.at;
  return a.seq > b.seq;
};

// Compaction triggers once at least this many cancelled entries have
// accumulated AND they outnumber the live events.
constexpr std::size_t kCompactMin = 1024;

}  // namespace

EventQueue::EventQueue()
    : slab_(std::make_shared<Slab>()), buckets_(kBucketCount) {
  slab_->pool.reserve(1024);
}

EventQueue::~EventQueue() = default;

bool EventQueue::empty() const noexcept { return slab_->live == 0; }

std::size_t EventQueue::pending_events() const noexcept {
  return slab_->live;
}

std::size_t EventQueue::cancelled_pending() const noexcept {
  return slab_->cancelled;
}

std::uint32_t EventQueue::alloc_slot() {
  Slab& s = *slab_;
  if (s.free_head != Slab::kNone) {
    const std::uint32_t slot = s.free_head;
    s.free_head = s.pool[slot].next_free;
    return slot;
  }
  s.pool.emplace_back();
  return static_cast<std::uint32_t>(s.pool.size() - 1);
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slab& s = *slab_;
  Slab::Entry& e = s.pool[slot];
  ++e.gen;  // outstanding handles and queue items go stale
  e.state = Slab::State::kFree;
  e.cb = nullptr;
  e.next_free = s.free_head;
  s.free_head = slot;
}

EventQueue::Handle EventQueue::schedule_at(Time at, Callback cb) {
  at = std::max(at, now_);
  const std::uint32_t slot = alloc_slot();
  Slab::Entry& e = slab_->pool[slot];
  e.scheduled_at = now_;
  e.seq = next_seq_++;
  e.cb = std::move(cb);
  e.state = Slab::State::kPending;
  ++slab_->live;
  const Handle h(slab_, slot, e.gen);
  place_item(Item{at, e.seq, slot, e.gen});
  maybe_compact();
  return h;
}

// ---- occupancy bitmap ----------------------------------------------------

void EventQueue::mark_occupied(std::uint64_t idx) noexcept {
  occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  occ_summary_ |= std::uint64_t{1} << (idx >> 6);
}

void EventQueue::mark_empty(std::uint64_t idx) noexcept {
  std::uint64_t& w = occ_[idx >> 6];
  w &= ~(std::uint64_t{1} << (idx & 63));
  if (w == 0) occ_summary_ &= ~(std::uint64_t{1} << (idx >> 6));
}

std::uint64_t EventQueue::next_occupied(std::uint64_t idx) const noexcept {
  // First occupied ring index at or after `idx`, wrapping past 4095 to 0.
  // Precondition: some bucket is occupied (occ_summary_ != 0).
  std::uint64_t w = idx >> 6;
  const std::uint64_t here = occ_[w] & (~std::uint64_t{0} << (idx & 63));
  if (here != 0) return (w << 6) | std::countr_zero(here);
  // Later words first; failing that wrap to the lowest occupied word,
  // which may be word `w` itself (its bits below `idx`).
  const std::uint64_t later =
      w + 1 < kOccWords ? occ_summary_ & (~std::uint64_t{0} << (w + 1)) : 0;
  w = std::countr_zero(later != 0 ? later : occ_summary_);
  return (w << 6) | std::countr_zero(occ_[w]);
}

template <typename F>
void EventQueue::for_each_occupied(F&& f) {
  // Visits every non-empty bucket by ring index. `f` may empty the
  // bucket; the bitmap is brought up to date after it returns.
  for (std::uint64_t sum = occ_summary_; sum != 0; sum &= sum - 1) {
    const std::uint64_t w = std::countr_zero(sum);
    for (std::uint64_t bits = occ_[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t idx = (w << 6) | std::countr_zero(bits);
      f(buckets_[idx]);
      if (buckets_[idx].empty()) mark_empty(idx);
    }
  }
}

// ---- calendar ------------------------------------------------------------

void EventQueue::place_item(const Item& it) {
  // Invariant: every pending event satisfies bucket_of(at) >= cur_bn_
  // (schedule_at clamps to now_, and the cursor never passes the bucket
  // of the current clock). Within the ring window each absolute bucket
  // number maps to a distinct slot, so a bucket only ever mixes events
  // of one bucket number.
  const std::uint64_t bn = bucket_of(it.at);
  if (bn < cur_bn_ + kBucketCount) {
    auto& b = buckets_[bn & kBucketMask];
    if (cur_sorted_ && bn == cur_bn_) {
      // The current bucket drains ascending from the back; keep it
      // sorted descending on insert so a callback scheduling at `now`
      // still fires in FIFO order behind its equal-timestamp peers.
      b.insert(std::lower_bound(b.begin(), b.end(), it, kLater), it);
    } else {
      b.push_back(it);
    }
    mark_occupied(bn & kBucketMask);
  } else {
    overflow_.push_back(it);
    std::push_heap(overflow_.begin(), overflow_.end(), kLater);
  }
}

void EventQueue::migrate_overflow() {
  // Move overflow events that fell inside the horizon into the ring.
  // Doing this on every cursor move keeps the overflow strictly later
  // than everything in the ring.
  while (!overflow_.empty() &&
         bucket_of(overflow_.front().at) < cur_bn_ + kBucketCount) {
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    const Item mig = overflow_.back();
    overflow_.pop_back();
    const std::uint64_t idx = bucket_of(mig.at) & kBucketMask;
    buckets_[idx].push_back(mig);
    mark_occupied(idx);
  }
}

bool EventQueue::advance_to_next(bool bounded, Time limit) {
  auto& cur = buckets_[cur_bn_ & kBucketMask];
  if (cur.empty()) {
    cur_sorted_ = false;
    const std::uint64_t limit_bn = bucket_of(limit);
    std::uint64_t target = 0;
    if (occ_summary_ != 0) {
      // The ring window maps each bucket number to a distinct slot, so
      // the next occupied slot's ring distance is its bucket distance.
      // Every overflow event lies past the window, hence past `target`:
      // jumping there is the same as stepping bucket by bucket.
      const std::uint64_t cur_idx = cur_bn_ & kBucketMask;
      target = cur_bn_ + ((next_occupied(cur_idx) - cur_idx) & kBucketMask);
      if (bounded && target > limit_bn) {
        // Never move the cursor past the limit's bucket; that keeps
        // cur_bn_ <= bucket_of(now_) after run_until returns, which
        // place_item's window bijectivity depends on. Parking still
        // migrates, so the overflow stays past the window.
        if (cur_bn_ < limit_bn) {
          cur_bn_ = limit_bn;
          migrate_overflow();
        }
        return false;
      }
    } else {
      if (overflow_.empty()) return false;
      // Rebase: jump the cursor straight to the earliest overflow event.
      target = bucket_of(overflow_.front().at);
      if (bounded && target > limit_bn) return false;
    }
    cur_bn_ = target;
    migrate_overflow();
  }
  if (!cur_sorted_) {
    auto& b = buckets_[cur_bn_ & kBucketMask];
    std::sort(b.begin(), b.end(), kLater);
    cur_sorted_ = true;
  }
  return true;
}

bool EventQueue::pop_and_run(bool bounded, Time limit) {
  Slab& s = *slab_;
  while (s.live > 0) {
    if (!advance_to_next(bounded, limit)) return false;
    const std::uint64_t idx = cur_bn_ & kBucketMask;
    auto& b = buckets_[idx];
    const Item it = b.back();
    Slab::Entry* e = &s.pool[it.slot];
    if (e->gen != it.gen) {  // slot recycled since: stale item
      b.pop_back();
      if (b.empty()) mark_empty(idx);
      continue;
    }
    if (e->state == Slab::State::kCancelled) {
      b.pop_back();
      if (b.empty()) mark_empty(idx);
      --s.cancelled;
      free_slot(it.slot);
      continue;
    }
    if (bounded && it.at > limit) return false;
    b.pop_back();
    if (b.empty()) mark_empty(idx);
    now_ = it.at;
    const Time scheduled_at = e->scheduled_at;
    Callback cb = std::move(e->cb);
    --s.live;
    ++executed_;
    free_slot(it.slot);
    e = nullptr;  // pool may reallocate once user code runs
    // Run after the entry leaves the queue so the callback may schedule
    // or cancel freely, including rescheduling itself.
    cur_scheduled_at_ = scheduled_at;
    cb();
    if (after_event_) after_event_(now_);
    cur_scheduled_at_ = kNotExecuting;
    return true;
  }
  reclaim_all();
  return false;
}

bool EventQueue::step() {
  if (slab_->live == 0) {
    reclaim_all();
    return false;
  }
  return pop_and_run(false, 0);
}

std::size_t EventQueue::run_until(Time t) {
  std::size_t n = 0;
  while (pop_and_run(true, t)) ++n;
  now_ = std::max(now_, t);
  return n;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

void EventQueue::reclaim_all() {
  // No live events remain: every gen-matching entry still queued is
  // cancelled. Drop them all and rewind the cursor to the clock.
  Slab& s = *slab_;
  const auto drop = [&](const Item& it) {
    const Slab::Entry& e = s.pool[it.slot];
    if (e.gen == it.gen && e.state == Slab::State::kCancelled) {
      --s.cancelled;
      free_slot(it.slot);
    }
  };
  for_each_occupied([&](std::vector<Item>& b) {
    for (const Item& it : b) drop(it);
    b.clear();
  });
  for (const Item& it : overflow_) drop(it);
  overflow_.clear();
  cur_sorted_ = false;
  cur_bn_ = bucket_of(now_);
}

void EventQueue::maybe_compact() {
  Slab& s = *slab_;
  if (s.cancelled < kCompactMin || s.cancelled < s.live) return;
  // Long-horizon soaks cancel retry timers far faster than the clock
  // reaches them; sweep the dead entries out so queue memory tracks the
  // live population instead of the cancellation history.
  ++compactions_;
  const auto dead = [&](const Item& it) {
    Slab::Entry& e = s.pool[it.slot];
    if (e.gen != it.gen) return true;
    if (e.state == Slab::State::kCancelled) {
      --s.cancelled;
      free_slot(it.slot);
      return true;
    }
    return false;
  };
  // remove_if preserves the relative order of survivors, so a sorted
  // current bucket stays sorted and FIFO order is unaffected.
  for_each_occupied([&](std::vector<Item>& b) {
    b.erase(std::remove_if(b.begin(), b.end(), dead), b.end());
  });
  overflow_.erase(std::remove_if(overflow_.begin(), overflow_.end(), dead),
                  overflow_.end());
  std::make_heap(overflow_.begin(), overflow_.end(), kLater);
}

}  // namespace myri::sim
