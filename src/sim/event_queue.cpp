#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace myri::sim {

// ---- event slab ----------------------------------------------------------
//
// Every scheduled event occupies one pooled Entry. Its closure is built in
// the entry (InlineCallback::emplace), runs there and is destroyed there
// (InlineCallback::run_once), so the steady-state hot path neither
// allocates nor copies a closure. The pool grows by chunks that never
// move, which is what lets a callback run in place while it schedules
// enough events to grow the pool; an entry is constructed when its slot is
// first handed out, so the untouched tail of a chunk costs no memory. A
// slot is freed only after its event has left both tiers, so a queue key
// never meets a recycled slot and carries no generation; the generation
// is for Handles alone, and it moves on when the event starts running or
// its slot is freed. Handles hold a weak_ptr to the queue's Slab, which
// makes a Handle outliving its queue a safe no-op.

// While the event is queued its callback is empty only if it was
// cancelled. `at` and `tie` rebuild the event's key when the far tier
// pours it into the near one; `next` links the far bucket list or, once
// freed, the free list. Three cache lines, the last holding the
// callback's vtable pointer next to the bookkeeping.
struct alignas(64) EventQueue::Entry {
  Callback cb;
  Time at = 0;
  std::uint64_t tie = 0;
  Time scheduled_at = 0;
  std::uint32_t next = kNoSlot;
  std::uint32_t gen = 0;
};

struct EventQueue::Slab {
  static_assert(sizeof(Entry) == 192);
  static_assert(std::is_standard_layout_v<Entry> && offsetof(Entry, cb) == 0);
  EventQueue* owner;
};

// The per-event paths below are forced inline into claim() and into
// run_until() and step(), so each event costs two calls into the queue.
#define MYRI_EQ_INLINE inline __attribute__((always_inline))

MYRI_EQ_INLINE EventQueue::Entry& EventQueue::entry(
    std::uint32_t slot) const noexcept {
  // The first chunk holds most queues whole. Chunk k starts at slot
  // 256 * (2^k - 1).
  if (slot < (1u << kFirstChunkShift)) [[likely]] return chunk_[0][slot];
  const std::uint32_t q = (slot >> kFirstChunkShift) + 1;
  const int k = std::bit_width(q) - 1;
  return chunk_[k][slot + (1u << kFirstChunkShift) -
                   ((1u << kFirstChunkShift) << k)];
}

void EventQueue::Handle::cancel() {
  auto s = slab_.lock();
  if (!s || slot_ >= s->owner->slots_) return;
  EventQueue& q = *s->owner;
  Entry& e = q.entry(slot_);
  if (e.gen != gen_ || !e.cb) return;
  e.cb = nullptr;  // marks it cancelled; releases captures eagerly
  --q.live_;
  ++q.cancelled_;
}

bool EventQueue::Handle::pending() const {
  auto s = slab_.lock();
  if (!s || slot_ >= s->owner->slots_) return false;
  const Entry& e = s->owner->entry(slot_);
  return e.gen == gen_ && static_cast<bool>(e.cb);
}

namespace {

// Compaction triggers once at least this many cancelled entries have
// accumulated AND they outnumber the live events (see compact()).
constexpr std::size_t kCompactMin = 1024;

}  // namespace

EventQueue::EventQueue()
    : heads_(std::make_unique<std::uint32_t[]>(kBucketCount)),
      slab_(std::make_shared<Slab>(Slab{this})) {
  std::fill_n(heads_.get(), kBucketCount, kNoSlot);
}

EventQueue::~EventQueue() {
  slab_.reset();  // Handles go inert before any closure is destroyed
  for (std::uint32_t slot = 0; slot < slots_; ++slot) entry(slot).~Entry();
  for (Entry* c : chunk_) {
    if (c != nullptr) ::operator delete(c, std::align_val_t{alignof(Entry)});
  }
}

bool EventQueue::empty() const noexcept { return live_ == 0; }

std::size_t EventQueue::pending_events() const noexcept { return live_; }

std::size_t EventQueue::cancelled_pending() const noexcept {
  return cancelled_;
}

std::uint32_t EventQueue::grow_slab() {
  // The free list is empty: hand out the next never-used slot, opening a
  // new chunk when it starts one.
  const std::uint32_t slot = slots_;
  if (slot > kSlotMask) {
    throw std::length_error("EventQueue: more than 2^24 queued events");
  }
  const int k = std::bit_width((slot >> kFirstChunkShift) + 1) - 1;
  if (chunk_[k] == nullptr) {
    // Every queued event holds a slot, so the near heap grows with the
    // chunks and never needs more room than they have slots. Both arrays
    // are allocated before either is published, so a failed allocation
    // leaves the queue as it was.
    const std::size_t n = std::size_t{1} << (kFirstChunkShift + k);
    const std::size_t slots_now = 2 * n - (std::size_t{1} << kFirstChunkShift);
    std::unique_ptr<Key[]> bigger;
    if (near_cap_ < slots_now) bigger = std::make_unique<Key[]>(slots_now);
    auto* chunk = static_cast<Entry*>(::operator new(
        n * sizeof(Entry), std::align_val_t{alignof(Entry)}));
    if (bigger != nullptr) {
      std::copy_n(near_.get(), near_size_, bigger.get());
      near_ = std::move(bigger);
      near_cap_ = static_cast<std::uint32_t>(slots_now);
    }
    chunk_[k] = chunk;
  }
  ::new (static_cast<void*>(&entry(slot))) Entry();
  ++slots_;
  return slot;
}

MYRI_EQ_INLINE void EventQueue::push_free(std::uint32_t slot, Entry& e) {
  e.next = free_head_;
  free_head_ = slot;
  free_ = &e;
}

MYRI_EQ_INLINE std::uint32_t EventQueue::pop_free() {
  // The head's entry is known; look its successor up for the next claim.
  const std::uint32_t slot = free_head_;
  free_head_ = free_->next;
  free_ = free_head_ != kNoSlot ? &entry(free_head_) : nullptr;
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  Entry& e = entry(slot);
  ++e.gen;
  push_free(slot, e);
}

// ---- near tier: 4-ary min-heap ---------------------------------------------

namespace {

// Put `k` at hole `i` of the n-key heap `h` and sift it down. Returns the
// key that ends up at `i`.
template <typename K>
MYRI_EQ_INLINE K sift_down(K* h, std::size_t n, std::size_t i, K k) {
  K at_start = k;
  for (bool first_move = true;; first_move = false) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t m = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (h[c] < h[m]) m = c;
    }
    if (!(h[m] < k)) break;
    if (first_move) at_start = h[m];
    h[i] = h[m];
    i = m;
  }
  h[i] = k;
  return at_start;
}

}  // namespace

MYRI_EQ_INLINE void EventQueue::near_push(Key k, Entry& e) {
  Key* h = near_.get();
  std::size_t i = near_size_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(k < h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = k;
  if (i == 0) top_ = &e;
}

MYRI_EQ_INLINE void EventQueue::near_pop() {
  // Look the new earliest entry up while the current event runs, so the
  // next pop starts without a dependent slab lookup.
  const std::size_t n = --near_size_;
  const Key root = sift_down(near_.get(), n, 0, near_[n]);
  top_ = n != 0 ? &entry(key_slot(root)) : nullptr;
}

void EventQueue::near_heapify() {
  const std::size_t n = near_size_;
  for (std::size_t top = n / 4 + 1; top-- > 0;) {
    if (top < n) sift_down(near_.get(), n, top, near_[top]);
  }
  top_ = n != 0 ? &entry(key_slot(near_[0])) : nullptr;
}

// ---- scheduling ------------------------------------------------------------

MYRI_EQ_INLINE std::uint64_t EventQueue::stamp(Entry& e, std::uint32_t slot,
                                               Time at) {
  e.at = at;
  e.tie = next_seq_++ << kSlotBits | slot;
  e.scheduled_at = now_;
  return e.tie;
}

EventQueue::Callback& EventQueue::claim(Time at) {
  at = std::max(at, now_);
  // The common case, kept free of calls: a recycled slot, no sweep due,
  // an event for the near tier.
  if (free_ == nullptr || cancelled_ >= kCompactMin ||
      bucket_of(at) >= horizon_ || next_seq_ == kSeqLimit) [[unlikely]] {
    return claim_slow(at);
  }
  ++live_;
  Entry& e = *free_;
  const std::uint32_t slot = pop_free();
  near_push(make_key(at, stamp(e, slot, at)), e);
  return e.cb;
}

EventQueue::Callback& EventQueue::claim_slow(Time at) {
  if (next_seq_ == kSeqLimit) {
    throw std::overflow_error("EventQueue: sequence numbers exhausted");
  }
  // Sweep before the new entry is queued: its callback is still empty, and
  // a queued entry with an empty callback reads as cancelled. The new
  // event is not counted yet, so the cancelled entries must outnumber the
  // live events with it included.
  if (cancelled_ >= kCompactMin && cancelled_ > live_) compact();
  // grow_slab() may throw; count the event only once it has a slot.
  const std::uint32_t slot = free_ != nullptr ? pop_free() : grow_slab();
  ++live_;
  Entry& e = entry(slot);
  const std::uint64_t tie = stamp(e, slot, at);
  if (bucket_of(at) < horizon_) {
    near_push(make_key(at, tie), e);
  } else {
    far_push(slot, at);
  }
  return e.cb;
}

void EventQueue::unclaim() noexcept {
  --live_;
  ++cancelled_;
}

void EventQueue::require_callable(bool callable) {
  if (!callable) throw std::invalid_argument("EventQueue: empty callback");
}

EventQueue::Handle EventQueue::schedule_at(Time at, Callback cb) {
  require_callable(static_cast<bool>(cb));
  Callback& slot_cb = claim(at);
  slot_cb.emplace(std::move(cb));
  // The callback is the entry's first member, so its address is the
  // entry's.
  const Entry& e = *std::launder(reinterpret_cast<const Entry*>(&slot_cb));
  return Handle(slab_, key_slot(e.tie), e.gen);
}

// ---- far tier: occupancy bitmap -------------------------------------------

void EventQueue::mark_occupied(std::uint64_t idx) noexcept {
  occ_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  occ_summary_ |= std::uint64_t{1} << (idx >> 6);
}

void EventQueue::mark_empty(std::uint64_t idx) noexcept {
  std::uint64_t& w = occ_[idx >> 6];
  w &= ~(std::uint64_t{1} << (idx & 63));
  if (w == 0) occ_summary_ &= ~(std::uint64_t{1} << (idx >> 6));
}

bool EventQueue::occupied(std::uint64_t idx) const noexcept {
  return (occ_[idx >> 6] >> (idx & 63) & 1) != 0;
}

std::uint64_t EventQueue::next_occupied(std::uint64_t idx) const noexcept {
  // First occupied bucket index at or after `idx`, wrapping past 4095 to
  // 0. Precondition: some bucket is occupied (occ_summary_ != 0).
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
  // Visits every non-empty bucket's list head by index. `f` may empty the
  // list; the bitmap is brought up to date after it returns.
  for (std::uint64_t sum = occ_summary_; sum != 0; sum &= sum - 1) {
    const std::uint64_t w = std::countr_zero(sum);
    for (std::uint64_t bits = occ_[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t idx = (w << 6) | std::countr_zero(bits);
      f(heads_[idx]);
      if (heads_[idx] == kNoSlot) mark_empty(idx);
    }
  }
}

// ---- far tier: calendar ----------------------------------------------------

void EventQueue::far_push(std::uint32_t slot, Time at) {
  const std::uint64_t idx = bucket_of(at) & kBucketMask;
  entry(slot).next = heads_[idx];
  heads_[idx] = slot;
  mark_occupied(idx);
  ++far_size_;
}

void EventQueue::pour(std::uint64_t bn) {
  // Move bucket number `bn`'s events into the near tier; events of later
  // ring turns stay. Cancelled entries have left the queue and are freed.
  const std::uint64_t idx = bn & kBucketMask;
  std::uint32_t* link = &heads_[idx];
  while (*link != kNoSlot) {
    const std::uint32_t slot = *link;
    Entry& e = entry(slot);
    if (bucket_of(e.at) != bn) {
      link = &e.next;
      continue;
    }
    *link = e.next;
    --far_size_;
    if (e.cb) {
      near_push(make_key(e.at, e.tie), e);
    } else {
      --cancelled_;
      free_slot(slot);
    }
  }
  if (heads_[idx] == kNoSlot) mark_empty(idx);
}

__attribute__((noinline)) void EventQueue::pour_until(std::uint64_t target) {
  // Raise the horizon to `target`, pouring each bucket it passes.
  for (; horizon_ < target; ++horizon_) {
    if (occupied(horizon_ & kBucketMask)) pour(horizon_);
  }
}

std::uint64_t EventQueue::earliest_far_bucket() {
  std::uint64_t best = ~std::uint64_t{0};
  for_each_occupied([&](std::uint32_t& head) {
    for (std::uint32_t slot = head; slot != kNoSlot;) {
      const Entry& e = entry(slot);
      best = std::min(best, bucket_of(e.at));
      slot = e.next;
    }
  });
  return best;
}

__attribute__((noinline)) bool EventQueue::refill(bool bounded, Time limit) {
  // The near tier is empty, so the next event is in the far tier's first
  // bucket number at or past the horizon that holds an event. The bitmap
  // names the next non-empty bucket index; its list may hold only later
  // ring turns, so after a whole turn without a find, look the earliest
  // bucket number up instead of turning again.
  std::uint64_t swept = 0;
  while (near_size_ == 0) {
    if (far_size_ == 0) return false;
    const std::uint64_t idx = horizon_ & kBucketMask;
    const std::uint64_t dist = (next_occupied(idx) - idx) & kBucketMask;
    std::uint64_t bn = horizon_ + dist;
    swept += dist + kLead;
    if (swept > kBucketCount) {
      bn = earliest_far_bucket();
      swept = 0;
    }
    // A bounded run leaves what lies past its limit's bucket in place.
    if (bounded && bn > bucket_of(limit)) return false;
    horizon_ = bn;
    pour_until(bn + kLead);
  }
  return true;
}

// ---- running events -------------------------------------------------------

MYRI_EQ_INLINE bool EventQueue::pop_and_run(bool bounded, Time limit) {
  while (live_ > 0) {
    if (near_size_ == 0 && !refill(bounded, limit)) return false;
    const Key k = near_[0];
    const std::uint32_t slot = key_slot(k);
    Entry& e = *top_;
    assert(&e == &entry(slot) && e.tie == static_cast<std::uint64_t>(k) &&
           "a queued key's slot was recycled");
    if (!e.cb) {  // cancelled
      near_pop();
      --cancelled_;
      free_slot(slot);
      continue;
    }
    if (bounded && key_at(k) > limit) return false;
    near_pop();
    now_ = key_at(k);
    --live_;
    ++executed_;
    // Keep the horizon kLead buckets ahead of the clock, so events the
    // callback schedules into the near future go straight to the heap.
    if (bucket_of(now_) + kLead > horizon_) {
      if (far_size_ == 0) {
        horizon_ = bucket_of(now_) + kLead;
      } else {
        pour_until(bucket_of(now_) + kLead);
      }
    }
    // Retire the event before it runs: its own Handle is inert from here
    // on, so the callback may schedule or cancel freely, including
    // rescheduling itself. The slot rejoins the free list only after the
    // callback returns, so nothing the callback schedules can land in it;
    // the closure runs in place at a stable address and is destroyed
    // there when it returns.
    ++e.gen;
    cur_scheduled_at_ = e.scheduled_at;
    cur_seq_ = e.tie >> kSlotBits;
    e.cb.run_once();
    cur_scheduled_at_ = kNotExecuting;
    cur_seq_ = kAfterAll;
    push_free(slot, e);
    return true;
  }
  reclaim_all();
  return false;
}

bool EventQueue::step() {
  if (live_ == 0) {
    reclaim_all();
    return false;
  }
  return pop_and_run(false, 0);
}

std::size_t EventQueue::run_until(Time t) {
  const std::uint64_t before = executed_;
  while (pop_and_run(true, t)) {
  }
  now_ = std::max(now_, t);
  if (far_size_ == 0) horizon_ = std::max(horizon_, bucket_of(now_) + kLead);
  return static_cast<std::size_t>(executed_ - before);
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

__attribute__((noinline)) void EventQueue::reclaim_all() {
  // No live events remain: every entry still queued is cancelled. Free
  // them all and bring the horizon back to the clock.
  for (std::size_t i = 0; i < near_size_; ++i) free_slot(key_slot(near_[i]));
  near_size_ = 0;
  top_ = nullptr;
  for_each_occupied([&](std::uint32_t& head) {
    while (head != kNoSlot) {
      const std::uint32_t slot = head;
      head = entry(slot).next;
      free_slot(slot);
    }
  });
  cancelled_ = 0;
  far_size_ = 0;
  horizon_ = bucket_of(now_) + kLead;
}

void EventQueue::compact() {
  // Runs from claim() once at least kCompactMin cancelled entries have
  // accumulated AND they outnumber the live events. Long-horizon soaks
  // cancel retry timers far faster than the clock reaches them; sweep the
  // dead entries out so queue memory tracks the live population instead
  // of the cancellation history. Dropping keys never changes the order of
  // the survivors.
  ++compactions_;
  const auto dead = [&](std::uint32_t slot) {
    if (entry(slot).cb) return false;
    --cancelled_;
    free_slot(slot);
    return true;
  };
  Key* h = near_.get();
  near_size_ = static_cast<std::size_t>(
      std::remove_if(h, h + near_size_,
                     [&](Key k) { return dead(key_slot(k)); }) -
      h);
  near_heapify();
  for_each_occupied([&](std::uint32_t& head) {
    std::uint32_t* link = &head;
    while (*link != kNoSlot) {
      const std::uint32_t slot = *link;
      const std::uint32_t next = entry(slot).next;
      if (dead(slot)) {
        *link = next;
        --far_size_;
      } else {
        link = &entry(slot).next;
      }
    }
  });
}

#undef MYRI_EQ_INLINE

}  // namespace myri::sim
