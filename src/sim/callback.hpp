// Move-only callable wrapper with inline storage: the one callback type
// on the simulator's hot paths.
//
// Every scheduled event owns one callback (EventQueue::Callback,
// InlineCallback<152>). The steps on the message path reach it without a
// wrapper of their own: the host CPU and PCI models forward the caller's
// closure to EventQueue::post_at, and the MCP's exec/post_event wrap their
// guard around the caller's step and hand the whole closure over in one
// piece. A closure is type-erased exactly once, and the event queue builds
// it in its slab entry (emplace), then runs and destroys it there with one
// indirect call (run_once), so the steady-state message path does no heap
// allocation per step. A std::function per step would
// allocate for every closure past its 16-byte buffer; a captured Packet
// alone is 128 bytes. Only oversized or throwing-move callables fall back
// to the heap; hot-path wrappers static_assert fits_inline<> so a closure
// that outgrows the buffer is a compile error, not a silent allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace myri::sim {

template <std::size_t Capacity>
class InlineCallback {
 public:
  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(runtime/explicit)
    construct(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& o) noexcept { steal(o); }
  InlineCallback& operator=(InlineCallback&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  InlineCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  /// Replace the held callable: build `f` in this object's own buffer
  /// (or take over another InlineCallback's), with no temporary in
  /// between. This is how the event queue builds a closure in its slab
  /// entry.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      static_assert(!std::is_lvalue_reference_v<F>, "move the callback in");
      steal(f);
    } else {
      construct(std::forward<F>(f));
    }
  }

  void operator()() { vt_->invoke(buf_); }
  explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Run the held callable once, then destroy it, with one indirect call;
  /// this object is empty from the moment the call starts. The event
  /// queue runs every event this way, in place in its slab entry.
  void run_once() {
    const VTable* vt = vt_;
    vt_ = nullptr;
    vt->run_once(buf_);
  }

  /// True when a callable of type Fn lives in the inline buffer rather
  /// than behind a heap pointer (exposed for tests/bench assertions).
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    // Invoke, then destroy (also when the call throws).
    void (*run_once)(void*);
    // Move-construct dst from src, then destroy src's callable.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static Fn* as(void* p) {
    return std::launder(reinterpret_cast<Fn*>(p));
  }

  template <typename Fn>
  struct DestroyAfter {  // destroys the callable when the call returns
    Fn* fn;
    ~DestroyAfter() { fn->~Fn(); }
  };

  template <typename Fn>
  static constexpr VTable kInlineVt = {
      [](void* p) { (*as<Fn>(p))(); },
      [](void* p) {
        const DestroyAfter<Fn> guard{as<Fn>(p)};
        (*guard.fn)();
      },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*as<Fn>(src)));
        as<Fn>(src)->~Fn();
      },
      [](void* p) { as<Fn>(p)->~Fn(); },
  };

  // Heap fallback stores a raw Fn* in the buffer; the pointer itself is
  // trivially destructible, so relocation is a plain pointer copy.
  template <typename Fn>
  static constexpr VTable kHeapVt = {
      [](void* p) { (**as<Fn*>(p))(); },
      [](void* p) {
        const std::unique_ptr<Fn> fn(*as<Fn*>(p));
        (*fn)();
      },
      [](void* dst, void* src) { ::new (dst) Fn*(*as<Fn*>(src)); },
      [](void* p) { delete *as<Fn*>(p); },
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVt<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &kHeapVt<Fn>;
    }
  }

  void steal(InlineCallback& o) noexcept {
    if (o.vt_ != nullptr) {
      o.vt_->relocate(buf_, o.buf_);
      vt_ = o.vt_;
      o.vt_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const VTable* vt_ = nullptr;
};

}  // namespace myri::sim
