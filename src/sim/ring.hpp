// FIFO ring over one power-of-two buffer: the queue type of the message
// path (a card's receive queue and receive-token pool, a stream's unacked
// messages, a port's host event queue).
//
// std::deque allocates and frees a node every few hundred bytes of
// traffic; a ring reuses its slots, so once it has grown to the depth its
// queue actually reaches it never allocates again. It keeps everything a
// deque gave its users: FIFO push_back/take_front, push_front, indexing
// from the front, and an order-keeping erase from the middle. Growth
// doubles the buffer and moves the elements in order, so references do
// not survive a push into a full ring (none of its users hold one across
// a push). Slots hold default-constructed values; a taken slot keeps the
// moved-from value until overwritten, and clear() resets the live ones.
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace myri::sim {

template <typename T>
class Ring {
  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    Iter(std::conditional_t<Const, const Ring*, Ring*> r, std::size_t i)
        : r_(r), i_(i) {}
    reference operator*() const { return (*r_)[i_]; }
    pointer operator->() const { return &(*r_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter t = *this;
      ++i_;
      return t;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    std::conditional_t<Const, const Ring*, Ring*> r_ = nullptr;
    std::size_t i_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  Ring() = default;
  // A moved-from ring is empty, with no buffer.
  Ring(Ring&& o) noexcept
      : buf_(std::move(o.buf_)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  Ring& operator=(Ring&& o) noexcept {
    buf_ = std::move(o.buf_);
    cap_ = std::exchange(o.cap_, 0);
    head_ = std::exchange(o.head_, 0);
    size_ = std::exchange(o.size_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Element `i` counted from the front.
  [[nodiscard]] T& operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    buf_[wrap(head_ + size_)] = v;
    ++size_;
  }
  void push_back(T&& v) {
    if (size_ == cap_) grow(size_ + 1);
    buf_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }
  void push_front(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    head_ = wrap(head_ + cap_ - 1);
    buf_[head_] = v;
    ++size_;
  }
  /// Move the front element out and pop it.
  T take_front() {
    T v = std::move(buf_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }
  /// Remove element `i`, keeping the order of the rest.
  void erase(std::size_t i) {
    for (std::size_t k = i; k + 1 < size_; ++k) {
      (*this)[k] = std::move((*this)[k + 1]);
    }
    (*this)[size_ - 1] = T{};
    --size_;
  }
  void clear() {
    for (std::size_t k = 0; k < size_; ++k) (*this)[k] = T{};
    head_ = 0;
    size_ = 0;
  }
  /// Room for `n` elements without growing (rounded up to a power of two).
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i & (cap_ - 1);
  }
  void grow(std::size_t need) {
    std::size_t cap = cap_ == 0 ? 8 : cap_ * 2;
    while (cap < need) cap *= 2;
    std::vector<T> next(cap);
    for (std::size_t k = 0; k < size_; ++k) next[k] = std::move((*this)[k]);
    buf_ = std::move(next);
    cap_ = cap;
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t cap_ = 0;  // buf_.size(): zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace myri::sim
