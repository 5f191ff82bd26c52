// PageVec<T>: column storage as a pointer and a length into shared,
// append-only storage.
//
// Every column kind stores its rows in one of these instead of a bare
// std::vector, so that copying a Table costs O(columns) and a
// snapshot-backed table can alias memory-mapped pages with zero copies.
// A PageVec views the first size() rows of one storage block, which every
// copy shares through a reference count. The block is either
//
//   * a heap buffer: fresh, not zero-filled (untouched capacity stays out
//     of RSS), and aligned as operator new aligns std::vector's; or
//   * a snapshot mapping: read-only pages pinned alive by a shared_ptr.
//
// Reads never care which: data()/size()/operator[] and the pointer
// iterators make a PageVec a contiguous range, so the query engine's
// std::span hoists and every range-for over codes()/masks() compile
// unchanged.
//
// Appends extend in place when they can. A heap block records its tail,
// the end of the bytes some holder has claimed, and no holder reads past
// its own length. A copy whose rows end at the tail claims the next rows
// with one compare-and-swap and writes them in place, so
// `copy = base; copy.append(block)` costs O(block) and leaves base's rows
// and bytes untouched. Of several copies of one vector only the first to
// append wins the claim; the others fork. A sole holder owns the whole
// block and needs no claim; copying it publishes its length as the tail.
//
// Everything else takes one copy path: the rows are copied into a fresh
// private buffer with doubling growth, and the copied bytes are counted in
// the data.copy.bytes metric. That covers a mapping (its first append or
// set materializes it), a lost claim (a fork), a full buffer, and a set()
// on rows another copy may read (copy-on-write).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace rcr::data {

namespace detail {

// One storage block. refs counts the PageVecs that view it.
struct PageBlock {
  std::atomic<std::size_t> refs{1};
  std::atomic<std::size_t> tail{0};  // bytes claimed, heap buffers only
  std::byte* heap = nullptr;         // the buffer; null for a mapping
  std::shared_ptr<const void> pin;   // keeps a mapping alive
};

// The untyped half of PageVec: a byte length and a counted reference into
// one PageBlock. Non-template, so the claim, growth and copy path compile
// once.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef& other) noexcept
      : block_(other.block_),
        data_(other.data_),
        size_(other.size_),
        capacity_(other.capacity_) {
    if (block_ == nullptr) return;
    // A sole holder appends without moving the tail; publish its rows
    // before a second holder can claim past them.
    std::size_t tail = block_->tail.load(std::memory_order_relaxed);
    while (tail < size_ &&
           !block_->tail.compare_exchange_weak(tail, size_,
                                               std::memory_order_relaxed)) {
    }
    block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PageRef(PageRef&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  PageRef& operator=(PageRef other) noexcept {
    std::swap(block_, other.block_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~PageRef() { release(); }

  static PageRef borrowed(const void* data, std::size_t bytes,
                          std::shared_ptr<const void> pin);

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool is_borrowed() const { return block_ != nullptr && capacity_ == 0; }

  // Grows the view by n > 0 bytes and returns where they start, for the
  // caller to fill.
  std::byte* extend(std::size_t n) {
    if (size_ + n <= capacity_ && sole_owner()) {
      std::byte* out = writable_rows() + size_;
      size_ += n;
      return out;
    }
    return extend_shared(n);
  }

  // The rows, writable: in place for a sole holder, else copied first.
  std::byte* writable() {
    if (capacity_ == 0 || !sole_owner()) reallocate(grown(size_));
    return writable_rows();
  }

  void clear();

 private:
  // True when no other PageVec views this block. The acquire load pairs
  // with release()'s decrement, so a former sibling's reads happen before
  // this holder's writes.
  bool sole_owner() const {
    return block_->refs.load(std::memory_order_acquire) == 1;
  }
  // Only heap buffers (capacity_ > 0) are ever written.
  std::byte* writable_rows() const { return const_cast<std::byte*>(data_); }
  std::size_t grown(std::size_t need) const;
  std::byte* extend_shared(std::size_t n);
  void reallocate(std::size_t capacity);
  void release() noexcept;

  PageBlock* block_ = nullptr;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;      // bytes
  std::size_t capacity_ = 0;  // the block's; 0 for a mapping or no block
};

}  // namespace detail

template <typename T>
class PageVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "PageVec copies rows as raw bytes");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "heap buffers have operator new's default alignment");

 public:
  using value_type = T;
  using const_iterator = const T*;

  PageVec() = default;

  // A read-only view of [data, data + size); `pin` keeps the underlying
  // storage (the file mapping) alive for as long as any copy of this view
  // exists. data may be null only when size is 0.
  static PageVec borrowed(const T* data, std::size_t size,
                          std::shared_ptr<const void> pin) {
    PageVec v;
    v.rows_ = detail::PageRef::borrowed(data, size * sizeof(T), std::move(pin));
    return v;
  }

  bool is_borrowed() const { return rows_.is_borrowed(); }

  const T* data() const { return reinterpret_cast<const T*>(rows_.data()); }
  std::size_t size() const { return rows_.size() / sizeof(T); }
  bool empty() const { return rows_.size() == 0; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  const T& back() const { return data()[size() - 1]; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }

  // Drops all elements. A sole holder of a heap buffer keeps its capacity;
  // a shared view lets go of it.
  void clear() { rows_.clear(); }

  void push_back(const T& v) {
    std::memcpy(rows_.extend(sizeof(T)), &v, sizeof(T));
  }

  void set(std::size_t i, const T& v) {
    std::memcpy(rows_.writable() + i * sizeof(T), &v, sizeof(T));
  }

  void append(const PageVec& other) { append(other, 0, other.size()); }

  // Appends other[lo, hi).
  void append(const PageVec& other, std::size_t lo, std::size_t hi) {
    const std::size_t bytes = (hi - lo) * sizeof(T);
    if (bytes == 0) return;
    std::byte* dst = rows_.extend(bytes);
    // Read the source only now: a self-append that took the copy path has
    // moved this vector's rows.
    std::memcpy(dst, other.data() + lo, bytes);
  }

  friend bool operator==(const PageVec& a, const PageVec& b) {
    if (a.size() != b.size()) return false;
    if (a.size() == 0) return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
  }

 private:
  detail::PageRef rows_;
};

}  // namespace rcr::data
