#include "data/page_vec.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace rcr::data::detail {

namespace {

constexpr std::size_t kMinBytes = 64;

obs::Counter& copy_bytes() {
  static obs::Counter& c = obs::registry().counter("data.copy.bytes");
  return c;
}

}  // namespace

PageRef PageRef::borrowed(const void* data, std::size_t bytes,
                          std::shared_ptr<const void> pin) {
  PageRef r;
  r.block_ = new PageBlock;
  r.block_->pin = std::move(pin);
  r.data_ = static_cast<const std::byte*>(data);
  r.size_ = bytes;
  return r;
}

std::size_t PageRef::grown(std::size_t need) const {
  return std::max({need, 2 * size_, kMinBytes});
}

std::byte* PageRef::extend_shared(std::size_t n) {
  const std::size_t end = size_ + n;
  if (end <= capacity_) {
    // Only the holder whose rows end at the claimed tail may claim more.
    std::size_t expected = size_;
    if (block_->tail.compare_exchange_strong(expected, end,
                                             std::memory_order_acq_rel)) {
      std::byte* out = writable_rows() + size_;
      size_ = end;
      return out;
    }
  }
  reallocate(grown(end));
  std::byte* out = writable_rows() + size_;
  size_ = end;
  return out;
}

// The one copy path: this holder's rows move into a fresh private buffer
// of `capacity` bytes. Plain operator new aligns it as std::vector would;
// an over-aligned request goes through glibc's memalign, whose freed
// buffers stayed resident and raised peak RSS by half on a serving set-up.
void PageRef::reallocate(std::size_t capacity) {
  auto fresh = std::make_unique<PageBlock>();
  fresh->heap = static_cast<std::byte*>(::operator new(capacity));
  if (size_ > 0) {
    std::memcpy(fresh->heap, data_, size_);
    copy_bytes().add(size_);
  }
  release();
  block_ = fresh.release();
  data_ = block_->heap;
  capacity_ = capacity;
}

void PageRef::clear() {
  if (capacity_ > 0 && sole_owner()) {
    block_->tail.store(0, std::memory_order_relaxed);
  } else {
    release();
    block_ = nullptr;
    data_ = nullptr;
    capacity_ = 0;
  }
  size_ = 0;
}

void PageRef::release() noexcept {
  if (block_ == nullptr ||
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  if (block_->heap != nullptr) ::operator delete(block_->heap);
  delete block_;
}

}  // namespace rcr::data::detail
