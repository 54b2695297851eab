// Fixed-capacity byte ring for per-connection send queues.
//
// The TCP backend parks the bytes the kernel did not take here instead of
// growing an unbounded vector: write() is all-or-nothing, so the moment a
// peer stops draining, send attempts start failing and the caller (the
// transport) surfaces backpressure instead of buffering toward OOM.
// write() copies in at most two runs (up to the end of storage, then from
// its start); peek()/consume() expose the longest contiguous run so the
// socket path can hand memory straight to send() without copying out.
//
// The storage is allocated without being zero-filled and is not touched
// until bytes are parked in it, so an idle connection's ring costs address
// space, not resident memory.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "common/check.hpp"

namespace fedbiad::transport {

class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : data_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity)),
        capacity_(capacity) {
    FEDBIAD_CHECK(capacity > 0, "ring buffer capacity must be positive");
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t free_space() const noexcept {
    return capacity_ - size_;
  }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Appends all of `bytes` or nothing. Returns false (and leaves the ring
  /// untouched) when free_space() is insufficient — the backpressure signal.
  bool write(std::span<const std::uint8_t> bytes) {
    if (bytes.size() > free_space()) return false;
    if (bytes.empty()) return true;
    const std::size_t tail =
        head_ < capacity_ - size_ ? head_ + size_ : head_ + size_ - capacity_;
    const std::size_t first = std::min(bytes.size(), capacity_ - tail);
    std::memcpy(data_.get() + tail, bytes.data(), first);
    std::memcpy(data_.get(), bytes.data() + first, bytes.size() - first);
    size_ += bytes.size();
    return true;
  }

  /// Longest contiguous readable run starting at the head (empty span when
  /// the ring is empty). After the caller ships some prefix of it, call
  /// consume() with the shipped byte count; the next peek() exposes the
  /// wrapped remainder.
  [[nodiscard]] std::span<const std::uint8_t> peek() const noexcept {
    if (size_ == 0) return {};
    const std::size_t run = std::min(size_, capacity_ - head_);
    return {data_.get() + head_, run};
  }

  /// Discards `n` bytes from the head (n <= size()).
  void consume(std::size_t n) {
    FEDBIAD_CHECK(n <= size_, "ring buffer consume past contents");
    head_ = (head_ + n) % capacity_;
    size_ -= n;
    if (size_ == 0) head_ = 0;
  }

 private:
  std::unique_ptr<std::uint8_t[]> data_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fedbiad::transport
