// Bounded single-producer/single-consumer ring with batched publishing.
//
// The producer fills slots in place (claim, then push) and the consumer
// reads them in place (front, then pop), so a slot's heap capacity is
// reused from lap to lap. Each side publishes its position to the other
// once per `batch` slots, not per slot, so the two cores trade the
// position cache lines a batch at a time. A side that runs out (the
// producer on a full ring, the consumer on an empty one) first publishes
// what it has, then blocks in std::atomic::wait until the other side
// publishes: no spin loop of ours, and the last partial batch can never
// strand both sides asleep. close() publishes the rest and ends the
// stream; front() then returns null once the ring is drained.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace pod {

template <typename T>
class SpscRing {
 public:
  /// `capacity` slots; positions are published every `batch` slots
  /// (clamped to [1, capacity]).
  explicit SpscRing(std::size_t capacity, std::size_t batch = 1)
      : slots_(capacity),
        batch_(batch == 0 ? 1 : (batch > capacity ? capacity : batch)) {
    POD_CHECK(capacity > 0);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // ---- producer ------------------------------------------------------

  /// The next free slot, blocking while the ring is full.
  T& claim() {
    while (head_ - tail_seen_ == slots_.size()) {
      publish_head(head_);
      tail_seen_ = shared_tail_.load(std::memory_order_acquire);
      if (head_ - tail_seen_ != slots_.size()) break;
      shared_tail_.wait(tail_seen_, std::memory_order_acquire);
      tail_seen_ = shared_tail_.load(std::memory_order_acquire);
    }
    return slots_[head_ % slots_.size()];
  }

  /// Hands the claimed slot to the consumer (visible by the next publish).
  void push() {
    ++head_;
    if (head_ - head_published_ >= batch_) publish_head(head_);
  }

  /// Publishes every pushed slot and ends the stream.
  void close() { publish_head(head_ | kClosed); }

  // ---- consumer ------------------------------------------------------

  /// The oldest unread slot, blocking while the ring is empty; null once
  /// the producer has closed the ring and every slot has been read.
  T* front() {
    while (tail_ == (head_seen_ & ~kClosed)) {
      if ((head_seen_ & kClosed) != 0) return nullptr;
      publish_tail(tail_);
      const std::uint64_t seen = head_seen_;
      head_seen_ = shared_head_.load(std::memory_order_acquire);
      if (head_seen_ != seen) continue;
      shared_head_.wait(seen, std::memory_order_acquire);
      head_seen_ = shared_head_.load(std::memory_order_acquire);
    }
    return &slots_[tail_ % slots_.size()];
  }

  /// Returns the slot front() gave out to the producer.
  void pop() {
    ++tail_;
    if (tail_ - tail_published_ >= batch_) publish_tail(tail_);
  }

 private:
  static constexpr std::uint64_t kClosed = std::uint64_t{1} << 63;

  void publish_head(std::uint64_t h) {
    if (h == head_published_) return;
    head_published_ = h;
    shared_head_.store(h, std::memory_order_release);
    shared_head_.notify_one();
  }
  void publish_tail(std::uint64_t t) {
    if (t == tail_published_) return;
    tail_published_ = t;
    shared_tail_.store(t, std::memory_order_release);
    shared_tail_.notify_one();
  }

  std::vector<T> slots_;
  const std::size_t batch_;

  // The published positions, one cache line each; the head carries
  // kClosed once the stream has ended.
  alignas(64) std::atomic<std::uint64_t> shared_head_{0};
  alignas(64) std::atomic<std::uint64_t> shared_tail_{0};

  // Producer-private.
  alignas(64) std::uint64_t head_ = 0;
  std::uint64_t head_published_ = 0;
  std::uint64_t tail_seen_ = 0;

  // Consumer-private.
  alignas(64) std::uint64_t tail_ = 0;
  std::uint64_t tail_published_ = 0;
  std::uint64_t head_seen_ = 0;
};

}  // namespace pod
