// Bounded lock-free single-producer/single-consumer ring buffer: the
// frame channel between the pipeline's dispatcher and each worker shard.
//
// Design (the classic Lamport queue with index caching):
//  - head_ (consumer cursor) and tail_ (producer cursor) are monotonically
//    increasing uint64 counters; the slot index is `cursor & mask_`.
//  - The producer publishes a slot with a release store of tail_; the
//    consumer observes it with an acquire load — the only synchronization
//    on the hot path. No CAS, no locks, no allocation.
//  - Each side caches the other side's cursor (head_cache_/tail_cache_) so
//    the common case touches a single shared atomic, not two; the caches
//    live on their owner's cache line (alignas) to avoid false sharing.
//  - try_produce()/try_consume() expose the slot in place, so a producer
//    can write a slot (or reuse storage a slot owns) without a temporary.
//  - produced()/consumed() expose the two cursors, so a producer can tell
//    when the consumer is done with everything up to a given element and
//    reuse memory those elements pointed at (the pipeline's frame blocks).
//
//  - Batch variants (try_push_n/try_produce_n, try_pop_n/try_consume_n)
//    move several elements per acquire/release pair, amortizing the
//    cross-core cache-line bounce that dominates per-element cost at high
//    frame rates.
//
// Capacity is rounded up to a power of two. Strictly SPSC: one thread may
// call produce-side functions (try_push/try_produce and their _n batch
// forms), one thread consume-side functions (try_pop/try_consume and
// their _n batch forms). This confinement cannot be expressed to the
// generic thread-safety analysis (the ring is lock-free by design), so
// dnh-analyze's `ring-role` rule enforces it instead: every push/pop call
// site must carry a `// dnh-analyze: ring-producer` or
// `// dnh-analyze: ring-consumer` tag declaring which side of the
// contract its thread is on (see docs/static-analysis.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dnh::pipeline {

template <typename T>
class SpscRing {
 public:
  /// Allocates all slots up front; capacity is `min_capacity` rounded up
  /// to a power of two (minimum 2).
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t capacity = 2;
    while (capacity < min_capacity) capacity <<= 1;
    buffer_.resize(capacity);
    mask_ = capacity - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer: moves `value` into the ring. False when full.
  bool try_push(T&& value) {
    return try_produce([&](T& slot) { slot = std::move(value); });
  }

  /// Producer: invokes `fill(slot)` on the next free slot, then publishes
  /// it. The slot retains whatever state the previous occupant left
  /// (recycled buffers), which `fill` may exploit. False when full.
  template <typename Fill>
  bool try_produce(Fill&& fill) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    fill(buffer_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer: batch try_produce. Invokes `fill(slot, i)` for i in
  /// [0, n) on consecutive free slots, publishing them all with ONE
  /// release store — the acquire/release pair is paid per batch, not per
  /// element. Returns how many were produced: min(n, free slots), 0 when
  /// full. Partial success is normal under backpressure; the caller
  /// retries or sheds the remainder.
  template <typename Fill>
  std::size_t try_produce_n(std::size_t n, Fill&& fill) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t free = mask_ + 1 - (tail - head_cache_);
    if (free < n) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = mask_ + 1 - (tail - head_cache_);
    }
    const std::size_t count = free < n ? static_cast<std::size_t>(free) : n;
    for (std::size_t i = 0; i < count; ++i)
      fill(buffer_[(tail + i) & mask_], i);
    if (count > 0)
      tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  /// Producer: batch try_push. Moves elements from `first` until the ring
  /// fills or `n` are pushed; returns how many were taken.
  std::size_t try_push_n(T* first, std::size_t n) {
    return try_produce_n(
        n, [&](T& slot, std::size_t i) { slot = std::move(first[i]); });
  }

  /// Consumer: moves the oldest element into `out`. False when empty.
  bool try_pop(T& out) {
    return try_consume([&](T& slot) { out = std::move(slot); });
  }

  /// Consumer: invokes `use(slot)` on the oldest element, then releases
  /// the slot back to the producer. False when empty.
  template <typename Use>
  bool try_consume(Use&& use) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    use(buffer_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: batch try_consume. Invokes `use(slot, i)` for i in
  /// [0, count) over up to `max_n` pending elements, releasing them all
  /// with ONE release store. Returns count (0 when empty).
  template <typename Use>
  std::size_t try_consume_n(std::size_t max_n, Use&& use) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = tail_cache_ - head;
    if (avail < max_n) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
    }
    const std::size_t count =
        avail < max_n ? static_cast<std::size_t>(avail) : max_n;
    for (std::size_t i = 0; i < count; ++i)
      use(buffer_[(head + i) & mask_], i);
    if (count > 0)
      head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Consumer: batch try_pop. Moves up to `max_n` oldest elements into
  /// `out`; returns how many were popped.
  std::size_t try_pop_n(T* out, std::size_t max_n) {
    return try_consume_n(
        max_n, [&](T& slot, std::size_t i) { out[i] = std::move(slot); });
  }

  /// Approximate occupancy (exact only from the producer thread between
  /// its own operations); used for queue-depth high-water tracking.
  std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer: elements published so far (the tail cursor).
  std::uint64_t produced() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }

  /// Elements the consumer has released so far (the head cursor). The
  /// acquire pairs with the consumer's release store, so its reads of the
  /// first consumed() elements — and of memory they point at — happen
  /// before whatever the caller does next.
  std::uint64_t consumed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> buffer_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
  alignas(64) std::uint64_t head_cache_ = 0;  ///< producer's view of head_
  alignas(64) std::uint64_t tail_cache_ = 0;  ///< consumer's view of tail_
};

}  // namespace dnh::pipeline
