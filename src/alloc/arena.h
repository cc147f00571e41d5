// Pre-allocated element pools.
//
// OpenCL 1.2 kernels cannot malloc; the paper builds a software dynamic
// memory allocator over a pre-allocated array (Section 3.3, after Hong et
// al. MapCG). An Arena is such an array: `capacity` fixed-size elements.
// Allocators (basic_allocator.h, block_allocator.h) hand out its elements,
// one at a time or from reserved blocks, and count the synchronisation the
// paper's kernels would pay.

#ifndef APUJOIN_ALLOC_ARENA_H_
#define APUJOIN_ALLOC_ARENA_H_

#include <atomic>
#include <cstdint>

#include "util/status.h"

namespace apujoin::alloc {

/// Index-range pool over a pre-allocated array of `capacity` elements of
/// `elem_bytes` each. Thread-safe bump reservation.
class Arena {
 public:
  Arena(uint64_t capacity, uint32_t elem_bytes)
      : capacity_(capacity), elem_bytes_(elem_bytes), next_(0) {}

  /// Reserves `count` consecutive elements; returns the first index, or -1
  /// when the arena is exhausted (the reservation is then rolled back).
  int64_t Reserve(uint64_t count) {
    // relaxed: reservations only need to be disjoint, which fetch_add's
    // RMW atomicity alone provides. Writes into a reserved range are
    // published by the *consumer's* synchronisation (a span barrier or a
    // table's acquire/release protocol), never through next_.
    const uint64_t start = next_.fetch_add(count, std::memory_order_relaxed);
    if (start + count > capacity_) {
      // relaxed: rollback of this thread's own over-reservation.
      next_.fetch_sub(count, std::memory_order_relaxed);
      return -1;
    }
    return static_cast<int64_t>(start);
  }

  /// (relaxed: Reset runs only between spans, on a quiesced arena.)
  void Reset() { next_.store(0, std::memory_order_relaxed); }

  uint64_t capacity() const { return capacity_; }
  uint32_t elem_bytes() const { return elem_bytes_; }
  uint64_t used() const {
    // relaxed: monitoring snapshot; may lag concurrent reservations.
    const uint64_t u = next_.load(std::memory_order_relaxed);
    return u > capacity_ ? capacity_ : u;
  }
  uint64_t bytes_total() const { return capacity_ * elem_bytes_; }

 private:
  uint64_t capacity_;
  uint32_t elem_bytes_;
  std::atomic<uint64_t> next_;
};

}  // namespace apujoin::alloc

#endif  // APUJOIN_ALLOC_ARENA_H_
