// Optimized software memory allocator (Section 3.3).
//
// Allocation happens at block granularity: work item 0 of a work group
// advances the *global* pointer by one block; threads inside the group then
// bump a *local* pointer (held in local memory) within the block. Global
// atomic traffic therefore drops by a factor of block_elems, which is the
// entire effect Figure 11 sweeps (block size 8 B .. 32 KB) and Figure 12
// compares against the Basic allocator.
//
// The allocator keeps no per-call tally. Only a refill, once per block,
// bumps two per-device counts (blocks and elements reserved). Every request
// takes one element, so the sim's counts follow at the drain: the global
// atomics are the blocks refilled, and the local atomics are the elements
// handed out, i.e. reserved minus what still sits unused in the device's
// block caches.

#ifndef APUJOIN_ALLOC_BLOCK_ALLOCATOR_H_
#define APUJOIN_ALLOC_BLOCK_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/arena.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace apujoin::alloc {

/// Per-work-group block caching allocator.
class BlockAllocator : public Allocator {
 public:
  /// `block_bytes` is the paper's tuning knob (default 2 KB — the value the
  /// paper converges to). Blocks smaller than one element degenerate to the
  /// basic allocator's behaviour.
  BlockAllocator(Arena* arena, uint32_t block_bytes = 2048);

  int64_t Allocate(simcl::DeviceId dev, uint32_t workgroup) override;
  AllocCounts TakeCounts() override;
  uint64_t Unhanded() const override;
  void Reset() override;
  AllocatorKind kind() const override { return AllocatorKind::kOptimized; }

  uint32_t block_bytes() const { return block_bytes_; }
  uint32_t block_elems() const { return block_elems_; }

  /// Number of distinct work-group cache slots per device.
  static constexpr uint32_t kWorkgroupSlots = 1024;

 private:
  static_assert(kWorkgroupSlots % 8 == 0, "SlotOf deals slots in 8 rows");

  /// One (device, work group) block cache. Distinct work groups may share a
  /// slot (workgroup ids wrap at kWorkgroupSlots), so under the thread-pool
  /// backend two workers can hit one slot concurrently; the spinlock is the
  /// work group's "local memory" serialisation made explicit.
  struct Cache {
    mutable annotated::SpinLock lock;
    int64_t cur GUARDED_BY(lock) = 0;
    int64_t end GUARDED_BY(lock) = 0;  // cur == end => empty
  };
  // Unpadded: a cache line holds parts of three caches, and SlotOf, not
  // padding, keeps the caches of concurrent work groups on separate lines.
  static_assert(sizeof(Cache) == 24, "block caches stay unpadded");

  /// Block traffic of one device, bumped once per refill.
  struct Refills {
    std::atomic<uint64_t> blocks{0};    ///< refills tried: global atomics
    std::atomic<uint64_t> reserved{0};  ///< elements the refills reserved
  };

  /// Cache index of (device, work group). Consecutive work groups — which
  /// concurrent workers claim as consecutive morsels — land 1/8 of the
  /// table apart, on different cache lines.
  static size_t SlotOf(int dev, uint32_t workgroup) {
    const uint32_t w = workgroup % kWorkgroupSlots;
    return static_cast<size_t>(dev) * kWorkgroupSlots +
           (w % 8) * (kWorkgroupSlots / 8) + w / 8;
  }
  /// Slow path of Allocate: reserves a new block for the empty cache `c`
  /// and hands out its first element.
  int64_t Refill(Cache& c, int dev) REQUIRES(c.lock);
  /// Unused elements left in device `dev`'s caches.
  uint64_t UnhandedOn(int dev) const;

  Arena* arena_;
  uint32_t block_bytes_;
  uint32_t block_elems_;
  std::vector<Cache> cache_;  // kNumDevices * kWorkgroupSlots
  Refills refills_[simcl::kNumDevices];
  /// Totals at the previous TakeCounts (sim only; quiesced between spans).
  uint64_t drained_blocks_[simcl::kNumDevices] = {};
  uint64_t drained_handed_[simcl::kNumDevices] = {};
};

}  // namespace apujoin::alloc

#endif  // APUJOIN_ALLOC_BLOCK_ALLOCATOR_H_
