// Basic software memory allocator (Section 3.3): a single pointer marking
// the start of free memory in a pre-allocated array, advanced under an
// atomic-add latch on every request. Suffers latch contention under massive
// GPU thread parallelism — the motivation for the optimized allocator.

#ifndef APUJOIN_ALLOC_BASIC_ALLOCATOR_H_
#define APUJOIN_ALLOC_BASIC_ALLOCATOR_H_

#include <atomic>

#include "alloc/allocator.h"
#include "alloc/arena.h"

namespace apujoin::alloc {

/// One-global-pointer allocator: every Allocate is one global atomic.
class BasicAllocator : public Allocator {
 public:
  explicit BasicAllocator(Arena* arena) : arena_(arena) {}

  int64_t Allocate(simcl::DeviceId dev, uint32_t workgroup) override;
  AllocCounts TakeCounts() override;
  uint64_t Unhanded() const override { return 0; }
  void Reset() override;
  AllocatorKind kind() const override { return AllocatorKind::kBasic; }

 private:
  Arena* arena_;
  /// Requests per device: each is one latched pointer bump.
  std::atomic<uint64_t> requests_[simcl::kNumDevices] = {};
};

}  // namespace apujoin::alloc

#endif  // APUJOIN_ALLOC_BASIC_ALLOCATOR_H_
