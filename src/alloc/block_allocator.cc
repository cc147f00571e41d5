#include "alloc/block_allocator.h"

#include <algorithm>

namespace apujoin::alloc {

BlockAllocator::BlockAllocator(Arena* arena, uint32_t block_bytes)
    : arena_(arena), block_bytes_(block_bytes) {
  block_elems_ = std::max<uint32_t>(1, block_bytes_ / arena_->elem_bytes());
  cache_ = std::vector<Cache>(simcl::kNumDevices * kWorkgroupSlots);
}

int64_t BlockAllocator::Allocate(simcl::DeviceId dev, uint32_t workgroup) {
  const int di = static_cast<int>(dev);
  Cache& c = cache_[SlotOf(di, workgroup)];
  annotated::SpinLockGuard guard(c.lock);
  // Local-pointer bump within the cached block (local-memory atomic).
  if (c.cur < c.end) return c.cur++;
  return Refill(c, di);
}

int64_t BlockAllocator::Refill(Cache& c, int dev) {
  // Work item 0 advances the global pointer by one block: one global
  // atomic, counted whether or not the arena still has room. relaxed (both
  // counts): TakeCounts reads them after the span barrier, and nothing is
  // published through them.
  refills_[dev].blocks.fetch_add(1, std::memory_order_relaxed);
  const int64_t start = arena_->Reserve(block_elems_);
  if (start < 0) return -1;
  // relaxed: see above.
  refills_[dev].reserved.fetch_add(block_elems_, std::memory_order_relaxed);
  c.cur = start + 1;
  c.end = start + block_elems_;
  return start;
}

uint64_t BlockAllocator::UnhandedOn(int dev) const {
  uint64_t left = 0;
  for (uint32_t s = 0; s < kWorkgroupSlots; ++s) {
    const Cache& c = cache_[static_cast<size_t>(dev) * kWorkgroupSlots + s];
    annotated::SpinLockGuard guard(c.lock);
    left += static_cast<uint64_t>(c.end - c.cur);
  }
  return left;
}

uint64_t BlockAllocator::Unhanded() const {
  uint64_t left = 0;
  for (int d = 0; d < simcl::kNumDevices; ++d) left += UnhandedOn(d);
  return left;
}

AllocCounts BlockAllocator::TakeCounts() {
  AllocCounts out;
  for (int d = 0; d < simcl::kNumDevices; ++d) {
    // relaxed (both loads): the allocator is quiesced; see Refill.
    const uint64_t blocks = refills_[d].blocks.load(std::memory_order_relaxed);
    const uint64_t handed =
        refills_[d].reserved.load(std::memory_order_relaxed) - UnhandedOn(d);
    out.global_atomics[d] = blocks - drained_blocks_[d];
    // Every handed element took one local-pointer bump (a refill hands out
    // the block's first element through the same local pointer).
    out.local_atomics[d] = handed - drained_handed_[d];
    drained_blocks_[d] = blocks;
    drained_handed_[d] = handed;
  }
  return out;
}

void BlockAllocator::Reset() {
  for (Cache& c : cache_) {
    annotated::SpinLockGuard guard(c.lock);
    c.cur = 0;
    c.end = 0;
  }
  for (int d = 0; d < simcl::kNumDevices; ++d) {
    // relaxed (both stores): Reset runs on a quiesced allocator.
    refills_[d].blocks.store(0, std::memory_order_relaxed);
    refills_[d].reserved.store(0, std::memory_order_relaxed);
    drained_blocks_[d] = 0;
    drained_handed_[d] = 0;
  }
}

}  // namespace apujoin::alloc
