#include "alloc/basic_allocator.h"

namespace apujoin::alloc {

int64_t BasicAllocator::Allocate(simcl::DeviceId dev,
                                 uint32_t /*workgroup*/) {
  // relaxed: the one statistics count Basic keeps, bumped per request.
  // Basic is Figure 12's contended baseline: it already pays a shared RMW
  // per request (the Reserve below), and no benchmark workload runs it.
  requests_[static_cast<int>(dev)].fetch_add(1, std::memory_order_relaxed);
  return arena_->Reserve(1);
}

AllocCounts BasicAllocator::TakeCounts() {
  AllocCounts out;
  for (int d = 0; d < simcl::kNumDevices; ++d) {
    // relaxed: drained between spans; see Allocate.
    out.global_atomics[d] = requests_[d].exchange(0, std::memory_order_relaxed);
  }
  return out;
}

void BasicAllocator::Reset() { TakeCounts(); }

}  // namespace apujoin::alloc
