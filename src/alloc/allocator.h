// Allocator interface shared by the Basic and Optimized (block) software
// memory allocators of Section 3.3.
//
// Allocation requests originate from kernels running on a device, inside a
// work group; the allocator performs the real reservation, so data
// structures are real. The simulator also prices the atomics each request
// would cost the paper's kernels: TakeCounts reports them per device, and
// the sim backend charges them into the step timing after each kernel (the
// cost model deliberately excludes the contention part — Section
// 5.3/Figure 11b). An allocator keeps no per-call tally for this: the block
// allocator derives its counts from its block caches at the drain. Real
// backends never drain; they pay the real atomics inside the wall time.

#ifndef APUJOIN_ALLOC_ALLOCATOR_H_
#define APUJOIN_ALLOC_ALLOCATOR_H_

#include <atomic>
#include <cstdint>

#include "simcl/device.h"

namespace apujoin::alloc {

/// Which allocator implementation to use (Figure 12 compares them).
enum class AllocatorKind {
  kBasic,      ///< one global atomic pointer, latched per request
  kOptimized,  ///< per-work-group blocks; global atomic only on refill
};

inline const char* AllocatorKindName(AllocatorKind k) {
  return k == AllocatorKind::kBasic ? "Basic" : "Ours";
}

/// Synchronisation-op counts accumulated by an allocator since the last
/// TakeCounts() call, per device — the two inputs the latch model prices.
struct AllocCounts {
  uint64_t global_atomics[simcl::kNumDevices] = {0, 0};
  uint64_t local_atomics[simcl::kNumDevices] = {0, 0};

  AllocCounts& operator+=(const AllocCounts& o) {
    for (int d = 0; d < simcl::kNumDevices; ++d) {
      global_atomics[d] += o.global_atomics[d];
      local_atomics[d] += o.local_atomics[d];
    }
    return *this;
  }
};

/// Thread-safe AllocCounts accumulator for kernels that tally their op
/// counts in locals and flush them once per morsel (the radix pass's slot
/// claims), never once per element.
struct AtomicAllocCounts {
  std::atomic<uint64_t> global_atomics[simcl::kNumDevices] = {};
  std::atomic<uint64_t> local_atomics[simcl::kNumDevices] = {};

  /// Adds one morsel's tally. Relaxed: independent counters whose only
  /// requirement is RMW atomicity; no other memory is published through
  /// them, and Take runs after the span barrier.
  void Add(simcl::DeviceId dev, uint64_t global, uint64_t local) {
    const int d = static_cast<int>(dev);
    // relaxed (both): see above.
    global_atomics[d].fetch_add(global, std::memory_order_relaxed);
    local_atomics[d].fetch_add(local, std::memory_order_relaxed);
  }

  /// Returns the counts accumulated since the last Take and resets them.
  AllocCounts Take() {
    AllocCounts out;
    for (int d = 0; d < simcl::kNumDevices; ++d) {
      // relaxed exchanges: see Add.
      out.global_atomics[d] =
          global_atomics[d].exchange(0, std::memory_order_relaxed);
      out.local_atomics[d] =
          local_atomics[d].exchange(0, std::memory_order_relaxed);
    }
    return out;
  }
};

/// Abstract index allocator over an Arena.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Reserves one element for a kernel running on `dev` in work group
  /// `workgroup`. Returns its index, or -1 when the arena is exhausted.
  virtual int64_t Allocate(simcl::DeviceId dev, uint32_t workgroup) = 0;

  /// Returns op counts since the last call and resets them. Only the sim
  /// backend calls it, between spans, on a quiesced allocator.
  virtual AllocCounts TakeCounts() = 0;

  /// Elements reserved from the arena but not yet handed out: the unused
  /// tails of cached blocks (0 for Basic). Call on a quiesced allocator.
  virtual uint64_t Unhanded() const = 0;

  /// Forgets cached blocks and counts (arena reset is the owner's job).
  virtual void Reset() = 0;

  virtual AllocatorKind kind() const = 0;
};

}  // namespace apujoin::alloc

#endif  // APUJOIN_ALLOC_ALLOCATOR_H_
