// Tuning knobs shared by the SHJ/PHJ engines — the design-tradeoff surface
// of Section 3.3 (allocator + block size, shared vs separate hash tables,
// divergence grouping) plus partitioning parameters for PHJ.

#ifndef APUJOIN_JOIN_OPTIONS_H_
#define APUJOIN_JOIN_OPTIONS_H_

#include <cstdint>

#include "alloc/allocator.h"
#include "exec/backend_kind.h"
#include "exec/exec_options.h"

namespace apujoin::join {

/// Probe-kernel SIMD policy for the open-addressing layout. Auto uses the
/// AVX2 bucket-compare path when the host CPU supports it and the scalar
/// fallback otherwise; the forced modes exist for parity tests and
/// micro-benchmarks (forcing AVX2 on a host without it silently degrades
/// to scalar rather than faulting). The chained layout is always scalar —
/// its dependent pointer chases have nothing to vectorise.
enum class SimdPolicy {
  kAuto,    ///< runtime CPU-feature dispatch (the default)
  kScalar,  ///< always the scalar probe loop
  kAvx2,    ///< AVX2 probe when compiled in and supported, else scalar
};

/// Engine configuration. Defaults are the tuned values the paper converges
/// to (optimized allocator, 2 KB blocks, shared hash table).
///
/// The execution-substrate knobs (backend, threads, morsel_items, layout,
/// prefetch_dist, stream, fuse) live in the inherited exec::ExecOptions —
/// the one struct every layer shares — so `engine.backend` etc. keep
/// working while service and pool options embed the identical fields.
struct EngineOptions : exec::ExecOptions {
  /// Hash-table buckets; 0 = auto (next power of two >= build tuples for
  /// the chained layout; for the open layout, enough 8-slot buckets to
  /// keep the slot load factor at or below one half).
  uint32_t num_buckets = 0;
  /// Probe SIMD policy (open layout only); see SimdPolicy.
  SimdPolicy simd = SimdPolicy::kAuto;
  /// Shared table (both devices build into one) vs separate per-device
  /// tables merged after the build (Figure 10).
  bool shared_table = true;
  alloc::AllocatorKind allocator = alloc::AllocatorKind::kOptimized;
  /// Block size of the optimized allocator (Figure 11 sweeps 8 B..32 KB).
  uint32_t block_bytes = 2048;
  /// Grouping-based workload-divergence reduction in the probe phase
  /// (Section 3.3 "Workload divergence").
  bool grouping = false;
  /// Extra cache-hit rate from skewed key popularity, in [0,1]; engines
  /// derive it from the workload's skew fraction.
  double locality_boost = 0.0;

  // --- PHJ only ---
  /// Total partitions; 0 = auto (partition pair sized to fit the L2).
  uint32_t partitions = 0;
  /// Max radix fanout per pass (the paper tunes passes to TLB/cache; 64).
  uint32_t fanout_per_pass = 64;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_OPTIONS_H_
