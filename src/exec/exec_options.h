// ExecOptions — the one struct that names an execution substrate.
//
// Before it existed the same knobs (backend kind, worker count, morsel
// granularity, hash layout, streaming policy, fusion policy) were duplicated
// across join::EngineOptions, service::ServiceOptions and
// exec::ThreadPoolOptions, each copy with its own ad-hoc range checks.
// Now the pool-sizing knobs are one struct, PoolOptions, which a service
// and a thread pool take as is; ExecOptions adds the knobs a join runs
// with, and join::EngineOptions inherits it. Validate() is the single place
// the ranges are enforced — entry points (ExecutePlan, the join service)
// call it and surface InvalidArgument instead of asserting or silently
// clamping.

#ifndef APUJOIN_EXEC_EXEC_OPTIONS_H_
#define APUJOIN_EXEC_EXEC_OPTIONS_H_

#include <cstdint>

#include "exec/backend_kind.h"
#include "util/status.h"

namespace apujoin::exec {

/// The knobs that size a pool of workers: the substrate and, for a thread
/// pool, its worker count and morsel granularity.
struct PoolOptions {
  /// Substrate the driver schedules steps onto: the analytic simulator
  /// (virtual time) or a real host thread pool (wall-clock time).
  BackendKind backend = BackendKind::kSim;
  /// Thread-pool worker count (0 or negative = hardware concurrency).
  int threads = 0;
  /// Thread-pool morsel granularity — items per shared-cursor claim
  /// (--morsel; 0 = backend default, 256). Purely a real-execution
  /// scheduling knob: the sim backend prices whole device slices and its
  /// virtual-time output is identical for every morsel size.
  uint32_t morsel_items = 0;

  /// Range-checks the backend kind (which may have been cast from an
  /// untrusted integer), the worker count and the morsel bound. Returns
  /// InvalidArgument naming the offending field.
  apujoin::Status Validate() const;
};

/// Execution-substrate selection and scheduling knobs shared by every layer
/// that runs step kernels: the pool's, plus how a join runs on it.
struct ExecOptions : PoolOptions {
  /// Hash-table layout (--layout=chained|open). Chained is the paper's
  /// pointer-linked design and the default — every sim-backend figure is
  /// bit-identical under it.
  HashLayout layout = HashLayout::kChained;
  /// Software-prefetch lookahead in items (--prefetch-dist=N) for the
  /// open-layout batch loops and the radix cursor-claim loop; 0 disables
  /// the prefetches. Purely a real-execution knob.
  uint32_t prefetch_dist = 16;
  /// Out-of-core streaming policy (--stream=serial|pipelined). In-core
  /// joins ignore the knob.
  StreamMode stream = StreamMode::kSerial;
  /// Plan-fusion policy (--fuse=off|auto). Off preserves the
  /// materialize-every-boundary lowering bit-for-bit; auto fuses
  /// Select→HashJoin and HashJoin→GroupBy edges where no consumer needs
  /// the intermediate copy. Single-operator plans are identical either way.
  FuseMode fuse = FuseMode::kAuto;

  /// Range-checks every knob (PoolOptions::Validate, the prefetch bound,
  /// enum values that may have been cast from untrusted integers). Returns
  /// InvalidArgument naming the offending field.
  apujoin::Status Validate() const;
};

}  // namespace apujoin::exec

#endif  // APUJOIN_EXEC_EXEC_OPTIONS_H_
