// Out-of-core hash join for data sets larger than the zero-copy buffer
// (Appendix, Figure 19).
//
// The zero-copy buffer plays the role of "main memory" and the rest of
// system memory is "external": both relations are radix-partitioned in
// buffer-sized chunks (chunk = 16M tuples in the paper), intermediate
// partitions are copied out to system memory, partition pairs are linked
// across chunks, and each pair is joined in-buffer with SHJ-PL or PHJ-PL.
//
// One staging loop serves both streaming policies. StreamMode::kPipelined
// prefetches chunk k+1 asynchronously while chunk k partitions;
// StreamMode::kSerial is the same loop with every prefetch off, so its
// operations run strictly in order: stage chunk 0, partition it, stage
// chunk 1, and so on.

#ifndef APUJOIN_COPROC_OUT_OF_CORE_H_
#define APUJOIN_COPROC_OUT_OF_CORE_H_

#include "coproc/join_driver.h"

namespace apujoin::coproc {

/// Out-of-core execution parameters.
struct OutOfCoreSpec {
  /// Join configuration for each partition pair (algorithm: SHJ or PHJ;
  /// scheme: typically PL).
  JoinSpec inner;
  /// Tuples partitioned per chunk through the zero-copy buffer.
  uint64_t chunk_tuples = 16ull << 20;
  /// Override for the number of out-of-core partitions (0 = auto so one
  /// pair fits comfortably in the buffer).
  uint32_t partitions = 0;
};

/// Time breakdown of an out-of-core join (the three bars of Figure 19).
struct OutOfCoreReport {
  double elapsed_ns = 0.0;
  double partition_ns = 0.0;
  double join_ns = 0.0;
  double copy_ns = 0.0;  ///< zero-copy buffer <-> system memory
  /// Staging-copy time hidden behind computation by the pipelined executor
  /// (already subtracted from elapsed_ns; always 0 under
  /// StreamMode::kSerial). Priced at the same BufferCopyNs rate as copy_ns
  /// on every backend, so the subtraction stays unit-consistent. On the sim
  /// backend the hidden share is composed analytically (a prefetched copy
  /// hides behind the previous chunk's series, up to the shorter of the
  /// two); on real backends it is the *measured* fraction of each prefetch
  /// span the pool had claimed before the pipeline barrier reached it.
  double overlap_ns = 0.0;
  /// Total modeled cost of the *hideable* staging copies: the async chunk
  /// prefetches, plus (sim only) the pair copies that pipeline behind the
  /// previous pair's join. overlap_ns / prefetch_ns is the overlap
  /// efficiency in [0, 1]; chunk copy-outs are structurally unhideable and
  /// excluded.
  double prefetch_ns = 0.0;
  /// Host wall clock of the whole call. On real-execution backends this is
  /// the end-to-end measurement (the serial-vs-pipelined observable); on
  /// the sim backend it is merely how long the simulation took to run.
  double wall_ns = 0.0;
  uint64_t matches = 0;
  uint32_t partitions = 1;
  /// Chunks staged ahead by the async prefetcher (0 when serial, when every
  /// prefetch was vetoed by stream_budget_bytes, or when nothing chunked).
  uint64_t prefetched_chunks = 0;
  bool chunked = false;  ///< false when the input fit the buffer directly
};

/// Joins `workload` even when it exceeds the zero-copy buffer. Every chunk
/// partition pass and per-pair join is scheduled through `backend`.
apujoin::StatusOr<OutOfCoreReport> ExecuteOutOfCore(
    exec::Backend* backend, const data::Workload& workload,
    const OutOfCoreSpec& spec);

/// Convenience: builds the backend selected by `spec.inner.engine.backend`
/// over `ctx` for the duration of the call.
apujoin::StatusOr<OutOfCoreReport> ExecuteOutOfCore(
    simcl::SimContext* ctx, const data::Workload& workload,
    const OutOfCoreSpec& spec);

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_OUT_OF_CORE_H_
