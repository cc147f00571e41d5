// PHJ-PL′ — the coarse-grained step definition of Section 3.3.
//
// After partitioning, the join of one partition pair <R_i, S_i> is a single
// work item executed by one thread (Blanas et al.'s formulation): the "step"
// granularity is a whole SHJ, not a tuple. Each pair builds its own private
// hash table, so (a) there is no CPU/GPU cache reuse, and (b) a device runs
// many pair-joins concurrently, multiplying the live working set — which is
// why Table 3 shows ~2x the L2 misses and a higher miss ratio than the
// fine-grained PHJ-PL. Scheduling degenerates to one ratio over pairs.

#ifndef APUJOIN_COPROC_COARSE_GRAINED_H_
#define APUJOIN_COPROC_COARSE_GRAINED_H_

#include "coproc/join_driver.h"

namespace apujoin::coproc {

/// Executes PHJ with the coarse-grained (partition-pair) step definition.
/// `spec.engine` supplies partitioning/allocator knobs; `spec.scheme` is
/// ignored (the coarse definition admits only pair-level data dividing).
/// On a real backend every partition pass and every pair runs on the CPU
/// lane (coproc/ratio_policy.h), the pair-join phase is wall-clocked
/// instead of priced by the charge-only simulator walk, and the report
/// carries no estimate.
apujoin::StatusOr<JoinReport> ExecuteCoarsePhj(exec::Backend* backend,
                                               const data::Workload& workload,
                                               const JoinSpec& spec);

/// Convenience: builds the backend selected by `spec.engine.backend` over
/// `ctx` for the duration of the call.
apujoin::StatusOr<JoinReport> ExecuteCoarsePhj(simcl::SimContext* ctx,
                                               const data::Workload& workload,
                                               const JoinSpec& spec);

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_COARSE_GRAINED_H_
