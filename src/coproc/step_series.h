// Series runner: executes step series (build, probe, or one partition
// pass) across the two logical devices of an execution backend with given
// per-step workload ratios, and composes the per-step device times with the
// paper's pipelined-delay equations. Under the sim backend this is the
// *measured* counterpart of cost::EstimateSeries — same composition, real
// data-dependent inputs (divergence, skew, latch contention, allocator
// traffic). Under the thread-pool backend the per-step device times are
// wall-clock measurements of real parallel execution.
//
// There is one step loop: the pair-blocked runner. Algorithm 2 applies the
// SHJ series to each partition pair, so a whole-range series (RunSeries) is
// its one-pair case. BasicUnit's chunk dispatch is the other scheduler.
// Both report a fused kernel (join::StepDef::parts) as the steps it runs.
//
// Every runner takes an exec::Backend*; the simcl::SimContext* overloads
// are conveniences for sim-only callers (tests, calibration harnesses) that
// wrap the context in a SimBackend on the spot.

#ifndef APUJOIN_COPROC_STEP_SERIES_H_
#define APUJOIN_COPROC_STEP_SERIES_H_

#include <functional>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "cost/abstract_model.h"
#include "exec/backend.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "simcl/executor.h"

namespace apujoin::coproc {

/// Options for one series execution.
struct SeriesOptions {
  /// Per-step CPU ratios; size must equal the step count.
  std::vector<double> ratios;
  /// Drained after each step, on the sim backend only: the allocator op
  /// counts are charged into the step's device times (lock part
  /// separated). Real-execution backends never call it; the costs are
  /// already inside their wall-clock measurement.
  std::function<alloc::AllocCounts()> drain_alloc;
};

/// Per-step outcome.
struct StepRun {
  std::string name;
  double ratio = 0.0;
  simcl::StepStats stats;
};

/// Whole-series outcome.
struct SeriesResult {
  std::vector<StepRun> steps;
  double cpu_ns = 0.0;
  double gpu_ns = 0.0;
  double elapsed_ns = 0.0;
  double lock_ns = 0.0;
  double comm_ns = 0.0;
};

/// One series of a pair-blocked group (e.g. build or probe of the PHJ join
/// phase). `offsets` has P+1 boundaries into this series' item space (32
/// bits, like the rid space); within each pair the CPU takes the first
/// ratio_i share of that pair's items.
struct PairSeriesGroup {
  std::vector<join::StepDef>* steps = nullptr;
  std::vector<double> ratios;
  const std::vector<uint32_t>* offsets = nullptr;
  SeriesResult result;  ///< filled by RunSeriesPairBlockedGroups
};

/// Pair-blocked execution (the fine-grained PHJ join phase): partition
/// pair p runs *all* groups to completion (build then probe, per Algorithm
/// 2 "apply SHJ on each partition pair") before pair p+1 starts, so a
/// pair's hash table stays L2-resident across all its steps — the
/// cache-reuse effect Table 3 quantifies. A single group runs one series
/// pair by pair. All groups must agree on the partition count. Each pair's
/// step times compose with the pipelined-delay equations on the sim and
/// add up on real backends (their lanes run one after the other). `drain`
/// is SeriesOptions::drain_alloc, shared by every group.
void RunSeriesPairBlockedGroups(
    exec::Backend* backend, std::vector<PairSeriesGroup>& groups,
    const std::function<alloc::AllocCounts()>& drain);

/// Executes `steps` with `opts.ratios` on the backend's devices: the
/// one-pair case of RunSeriesPairBlockedGroups, over the whole item range
/// [0, steps.front().items).
SeriesResult RunSeries(exec::Backend* backend,
                       std::vector<join::StepDef>& steps,
                       const SeriesOptions& opts);
SeriesResult RunSeries(simcl::SimContext* ctx,
                       std::vector<join::StepDef>& steps,
                       const SeriesOptions& opts);

/// BasicUnit (appendix): dynamically dispatches chunks of tuples to
/// whichever device is free; each chunk runs the whole series pipeline on
/// its device. Returns the same SeriesResult shape; the effective CPU ratio
/// of the phase is reported through `cpu_ratio_out` (Figures 17/18).
struct BasicUnitOptions {
  uint64_t cpu_chunk = 1 << 16;
  uint64_t gpu_chunk = 1 << 18;
  double dispatch_overhead_ns = 3000.0;
  std::function<alloc::AllocCounts()> drain_alloc;
};

SeriesResult RunSeriesBasicUnit(exec::Backend* backend,
                                std::vector<join::StepDef>& steps,
                                const BasicUnitOptions& opts,
                                double* cpu_ratio_out);
SeriesResult RunSeriesBasicUnit(simcl::SimContext* ctx,
                                std::vector<join::StepDef>& steps,
                                const BasicUnitOptions& opts,
                                double* cpu_ratio_out);

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_STEP_SERIES_H_
