// The single-join contract: JoinSpec (algorithm, scheme, engine knobs,
// ratio overrides) and JoinReport, the report with the paper's reporting
// dimensions (time breakdown, per-step ratios, lock overhead, model
// estimate, cache counters). Execution goes through the plan pipeline
// (coproc::ExecutePlan in pipeline_runner.h; MakeSingleJoinPlan lowers a
// workload + JoinSpec onto a one-HashJoin plan).
//
// The backend decides what a step's execution *costs*: the sim backend
// prices it with the analytic device model (virtual ns, bit-identical to
// the pre-backend driver), the thread-pool backend runs it on host threads
// and reports wall-clock ns. Ratios follow one policy (coproc/ratio_policy.h):
// the sim calibrates and optimizes them on the analytic model; a real
// backend runs every step at ratio 1.0 and never consults the model.

#ifndef APUJOIN_COPROC_JOIN_DRIVER_H_
#define APUJOIN_COPROC_JOIN_DRIVER_H_

#include <string>
#include <vector>

#include "coproc/schemes.h"
#include "coproc/step_series.h"
#include "cost/online_calibration.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "join/group_row.h"
#include "join/options.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::coproc {

/// Everything needed to run one join.
struct JoinSpec {
  Algorithm algorithm = Algorithm::kPHJ;
  /// How the sim backend splits each step between the devices. On a real
  /// backend CPU-only, GPU-only, OL, DD and PL all run every step at ratio
  /// 1.0 (its two lanes would run one after the other on the same workers,
  /// so a split buys nothing); BasicUnit keeps its chunk dispatch.
  Scheme scheme = Scheme::kPipelined;
  join::EngineOptions engine;

  /// Ratio overrides, applied verbatim on every backend (empty = the
  /// scheme decides on the sim, 1.0 on a real backend). A single value
  /// broadcasts to every step of the series; otherwise sizes must match
  /// (3 for a partition pass, 4 for build/probe).
  std::vector<double> partition_ratios;
  std::vector<double> build_ratios;
  std::vector<double> probe_ratios;

  /// Result buffer capacity; 0 = auto from the workload's expected matches.
  uint64_t result_capacity = 0;

  /// By default an exhausted result buffer (or node pool) fails the join
  /// with ResourceExhausted — a truncated result is data loss, not a result.
  /// Set to keep the pre-existing report-and-truncate behaviour (the report
  /// then carries `overflowed` and `dropped_matches`).
  bool tolerate_overflow = false;

  /// Measured per-item unit costs from previous runs (owned by the caller,
  /// e.g. a RatioTuner). When set, entries with measurements replace their
  /// analytic counterparts before ratio optimization, so the optimizers run
  /// on measured numbers. Null = analytic calibration only. Sim only, like
  /// the optimizers.
  const cost::OnlineCalibrator* measured_costs = nullptr;

  /// Bound on bytes staged in flight by the pipelined out-of-core executor
  /// (the chunk being partitioned plus the chunk being prefetched); 0 =
  /// auto, i.e. double buffering is always allowed. When staging the next
  /// chunk would exceed the budget its prefetch is skipped — back-pressure
  /// degrades that chunk to serial staging instead of growing memory.
  /// Ignored under StreamMode::kSerial.
  uint64_t stream_budget_bytes = 0;

  /// BasicUnit chunk sizes; 0 = auto.
  uint64_t bu_cpu_chunk = 0;
  uint64_t bu_gpu_chunk = 0;
};

/// Per-step outcome + calibration, across all phases.
struct StepReport {
  std::string phase;  ///< "partition-R.0", "build", "probe", ...
  std::string name;   ///< b1..b4 / p1..p4 / n1..n3
  double ratio = 0.0;
  double cpu_ns = 0.0;
  double gpu_ns = 0.0;
  /// Measured time with the contention term excluded — on the sim backend
  /// the modelled share, on real backends identical to cpu_ns/gpu_ns (wall
  /// clock folds everything in). This is what online calibration consumes.
  double cpu_modeled_ns = 0.0;
  double gpu_modeled_ns = 0.0;
  /// Items each device slice actually executed (unit cost = ns / items).
  uint64_t cpu_items = 0;
  uint64_t gpu_items = 0;
  double lock_ns = 0.0;
  /// Calibrated per-item cost (analytic or measured) the ratios were
  /// chosen from. Sim only: 0 on real backends, which skip the model.
  double unit_cpu_ns = 0.0;
  double unit_gpu_ns = 0.0;
  double gpu_divergence = 1.0;
  /// Result pairs this step failed to emit (buffer exhaustion).
  uint64_t dropped = 0;
};

/// Per-operator outcome of a plan execution (one entry per plan node the
/// pipeline runner lowered: selections, joins, group-bys).
struct OperatorReport {
  std::string path;  ///< node path, e.g. "plan/join[2]"
  std::string kind;  ///< NodeKindName of the node
  double elapsed_ns = 0.0;  ///< time attributed to this operator's series
  uint64_t input_rows = 0;
  uint64_t output_rows = 0;
  /// True when plan fusion eliminated this operator's materialization
  /// boundary: a Select whose survivors were never copied out, a HashJoin
  /// whose matches streamed into the group-by accumulators, or the GroupBy
  /// fed by such a join. elapsed_ns is then this operator's *attributed*
  /// share of the fused series.
  bool fused = false;
};

/// Result of one join execution.
struct JoinReport {
  uint64_t matches = 0;
  double elapsed_ns = 0.0;    ///< total measured time (virtual or wall)
  /// Cost-model prediction at the same ratios. Sim only: 0 on real
  /// backends — the model prices the simulated APU, not the host.
  double estimated_ns = 0.0;
  double lock_ns = 0.0;       ///< latch contention (excluded from estimate)
  simcl::EventLog breakdown;  ///< per-phase elapsed time
  std::vector<StepReport> steps;
  /// The ratios applied (first partition pass / build / probe series).
  std::vector<double> partition_ratios;
  std::vector<double> build_ratios;
  std::vector<double> probe_ratios;
  uint64_t l2_accesses = 0;  ///< CacheSim counters (0 unless tracing)
  uint64_t l2_misses = 0;
  bool overflowed = false;
  /// Result pairs dropped on buffer exhaustion (only reachable with
  /// JoinSpec::tolerate_overflow; otherwise the join fails instead).
  uint64_t dropped_matches = 0;
  /// Per-operator timings/cardinalities, one entry per executed plan node
  /// (single-join runs carry exactly the join's entry).
  std::vector<OperatorReport> operators;
  /// Materialized groups when the plan root is a GroupBy (sorted by key).
  std::vector<join::GroupRow> groups;

  double elapsed_sec() const { return elapsed_ns * 1e-9; }
};

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_JOIN_DRIVER_H_
