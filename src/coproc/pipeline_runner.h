// Pipeline runner — lowers a validated operator-plan tree (plan/plan.h)
// onto the fine-grained step-series machinery and executes it end to end
// on an execution backend.
//
// This is the generic successor of the single-join driver: a PlanSpec
// carries a plan::Graph (scans, selections, a hash or multi-way join, an
// optional group-by) plus the same JoinSpec execution knobs the lone-join
// path always had. Lowering walks the tree bottom-up:
//
//   * Select nodes materialize their filtered relation through the f1/f2
//     series (join/select_engine), co-processed like any other phase;
//   * the join node runs the exact legacy flow — ratios per series
//     (coproc/ratio_policy.h: calibrated and optimized on the sim, 1.0 on
//     a real backend), build/partition/probe series, discrete transfers,
//     separate-table merges — so a single-HashJoin plan produces a report
//     bit-identical to the pre-plan driver;
//   * MultiwayJoin builds one shared table per build relation and probes
//     them in one m1..m4 chain series (join/multiway_engine);
//   * GroupBy aggregates the join's result writer through the g1 series
//     (join/groupby_engine) into JoinReport::groups.
//
// Fusion (--fuse=auto, the default): before lowering, plan::Fuse marks the
// operator boundaries that may stream instead of materialize. A fused
// Select runs flag-only (f1) and the join kernels consume its selection
// vector positionally — no compacted copy; a fused HashJoin→GroupBy swaps
// the emitting probe step for p4g, which streams every match straight into
// the group-by accumulators — no rid-pair buffer, no g1 rescan. The runner
// demotes fusion where the execution spec rules it out (discrete
// co-processing). Fused operators are flagged in
// JoinReport::operators[i].fused, and the fused step's time is split
// between the logical operators (the group-by gets the calibrated
// standalone-g1 share, capped at the fused step's measured time). With
// --fuse=off the lowering above runs verbatim, bit-for-bit.
//
// Every structural error is a real Status (InvalidArgument naming the node
// path); nothing in this layer asserts on user input. So is a knob a real
// backend cannot honour: cache tracing and divergence grouping are sim only.

#ifndef APUJOIN_COPROC_PIPELINE_RUNNER_H_
#define APUJOIN_COPROC_PIPELINE_RUNNER_H_

#include "coproc/join_driver.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "plan/plan.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::coproc {

/// Everything needed to run one plan: the operator tree plus the execution
/// knobs (scheme, engine options, ratio overrides) that apply to its
/// series.
struct PlanSpec {
  plan::Graph graph;
  /// Execution knobs, shared by every operator of the plan. Relations are
  /// named by the graph's Scan nodes, never by `exec`.
  JoinSpec exec;

  /// Sentinel: assume one match per probe tuple instead of a caller-known
  /// match count.
  static constexpr uint64_t kAutoMatches = ~0ull;
  /// Expected join matches. It only sets the sim's calibration match rate
  /// (matches / probe tuples); the result buffer grows with the real
  /// matches, so a wrong guess never fails or truncates a join.
  /// kAutoMatches falls back to the probe cardinality.
  uint64_t expected_matches = kAutoMatches;
  /// Probe-skew fraction of the workload (feeds calibration and the
  /// locality-boost default), 0 for uniform data.
  double skew_fraction = 0.0;
};

/// Lowers a single-join spec onto a one-HashJoin plan over the workload's
/// relations (expected matches and skew carried over from the workload).
/// The workload must outlive the returned PlanSpec (scans point into it).
PlanSpec MakeSingleJoinPlan(const data::Workload& workload,
                            const JoinSpec& spec);

/// Validates and executes `plan` on `backend`. The report aggregates all
/// operators: `steps` carries every series step (phase = node path for the
/// new operators, the legacy labels for the join), `operators` one entry
/// per plan node, `groups` the aggregate output when the root is a GroupBy.
apujoin::StatusOr<JoinReport> ExecutePlan(exec::Backend* backend,
                                          const PlanSpec& plan);

/// Convenience: builds the backend selected by `plan.exec.engine` over
/// `ctx` for the duration of the call.
apujoin::StatusOr<JoinReport> ExecutePlan(simcl::SimContext* ctx,
                                          const PlanSpec& plan);

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_PIPELINE_RUNNER_H_
