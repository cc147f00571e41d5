// Plan-fusion rewrite pass — decides, before lowering, which operator
// boundaries may stream instead of materialize.
//
// The pass is purely structural: it inspects a validated Graph and marks
// two edge shapes as fusible:
//
//   * Select → HashJoin: the predicate runs as a flag-only pass and the
//     join kernels consume the selection vector positionally — the
//     filtered-relation copy (the f2 compaction + Finish shrink) never
//     happens.
//   * HashJoin → GroupBy: probe matches accumulate directly into the
//     group-by hash accumulators; the <build rid, probe rid> pairs are
//     never written through the result writer because no consumer reads
//     them.
//
// What blocks fusion here: MultiwayJoin children (a Select under a
// multi-way chain, or a GroupBy over one) keep the materialized lowering —
// the chain kernels walk k tables per lane and already carry their own
// dead-lane bookkeeping. The one execution-level demotion (discrete
// co-processing keeps every boundary materialized) is applied by the
// pipeline runner, which knows the execution spec; this pass only sees the
// tree. Key values never block fusion: the aggregate table takes every
// int32 key.

#ifndef APUJOIN_PLAN_FUSION_H_
#define APUJOIN_PLAN_FUSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/backend_kind.h"
#include "plan/plan.h"

namespace apujoin::plan {

/// Result of the fusion pass: one flag per Graph node, set when the node's
/// output edge is fused into its consumer (Select flagged = its filter runs
/// inside the join; HashJoin flagged = its matches stream into the
/// group-by).
struct FusionPlan {
  std::vector<uint8_t> fused;      ///< per-node: output edge fused
  std::vector<std::string> notes;  ///< human-readable blocked-edge reasons

  bool any() const {
    for (uint8_t f : fused) {
      if (f != 0) return true;
    }
    return false;
  }
};

/// Annotates fusible edges of a validated `graph` under `mode`. kOff
/// returns an all-false plan (today's lowering, bit-for-bit); kAuto marks
/// every structurally eligible edge and records why ineligible ones were
/// left alone.
FusionPlan Fuse(const Graph& graph, exec::FuseMode mode);

}  // namespace apujoin::plan

#endif  // APUJOIN_PLAN_FUSION_H_
