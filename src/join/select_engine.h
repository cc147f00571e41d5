// Predicate-selection operator: filters a relation through a two-step
// series (f1 evaluate, f2 compact), pushed onto the same morsel machinery
// as the join steps so a plan's selections co-process across both devices.
//
// f1 scans the input columns and stores a pass/fail flag per tuple; f2
// claims output slots from one shared atomic cursor and scatters the
// passing <key, rid> pairs. The split mirrors the paper's fine-grained
// decomposition: f1 is bandwidth-bound (GPU-friendly), f2 pays the atomic
// claim — exactly the kind of asymmetry the ratio optimizers exploit.
//
// Fused mode (Select→HashJoin edges): the engine runs f1 only and exposes
// the flag column as a selection vector. No output relation is allocated,
// no compaction pass runs, and the downstream join kernels skip dead lanes
// positionally — the whole filtered-relation copy disappears.

#ifndef APUJOIN_JOIN_SELECT_ENGINE_H_
#define APUJOIN_JOIN_SELECT_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "join/steps.h"
#include "plan/plan.h"
#include "util/status.h"

namespace apujoin::join {

/// Selection kernels + state. One engine instance per Select node; the
/// engine owns the output relation (valid after Finish()) or, in fused
/// mode, the selection vector (valid after the fused series ran).
class SelectEngine {
 public:
  /// `input` must outlive the engine. `prefetch_dist` is the software
  /// prefetch lookahead of the scan loops (0 disables it).
  SelectEngine(const data::Relation* input, plan::Predicate pred,
               uint32_t prefetch_dist = 0);

  /// Allocates the flag column and the (worst-case-sized) output arrays.
  apujoin::Status Prepare();

  /// The selection step series f1..f2 over the input size.
  std::vector<StepDef> Steps();

  /// Fused mode: allocates the flag column only — no output relation.
  apujoin::Status PrepareFused();

  /// Fused mode: the flag-only series (f1). Survivors are counted with one
  /// shared-cursor add per morsel; flags() is the operator's output.
  std::vector<StepDef> FusedSteps();

  /// Shrinks the output to the surviving tuples. Call once, after the
  /// series ran (never from a kernel — it frees memory). Unfused mode only.
  void Finish();

  /// The filtered relation; valid after Finish().
  const data::Relation& output() const { return out_; }
  /// The selection vector (1 = tuple passes), positional over the input;
  /// valid after either series ran.
  const uint8_t* flags() const { return flags_.data(); }
  uint64_t survivors() const {
    // relaxed: read after the span barrier, not concurrently with claims.
    return cursor_.load(std::memory_order_relaxed);
  }
  const plan::Predicate& predicate() const { return pred_; }

 private:
  /// f1: evaluates the predicate into the flag column; with kCount (fused
  /// mode) it also adds each morsel's survivor count to the cursor.
  template <bool kCount>
  StepDef EvalStep(const simcl::StepProfile& profile);
  /// f2: compacts passing tuples into the output, with the hi lane when
  /// kWide.
  template <bool kWide>
  StepDef CompactStep(double tuple_bytes);

  const data::Relation* input_;
  plan::Predicate pred_;
  uint32_t prefetch_dist_;
  std::vector<uint8_t> flags_;
  data::Relation out_;
  std::atomic<uint64_t> cursor_{0};
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_SELECT_ENGINE_H_
