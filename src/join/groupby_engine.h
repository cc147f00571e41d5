// Hash group-by/aggregate over join output: one morsel step (g1) that
// folds every emitted <key, build rid, probe rid> result tuple into an
// open-addressing aggregate table keyed by the join key.
//
// The table is built for cross-backend determinism: slots are claimed with
// a CAS on the key word itself, and every aggregate update is a commutative
// atomic (fetch_add for count/sum, a CAS min/max loop), so the final per-key
// values are bit-identical no matter how morsels interleave — the sim and
// thread-pool backends agree exactly, and Materialize() sorts by key to
// erase the only remaining order freedom (slot placement under collisions).
//
// Fused mode (HashJoin→GroupBy edges): the engine is sized up front from a
// distinct-key bound and the join's probe kernels call Accumulate() per
// match instead of emitting <build rid, probe rid> pairs through a result
// writer — the pair materialization and the g1 rescan both disappear.
//
// Every int32 key is a valid group key. INT32_MIN doubles as the probe
// range's empty-slot marker, so that one key value owns a reserved slot
// just past the probe range instead of claiming one inside it.

#ifndef APUJOIN_JOIN_GROUPBY_ENGINE_H_
#define APUJOIN_JOIN_GROUPBY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "join/group_row.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "plan/plan.h"
#include "util/murmur_hash.h"
#include "util/status.h"

namespace apujoin::join {

/// Group-by kernels + aggregate table. One engine per GroupBy node; runs
/// after the upstream join's writer has been filled (unfused), or inline
/// inside the join's probe kernels (fused).
class GroupByEngine {
 public:
  /// `results` must have captured keys (ResultWriter::CaptureKeys) and must
  /// outlive the engine.
  GroupByEngine(const ResultWriter* results, plan::AggFn agg);

  /// Fused mode: no result writer exists — Accumulate() is fed straight
  /// from the join's probe kernels. Size with PrepareFused().
  explicit GroupByEngine(plan::AggFn agg);

  /// Sizes the aggregate table (load factor <= 1/2).
  apujoin::Status Prepare();

  /// Fused mode: sizes the aggregate table for at most `max_distinct`
  /// distinct keys (load factor <= 1/2).
  apujoin::Status PrepareFused(uint64_t max_distinct);

  /// The aggregation step series (g1) over the writer's used slots.
  std::vector<StepDef> Steps();

  /// Folds one result tuple into the aggregate table; safe to call
  /// concurrently from any kernel. Returns the slot probes performed (the
  /// caller's work units).
  uint32_t Accumulate(int32_t key, int64_t val) {
    uint32_t work = 1;
    // kEmptyKey owns the reserved slot past the probe range (its key word
    // already reads kEmptyKey, so Materialize reports it like any other).
    uint32_t b = mask_ + 1;
    if (key != kEmptyKey) {
      b = MurmurHash2x4(static_cast<uint32_t>(key)) & mask_;
      for (;;) {
        // relaxed: the slot's key IS the atomic value — a successful CAS
        // publishes it; aggregate slots are read only after the span
        // barrier, so no ordering beyond the RMW itself is needed.
        int32_t cur = keys_[b].load(std::memory_order_relaxed);
        if (cur == kEmptyKey) {
          if (keys_[b].compare_exchange_strong(cur, key,
                                               std::memory_order_relaxed)) {
            cur = key;
          }
          // CAS failure loads the racing claimant's key into `cur`.
        }
        if (cur == key) break;
        b = (b + 1) & mask_;
        ++work;
      }
    }
    // relaxed: commutative statistics updates, read after the barrier.
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    switch (agg_) {
      case plan::AggFn::kCount:
        break;
      case plan::AggFn::kSum:
        // relaxed: commutative add, read after the barrier.
        values_[b].fetch_add(val, std::memory_order_relaxed);
        break;
      case plan::AggFn::kMin: {
        // relaxed: monotone CAS loop, read after the barrier.
        int64_t cur = values_[b].load(std::memory_order_relaxed);
        while (val < cur && !values_[b].compare_exchange_weak(
                                cur, val, std::memory_order_relaxed)) {
        }
        break;
      }
      case plan::AggFn::kMax: {
        // relaxed: monotone CAS loop, read after the barrier.
        int64_t cur = values_[b].load(std::memory_order_relaxed);
        while (val > cur && !values_[b].compare_exchange_weak(
                                cur, val, std::memory_order_relaxed)) {
        }
        break;
      }
    }
    return work;
  }

  /// Collects the groups, sorted by key. Call after the series ran.
  std::vector<GroupRow> Materialize() const;

  uint64_t num_groups() const;
  /// Total tuples accumulated (= the join's match count in fused mode).
  uint64_t total_count() const;
  double TableWorkingSetBytes() const {
    // key word + value + count per probed slot (the reserved slot aside).
    return keys_.empty() ? 0.0 : static_cast<double>(mask_ + 1) * 20.0;
  }
  plan::AggFn agg() const { return agg_; }

  /// Software-prefetch lookahead of the g1 scan loop (0 = off).
  void set_prefetch_dist(uint32_t dist) { prefetch_dist_ = dist; }

  /// Key word of an empty probed slot; the key itself accumulates in the
  /// reserved slot.
  static constexpr int32_t kEmptyKey = INT32_MIN;

 private:
  const ResultWriter* results_;
  plan::AggFn agg_;
  /// Probe range [0, mask_]; slot mask_ + 1 is kEmptyKey's.
  uint32_t mask_ = 0;
  uint32_t prefetch_dist_ = 0;
  std::vector<std::atomic<int32_t>> keys_;
  std::vector<std::atomic<int64_t>> values_;
  std::vector<std::atomic<uint64_t>> counts_;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_GROUPBY_ENGINE_H_
