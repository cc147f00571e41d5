// Partitioned (radix) hash join — PHJ, Algorithm 2.
//
// Phase 1: multi-pass radix partitioning of both relations (RadixPartitioner,
// one n1..n3 step series per pass). Phase 2: SHJ on each partition pair.
// In the fine-grained formulation the join phase is still two global step
// series (b1..b4 over all partitioned R tuples, p1..p4 over all partitioned
// S tuples) — literally SHJ's kernels: the shared join-phase body
// (join/join_phase.h) with a table selector that sends each tuple to its own
// partition's hash table (`part_of`), small enough to live in the shared
// L2 — the whole point of PHJ.
//
// Bucket indices use the hash bits *above* the partition bits (the body's
// hash shift), so the radix partitioning does not degenerate the
// in-partition bucket distribution. Fused-select filters are pushed into
// pass 0 of the partitioners, so the join phase itself runs unfiltered.

#ifndef APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_
#define APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "data/relation.h"
#include "join/join_phase.h"
#include "join/options.h"
#include "join/radix_partition.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

class GroupByEngine;

/// PHJ engine: partitioners + per-partition tables + join-phase kernels.
class PhjEngine {
 public:
  PhjEngine(simcl::SimContext* ctx, const data::Relation* build,
            const data::Relation* probe, EngineOptions opts);

  /// Plans the radix partitioning and allocates state.
  apujoin::Status Prepare();

  RadixPartitioner* build_partitioner() { return part_r_.get(); }
  RadixPartitioner* probe_partitioner() { return part_s_.get(); }
  const RadixPlan& radix_plan() const { return plan_; }

  /// Fused Select→HashJoin edges: positional selection vectors over the
  /// build (resp. probe) relation, pushed into pass 0 of the matching
  /// radix partitioner. Dead tuples are never scattered, so later passes
  /// and the whole join phase see only the survivors, compacted — the
  /// join-phase step series shrink to offsets().back() items. Call after
  /// Prepare() and before the partition passes run.
  void set_build_filter(const uint8_t* flags) { part_r_->set_filter(flags); }
  void set_probe_filter(const uint8_t* flags) { part_s_->set_filter(flags); }

  /// Number of live build lanes under the build filter (the fused
  /// select's survivor count). Prepare() derives the radix plan and node
  /// pools from it, so a fused plan partitions with the same pass/
  /// partition layout an unfused plan would pick for the materialized
  /// filtered relation. 0 (the default) means unfiltered; set before
  /// Prepare().
  void set_build_cardinality(uint64_t n) { build_card_ = n; }

  /// Creates the per-partition hash tables. Must be called after both
  /// partitioners finished all passes.
  apujoin::Status PrepareJoinPhase();

  std::vector<StepDef> BuildSteps();
  std::vector<StepDef> ProbeSteps(ResultWriter* out);

  /// Fused HashJoin→GroupBy edges: p1..p3 plus a fused probe+aggregate
  /// step (p4g) that folds every match into `agg` instead of emitting
  /// result pairs. `agg` must be PrepareFused()-sized and outlive the run.
  std::vector<StepDef> ProbeStepsFused(GroupByEngine* agg);

  /// Separate-table mode: merge per-partition GPU tables into CPU tables.
  std::pair<uint64_t, uint64_t> MergeSeparateTables();

  NodePools& pools() { return *pools_; }
  const EngineOptions& options() const { return opts_; }
  bool overflowed() const { return phase_.overflowed(); }
  uint32_t num_partitions() const { return plan_.total_partitions; }
  /// Chained table of `partition` (nullptr under the open layout).
  HashTable* table(uint32_t partition) {
    return phase_.table<HashTable>(partition);
  }
  /// Open-layout table for `partition` (nullptr under the chained layout).
  OpenHashTable* open_table(uint32_t partition) {
    return phase_.table<OpenHashTable>(partition);
  }
  /// Average per-partition table capacity as the cost model sees it:
  /// chained buckets, or total key slots under the open layout.
  uint64_t CostModelBuckets() const;
  /// True when the probe kernels take the AVX2 bucket-compare path.
  bool probe_uses_avx2() const {
    const OpenHashTable* t = phase_.table<OpenHashTable>(0);
    return t != nullptr && t->uses_avx2();
  }

  /// Average per-partition working set (bytes) — the join phase's random
  /// accesses hit this, not the full table (PHJ's cache advantage).
  double PartitionWorkingSetBytes() const;

  const std::vector<uint32_t>& probe_permutation() const {
    return phase_.probe_permutation();
  }

  /// Key schema shared by both relations (validated in Prepare()).
  data::KeySchema key_schema() const { return build_->key_schema; }

 private:
  /// The join-phase input over one partitioned side.
  PhaseInput SideInput(const RadixPartitioner& part,
                       const std::vector<uint32_t>& part_of) const;

  simcl::SimContext* ctx_;
  const data::Relation* build_;
  const data::Relation* probe_;
  EngineOptions opts_;
  RadixPlan plan_;
  uint64_t build_card_ = 0;  // live build lanes under the filter (0 = all)

  // Partitioner inputs: the relations themselves, or — for dict-string
  // keys — the engine-owned canonical copies below.
  const data::Relation* part_in_r_ = nullptr;
  const data::Relation* part_in_s_ = nullptr;
  data::Relation r_canon_, s_canon_;

  std::unique_ptr<RadixPartitioner> part_r_;
  std::unique_ptr<RadixPartitioner> part_s_;
  std::unique_ptr<NodePools> pools_;
  JoinPhase phase_;
  std::vector<uint32_t> part_of_r_, part_of_s_;  // tuple -> partition
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_PARTITIONED_HASH_JOIN_H_
