// Simple hash join (SHJ, Algorithm 1): build + probe step series over the
// paper's bucket/key-list/rid-list hash table, with no partitioning phase.
//
// The kernels are the shared join-phase body (join/join_phase.h) over one
// table — or, under separate tables, one per device — so each
// fine-grained step is a pure data-parallel kernel over tuple indices:
// exactly the shape the co-processing schemes (OL/DD/PL) schedule across
// the CPU and the GPU. The engine supplies inputs, filters and sizing.

#ifndef APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_
#define APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "data/relation.h"
#include "join/join_phase.h"
#include "join/options.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

class GroupByEngine;

/// SHJ build/probe kernels + state. One engine instance per join execution.
class ShjEngine {
 public:
  /// `build`/`probe` must outlive the engine.
  ShjEngine(simcl::SimContext* ctx, const data::Relation* build,
            const data::Relation* probe, EngineOptions opts);

  /// Allocates pools, tables and intermediate arrays.
  apujoin::Status Prepare();

  /// Fused Select→HashJoin edges: a positional selection vector over the
  /// build (resp. probe) relation — every kernel skips dead lanes (their
  /// key is never hashed, looked up, or inserted) at zero work units.
  /// Null (the default) disables filtering; set before the series are
  /// built.
  void set_build_filter(const uint8_t* flags) { build_filter_ = flags; }
  void set_probe_filter(const uint8_t* flags) { probe_filter_ = flags; }

  /// Number of live build lanes under `build_filter` (the fused select's
  /// survivor count). Prepare() sizes the hash table and node pools from
  /// it, so a fused plan gets the same table an unfused plan would build
  /// from the materialized filtered relation — without the hint the table
  /// is sized for the full relation and a selective filter leaves the
  /// probe walking a sparse, cache-hostile bucket array. 0 (the default)
  /// means unfiltered; set before Prepare().
  void set_build_cardinality(uint64_t n) { build_card_ = n; }

  /// The build step series b1..b4 over |R| items.
  std::vector<StepDef> BuildSteps();

  /// The probe step series p1..p4 over |S| items, emitting into `out`.
  std::vector<StepDef> ProbeSteps(ResultWriter* out);

  /// Fused HashJoin→GroupBy edges: p1..p3 plus a fused probe+aggregate
  /// step (p4g) that folds every match into `agg` instead of emitting
  /// result pairs. `agg` must be PrepareFused()-sized and outlive the run.
  std::vector<StepDef> ProbeStepsFused(GroupByEngine* agg);

  /// Separate-table mode: merge the GPU table into the CPU table after the
  /// build (the paper's merge overhead). Returns {keys, rids} moved.
  std::pair<uint64_t, uint64_t> MergeSeparateTables();

  /// Chained table: 0 = the shared (CPU) table, 1 = the GPU's private
  /// table in separate mode; nullptr under the open layout.
  HashTable* table(int i = 0) { return phase_.table<HashTable>(0, i == 1); }
  /// Open-layout table, numbered like table(); nullptr under chained.
  OpenHashTable* open_table(int i = 0) {
    return phase_.table<OpenHashTable>(0, i == 1);
  }
  int num_tables() const { return opts_.shared_table ? 1 : 2; }
  NodePools& pools() { return *pools_; }
  const EngineOptions& options() const { return opts_; }
  /// Hash-table capacity as the cost model sees it: chained bucket count,
  /// or total key slots under the open layout.
  uint64_t CostModelBuckets() const {
    return opts_.layout == exec::HashLayout::kChained
               ? opts_.num_buckets
               : uint64_t{opts_.num_buckets} * kOpenSlotsPerBucket;
  }
  /// True when the probe kernels take the AVX2 bucket-compare path.
  bool probe_uses_avx2() const {
    const OpenHashTable* t = phase_.table<OpenHashTable>(0);
    return t != nullptr && t->uses_avx2();
  }

  /// True if any kernel hit arena exhaustion.
  bool overflowed() const { return phase_.overflowed(); }

  /// Estimated hash-table working set (bytes), used in step profiles.
  double TableWorkingSetBytes() const;

  /// The workload-divergence grouping permutation used in p3/p4 (empty =
  /// identity); exposed for tests.
  const std::vector<uint32_t>& probe_permutation() const {
    return phase_.probe_permutation();
  }

  /// Key schema shared by both relations (validated in Prepare()).
  data::KeySchema key_schema() const { return build_->key_schema; }

 private:
  PhaseInput BuildInput() const;
  PhaseInput ProbeInput() const;

  simcl::SimContext* ctx_;
  const data::Relation* build_;
  const data::Relation* probe_;
  EngineOptions opts_;
  const uint8_t* build_filter_ = nullptr;  // fused-select vector (or null)
  const uint8_t* probe_filter_ = nullptr;
  uint64_t build_card_ = 0;  // live build lanes under the filter (0 = all)

  std::unique_ptr<NodePools> pools_;
  JoinPhase phase_;

  // Key words the kernels read: the relations' own columns, or the
  // canonical dict-string copies below (see ResolveJoinKeys).
  const data::Relation* r_keys_ = nullptr;
  const data::Relation* s_keys_ = nullptr;
  data::Relation r_canon_, s_canon_;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_SIMPLE_HASH_JOIN_H_
