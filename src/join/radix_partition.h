// Radix partitioning (the partition phase of PHJ, Algorithm 2).
//
// The paper adopts the multi-pass radix partitioning of Boncz et al.: each
// pass splits by `fanout_per_pass` (tuned to TLB/cache; 64 here) based on
// the lower bits of the MurmurHash of the key, so that a pass never scatters
// into more open regions than the memory system tolerates. Each pass is one
// step series n1..n3 (compute partition number, visit partition header,
// insert <key, rid>), schedulable across CPU and GPU like any other series.
//
// Storage: one contiguous output array per pass. Destination slots are
// claimed per (work group, partition) sub-region; a claim charges a global
// atomic once per allocator block (block_bytes) and a local-memory atomic
// otherwise — the same block-allocation discipline as Section 3.3, which is
// what Figure 11's block-size sweep exercises in the partition phase.

#ifndef APUJOIN_JOIN_RADIX_PARTITION_H_
#define APUJOIN_JOIN_RADIX_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "data/relation.h"
#include "join/options.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::join {

/// Partitioning plan: total partitions and pass structure.
struct RadixPlan {
  uint32_t total_partitions = 1;  ///< power of two
  uint32_t fanout_per_pass = 64;  ///< power of two
  int passes = 0;
  uint32_t partition_bits = 0;  ///< log2(total_partitions)

  /// Sizes partitions so one partition *pair* (plus its hash table) fits in
  /// half the L2, capped at 4096 partitions.
  static RadixPlan Make(uint64_t build_tuples, uint64_t probe_tuples,
                        double l2_bytes, const EngineOptions& opts);
};

/// Multi-pass radix partitioner for one relation.
class RadixPartitioner {
 public:
  RadixPartitioner(simcl::SimContext* ctx, const data::Relation* input,
                   const RadixPlan& plan, const EngineOptions& opts);

  apujoin::Status Prepare();

  /// Fused Select→HashJoin edges: a positional selection vector over the
  /// input relation. Dead tuples are skipped by the pass-0 histogram and
  /// kernels — they are never claimed, never scattered, and later passes
  /// (and the join phase) see only the survivors, compacted. Null (the
  /// default) partitions every tuple. Set before BeginPass(0).
  void set_filter(const uint8_t* flags) { filter_ = flags; }

  int passes() const { return plan_.passes; }
  const RadixPlan& plan() const { return plan_; }

  /// Tuples that survived the pass-0 filter (= input size when unfiltered);
  /// the item count of every pass after the first, and the valid prefix of
  /// output(). Valid after BeginPass(0).
  uint64_t live() const { return live_; }

  /// Pass protocol: BeginPass(p) -> run PassSteps(p) via a scheme ->
  /// EndPass(p). Passes must run in order.
  void BeginPass(int pass);
  std::vector<StepDef> PassSteps(int pass);
  void EndPass(int pass);

  /// Partitioned tuples (valid after the last EndPass).
  const data::Relation& output() const { return *cur_; }
  /// P+1 exclusive-prefix partition boundaries (valid after last EndPass).
  const std::vector<uint32_t>& offsets() const { return offsets_; }

  /// Allocator-style op counts accumulated by slot claiming (sim drain).
  alloc::AllocCounts TakeCounts();

  /// Partition-id mask of `pass` (cumulative low bits, capped at the total
  /// partition mask). Public because the saturation edge at wide partition
  /// counts is worth pinning in tests without materializing 2^31 partitions.
  uint32_t MaskForPass(int pass) const;

 private:
  static constexpr uint32_t kWgSlots = 64;
  static uint32_t WgOf(uint64_t i) {
    return static_cast<uint32_t>((i >> 8) & (kWgSlots - 1));
  }
  /// Cursor index of work group `wg`'s sub-region of partition `part`. A
  /// partition's cursors are dealt 16 apart (a cache line of cursors), so
  /// consecutive work groups — which concurrent workers claim as
  /// consecutive morsels — bump cursors on different lines.
  static size_t SlotOf(uint32_t part, uint32_t wg) {
    return static_cast<size_t>(part) * kWgSlots + (wg % 4) * 16 + wg / 4;
  }
  static_assert(kWgSlots == 4 * 16, "SlotOf deals 4 rows of 16 cursors");
  /// Key columns of the current pass's input.
  KeyView CurrentKeys() const;
  /// n1..n3 of `pass`, one kernel body per key width.
  template <bool kWide>
  std::vector<StepDef> PassSeries(int pass);

  simcl::SimContext* ctx_;
  const data::Relation* input_;
  RadixPlan plan_;
  EngineOptions opts_;
  uint32_t chunk_elems_;
  const uint8_t* filter_ = nullptr;  // fused-select vector (or null)
  uint64_t live_ = 0;                // surviving tuples (see live())

  // Pass outputs. Pass 0 reads the input in place; buf_b_ is sized only
  // when a second pass needs somewhere to write.
  data::Relation buf_a_, buf_b_;
  const data::Relation* cur_ = nullptr;  // input of the current pass
  data::Relation* nxt_ = nullptr;        // output of the current pass

  std::vector<uint32_t> pid_;   // per-item partition id (current pass)
  std::vector<uint32_t> dest_;  // per-item destination slot
  // Per (wg, partition) claim cursors for the current pass. Atomic: work
  // groups sharing a slot may claim concurrently under the thread-pool
  // backend.
  std::vector<std::atomic<uint32_t>> cursor_;
  std::vector<uint32_t> first_;  // each cursor's first slot
  std::vector<uint32_t> offsets_;
  alloc::AtomicAllocCounts counts_;  // flushed once per n2 morsel
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_RADIX_PARTITION_H_
