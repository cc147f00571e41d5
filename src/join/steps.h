// Fine-grained step definitions (Algorithms 1 and 2 of the paper).
//
// A StepDef packages one data-parallel step: its name (b1..b4, p1..p4,
// n1..n3), its cost profile for the device model, the item count, and the
// *morsel* kernel. Step *series* (build = b1..b4, probe = p1..p4, one
// partitioning pass = n1..n3) are vectors of StepDefs executed by the
// co-processing schemes in coproc/.
//
// Kernel ABI: kernels are batch functions over an item range (a Morsel),
// not per-item closures. The engines capture their column views (raw key /
// hash / bucket pointers) once per step when they build the StepDef; the
// per-morsel call then runs one tight loop with no std::function dispatch
// inside it. Backends pick the morsel granularity: the analytic simulator
// prices one whole morsel per device slice, the thread-pool backend carves
// a span into --morsel-sized morsels claimed from a shared atomic cursor.

#ifndef APUJOIN_JOIN_STEPS_H_
#define APUJOIN_JOIN_STEPS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/key_schema.h"
#include "simcl/executor.h"

namespace apujoin::join {

/// Typed key-column view captured by the engine kernels. Narrow (U32)
/// views carry only the primary word; wide views add the secondary word.
/// Engines dispatch on `KeyView::schema` when they *construct* StepDefs —
/// one templated kernel instantiation per key width — never inside the
/// per-item loops.
using data::KeySchema;
using data::KeyView;

/// One contiguous item sub-range [begin, end) of a step's item space — the
/// unit of kernel dispatch and of work distribution.
struct Morsel {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end > begin ? end - begin : 0; }
  bool empty() const { return end <= begin; }
};

/// Batch kernel: executes items [m.begin, m.end) on logical device `dev`
/// and returns the total work units performed (>= 0).
///
/// `lane_work`, when non-null, must receive item i's individual work units
/// at lane_work[i - m.begin]. The analytic simulator passes a scratch array
/// on wavefront (GPU) devices so SIMD-divergence inflation can be priced
/// per wavefront; every real-execution backend passes nullptr, so kernels
/// should keep the recording branch out of their fast path where possible.
///
/// Items must be executed in ascending index order within the morsel:
/// engines rely on it for data-dependent state (CAS insertion order,
/// result-emission order under the sim backend).
using MorselKernel =
    std::function<uint64_t(const Morsel&, simcl::DeviceId, uint32_t*)>;

/// How a join phase lowers onto StepDefs. kSteps is the paper's unit of
/// co-processing and the sim's: one StepDef per fine-grained step, with
/// per-tuple arrays carrying values from one step to the next. kFused is a
/// real backend's: one StepDef per phase, whose morsel kernel runs the same
/// step bodies back to back over small blocks, with the values in
/// block-local arrays. A fused kernel has no device lanes to split.
enum class Lowering { kSteps, kFused };

/// The wall time a fused kernel spent in each step body it runs, summed
/// over every morsel and worker since the last Take. The kernel reads the
/// clock between bodies and adds its morsel's laps once per morsel.
class PartClock {
 public:
  explicit PartClock(std::vector<std::string> names);

  /// The steps, in the order the kernel runs them.
  const std::vector<std::string>& names() const { return names_; }
  /// Adds one morsel's laps: names().size() nanosecond counts.
  void Add(const uint64_t* ns);
  /// The laps added since the last call, one per name; resets them.
  std::vector<uint64_t> Take();

 private:
  std::vector<std::string> names_;
  std::unique_ptr<std::atomic<uint64_t>[]> ns_;
};

/// One fine-grained step of a step series.
struct StepDef {
  std::string name;
  simcl::StepProfile profile;
  uint64_t items = 0;
  MorselKernel run;
  /// A fused kernel's steps and their laps; null for a single step. The
  /// series runner reports such a kernel as these steps, with its measured
  /// time split in proportion to their laps.
  std::shared_ptr<PartClock> parts;
  /// Optional hook run after the step completes; receives the *next* step's
  /// GPU item range [begin, end) within the current execution block (used
  /// by divergence grouping to permute only the GPU share).
  ///
  /// Contract: the range is half-open, `begin` is the first GPU item and
  /// `end` the block's item bound; series runners invoke the hook only when
  /// the range is non-empty (begin < end), so hooks never see — and need
  /// not guard against — an empty or inverted GPU range.
  std::function<void(uint64_t, uint64_t)> after;
};

/// Records `w` for item `i` when divergence accounting is on, and folds it
/// into the batch total either way. The tiny helper keeps engine kernels
/// down to one line of bookkeeping per item.
inline uint64_t RecordWork(uint32_t* lane_work, const Morsel& m, uint64_t i,
                           uint32_t w) {
  if (lane_work != nullptr) lane_work[i - m.begin] = w;
  return w;
}

/// Fills a constant per-item work value (steps whose kernels cost exactly
/// one unit per item) and returns the morsel's total.
inline uint64_t ConstantWork(uint32_t* lane_work, const Morsel& m,
                             uint32_t w = 1) {
  if (lane_work != nullptr) std::fill(lane_work, lane_work + m.size(), w);
  return m.size() * static_cast<uint64_t>(w);
}

/// Work-group of a work item, for allocator block caching. 256 items per
/// group, bounded slot table (matches BlockAllocator::kWorkgroupSlots).
inline uint32_t WorkgroupOf(uint64_t item) {
  return static_cast<uint32_t>((item >> 8) & 1023u);
}

// ---------------------------------------------------------------------------
// Step cost profiles. Instruction counts approximate the OpenCL kernels the
// paper profiles with CodeXL; working-set sizes are supplied by the engines
// (hash-table bytes, partition-header bytes, ...). These constants, together
// with DeviceSpec, are the calibration surface for Figure 4's shape.
// ---------------------------------------------------------------------------

/// b1 / p1 / n1: hash-value computation (MurmurHash over the key column).
/// `key_bytes` prices the key-word read (4 for U32, 8 for wide schemas).
simcl::StepProfile HashStepProfile(double key_bytes = 4.0);

/// b2 / p2: visit the hash bucket header (one random header load).
simcl::StepProfile HeaderVisitProfile(double header_bytes);

/// b3: traverse the key list, inserting a key node if absent.
simcl::StepProfile KeyInsertProfile(double table_bytes, double locality_boost);

/// p3: traverse the key list (read-only).
simcl::StepProfile KeySearchProfile(double table_bytes, double locality_boost);

/// b4: insert the rid into the rid list (+ bucket count bump).
simcl::StepProfile RidInsertProfile(double table_bytes);

/// p4: visit matching build tuples and emit result tuples.
simcl::StepProfile EmitProfile(double table_bytes, double locality_boost);

/// b3, open layout: scan the 8-slot bucket prefix, claiming a slot if
/// absent. The bucket address comes straight from the hash — no pointer
/// chase — so accesses are independent and the lock-free fast path pays
/// fewer atomics than the chained CAS push.
simcl::StepProfile OpenKeyInsertProfile(double table_bytes,
                                        double locality_boost);

/// p3, open layout: one vector compare per bucket probed (read-only,
/// independent accesses).
simcl::StepProfile OpenKeySearchProfile(double table_bytes,
                                        double locality_boost);

/// f1: evaluate a selection predicate per tuple (sequential column scan).
/// `tuple_bytes` prices the key+rid read (8 for U32, 12 for wide schemas).
simcl::StepProfile SelectEvalProfile(double tuple_bytes = 8.0);

/// f2: compact passing tuples into the output relation (atomic cursor claim
/// plus one scattered pair store per passing tuple).
simcl::StepProfile SelectCompactProfile(double output_bytes,
                                        double tuple_bytes = 8.0);

/// f1, fused: evaluate the predicate into the flag column only — the
/// selection vector is the operator's whole output (no compaction pass, no
/// output relation; the join kernels read the flags positionally).
simcl::StepProfile SelectFlagProfile(double tuple_bytes = 8.0);

/// g1: aggregate one result tuple into the open-addressing group table
/// (hash + slot claim + value atomic).
simcl::StepProfile GroupAggProfile(double table_bytes);

/// p4g, fused probe+aggregate: visit matching build tuples and fold each
/// match straight into the group table — the rid-node chase of p4 plus the
/// slot claim and value atomic of g1, minus p4's sequential result-pair
/// store and g1's re-read of the materialized pair.
simcl::StepProfile FusedEmitAggProfile(double table_bytes, double group_bytes,
                                       double locality_boost);

/// n2: visit the partition header (cursor claim bookkeeping).
simcl::StepProfile PartitionHeaderProfile(double header_bytes);

/// n3: scatter the <key, rid> pair into its partition. `pair_bytes` prices
/// the tuple store (8 for U32, 12 for wide schemas).
simcl::StepProfile ScatterProfile(double open_region_bytes,
                                  double pair_bytes = 8.0);

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_STEPS_H_
