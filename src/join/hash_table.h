// The paper's hash table (Section 3.1):
//
//   bucket header = { tuple count, pointer to key list }
//   key list      = unique keys with this hash value, each pointing to a
//   rid list      = record IDs of all build tuples with that key.
//
// Layout is OpenCL-style: no raw pointers, only int32 indices into
// pre-allocated node pools (an in-kernel malloc does not exist — nodes come
// from the software allocators of Section 3.3). Node pools are shared
// between tables so PHJ's thousands of per-partition tables carve from the
// same arenas. All mutation goes through atomics, so the shared-table mode
// is safe under concurrent build and the latch accounting mirrors what the
// real kernel would pay.
//
// `shared` vs `separate` tables (Section 3.3 tradeoff, Figure 10): a shared
// table is built by both devices and enjoys the coupled architecture's
// shared L2; separate tables avoid cross-device latch contention but must
// be merged after the build (a dominant overhead on the discrete
// architecture, Figure 3).

#ifndef APUJOIN_JOIN_HASH_TABLE_H_
#define APUJOIN_JOIN_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/arena.h"
#include "simcl/cache_sim.h"
#include "util/status.h"

namespace apujoin::join {

inline constexpr int32_t kNil = -1;

/// Shared key/rid node storage carved from pre-allocated arenas. One pool
/// set serves any number of HashTable instances (SHJ: one; PHJ: one per
/// partition).
class NodePools {
 public:
  /// `wide_keys` sizes the secondary key-word arena (`key_value_hi`) for
  /// two-word canonical keys (U64 / composite / dict-string); narrow pools
  /// do not allocate it.
  NodePools(uint64_t key_capacity, uint64_t rid_capacity,
            alloc::AllocatorKind kind, uint32_t block_bytes,
            bool wide_keys = false);

  /// Allocates one key node; kNil when exhausted.
  int32_t AllocKey(simcl::DeviceId dev, uint32_t workgroup);
  /// Allocates one rid node; kNil when exhausted.
  int32_t AllocRid(simcl::DeviceId dev, uint32_t workgroup);

  /// Drains allocator op counts (key + rid allocators combined).
  alloc::AllocCounts TakeCounts();

  uint64_t key_capacity() const { return key_arena_.capacity(); }
  uint64_t rid_capacity() const { return rid_arena_.capacity(); }
  uint64_t keys_used() const { return key_arena_.used(); }
  uint64_t rids_used() const { return rid_arena_.used(); }
  bool wide_keys() const { return !key_value_hi.empty(); }

  // Flat node storage (public: the HashTable is the only intended user,
  // and kernels index these arrays directly like OpenCL global memory).
  std::vector<int32_t> key_value;
  std::vector<int32_t> key_value_hi;  // secondary key word; empty if narrow
  std::vector<std::atomic<int32_t>> key_next;
  std::vector<std::atomic<int32_t>> rid_head;  // per key node
  std::vector<int32_t> rid_value;
  std::vector<int32_t> rid_next;

 private:
  alloc::Arena key_arena_;
  alloc::Arena rid_arena_;
  std::unique_ptr<alloc::Allocator> key_alloc_;
  std::unique_ptr<alloc::Allocator> rid_alloc_;
};

/// Chained hash table with bucket headers, key lists and rid lists.
///
/// HashTable and OpenHashTable share one table concept — BucketOf,
/// VisitHeader, FindOrAdd<kWide>, Find<kWide>, InsertRid, HoldsSlot,
/// BumpCount, PrefetchBucket, ForEachRid, MergeFrom — so the join-phase
/// body (join/join_phase.h) is written once over either layout.
class HashTable {
 public:
  /// `num_buckets` must be a nonzero power of two (BucketOf masks with
  /// num_buckets-1); throws std::invalid_argument otherwise.
  HashTable(uint32_t num_buckets, NodePools* pools);

  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t BucketOf(uint32_t hash) const { return hash & (num_buckets_ - 1); }

  /// Step b2/p2: visit the bucket header. Returns false when the bucket's
  /// key list is empty (no key can match); `count` (optional) receives the
  /// bucket's tuple count — the probe-side workload estimate used by
  /// divergence grouping.
  bool VisitHeader(uint32_t bucket, int32_t* count = nullptr) const;

  /// Step b3: find the key (lo, and hi for two-word canonical keys) in the
  /// bucket's key list, appending a new key node if absent. Returns the key
  /// node index (or kNil if the arena is exhausted). `*work` is incremented
  /// by the number of list nodes traversed (>= 1) — the step's
  /// data-dependent work units. Wide matches compare lo first (the hash
  /// word for dict-strings), hi second (the dictionary code); they require
  /// pools constructed with wide_keys = true.
  template <bool kWide>
  int32_t FindOrAdd(uint32_t bucket, int32_t lo, int32_t hi,
                    simcl::DeviceId dev, uint32_t workgroup, uint32_t* work);

  /// Step p3: find the key without inserting. Returns the key node or
  /// kNil; `*work` += nodes traversed (>= 1).
  template <bool kWide>
  int32_t Find(uint32_t bucket, int32_t lo, int32_t hi, uint32_t* work) const;

  /// Single-word (U32) forms of FindOrAdd / Find.
  int32_t FindOrAddKey(uint32_t bucket, int32_t key, simcl::DeviceId dev,
                       uint32_t workgroup, uint32_t* work) {
    return FindOrAdd<false>(bucket, key, 0, dev, workgroup, work);
  }
  int32_t FindKey(uint32_t bucket, int32_t key, uint32_t* work) const {
    return Find<false>(bucket, key, 0, work);
  }

  /// Step b4: insert `rid` into the key node's rid list. Returns false if
  /// the rid arena is exhausted.
  bool InsertRid(int32_t key_node, int32_t rid, simcl::DeviceId dev,
                 uint32_t workgroup);

  /// True when InsertRid(`key_node`) on this table links into the right
  /// rid list. Always: key nodes live in the shared NodePools, so a rid
  /// inserted through either per-device table reaches the same list.
  bool HoldsSlot(int32_t /*key_node*/) const { return true; }

  /// Increments the bucket's tuple count (done by the b4 step, which knows
  /// the tuple's bucket from the b2 intermediate state).
  void BumpCount(uint32_t bucket) {
    count_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  /// Prefetches the bucket's header line (the first hop of every header
  /// visit and key-list walk) — issued by the batch kernels
  /// `prefetch_dist` items ahead of the access.
  void PrefetchBucket(uint32_t bucket) const {
    __builtin_prefetch(&head_[bucket], 0, 1);
  }

  /// Step p4: walk the rid list of `key_node`, calling `emit(build_rid)`
  /// for each match. Returns the number of matches.
  template <typename EmitFn>
  uint32_t ForEachRid(int32_t key_node, EmitFn&& emit) const {
    uint32_t n = 0;
    for (int32_t r = pools_->rid_head[key_node].load(std::memory_order_relaxed);
         r != kNil; r = pools_->rid_next[r]) {
      emit(pools_->rid_value[r]);
      ++n;
    }
    return n;
  }

  /// Merges all entries of `other` (U32 keys) into this table — the
  /// post-build merge required by separate tables. `shift` is the hash
  /// pre-shift the owning engine uses (0 for SHJ, radix bits for PHJ
  /// partitions), needed only when the bucket counts differ. Returns
  /// {keys moved, rids moved}.
  std::pair<uint64_t, uint64_t> MergeFrom(const HashTable& other,
                                          uint32_t shift, simcl::DeviceId dev);

  /// Enables cache-line tracing into `cache` (nullptr disables).
  void set_cache(simcl::CacheSim* cache) { cache_ = cache; }

  /// Sums the per-bucket counts — test/debug invariant helper.
  uint64_t TotalCount() const;
  /// Key nodes linked into this table, and rid nodes in their lists. Walks
  /// a quiescent table — test/debug helpers, like TotalCount.
  uint64_t keys_inserted() const;
  uint64_t rids_inserted() const;

 private:
  void Touch(const void* p) const {
    if (cache_ != nullptr) cache_->Access(reinterpret_cast<uint64_t>(p));
  }
  /// Traced key compare of one key-list node.
  template <bool kWide>
  bool KeyAt(int32_t node, int32_t lo, int32_t hi) const;

  uint32_t num_buckets_;
  NodePools* pools_;
  std::vector<std::atomic<int32_t>> head_;
  std::vector<std::atomic<int32_t>> count_;
  simcl::CacheSim* cache_ = nullptr;
};

/// Returns the smallest power of two >= n (min 1, capped at 2^30).
uint32_t NextPow2(uint64_t n);

/// Extra arena capacity needed on top of the exact node count when the
/// optimized allocator is in play: every (device, work group) pair may
/// strand one partially-used block.
inline uint64_t PoolSlack(uint64_t items, uint32_t block_bytes,
                          uint32_t elem_bytes) {
  const uint64_t wgs = std::min<uint64_t>(1024, items / 256 + 2);
  const uint64_t block_elems =
      std::max<uint64_t>(1, block_bytes / std::max<uint32_t>(1, elem_bytes));
  return 2 * wgs * block_elems + 64;
}

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_HASH_TABLE_H_
