// Cache-conscious open-addressing hash layout (the --layout=open
// alternative to the paper's chained table of Section 3.1).
//
// Keys live in 8-slot buckets packed into 32-byte groups inside 64-byte
// aligned arrays, so one SIMD compare inspects a whole bucket and a bucket
// never straddles a cache line. Collisions displace linearly to the next
// bucket. Rid lists reuse the NodePools rid arena unchanged — only the key
// side is restructured, which is where the chained layout pays its
// dependent pointer chases.
//
// Concurrency: each bucket carries one state word =
//
//     bit 31        : insert lock
//     bits 0..15    : published slot count
//
// Slots fill in order, so the published count describes a prefix: readers
// load the state word (acquire), scan `count` slots, and never observe a
// half-written key. Inserts take a lock-free fast path (scan the published
// prefix for the key) and fall back to a per-bucket spin lock to claim a
// slot. Buckets only ever gain slots, so "a bucket with free slots ends the
// linear probe" stays sound for concurrent readers: any key inserted after
// the reader's snapshot did not exist at snapshot time.
//
// Sizing keeps the slot load factor at or below one half (BucketsFor), so
// linear-probe runs stay short even under adversarial skew — all
// duplicates of one key occupy a single slot; only *distinct* colliding
// keys lengthen runs.
//
// Thread-safety analysis: the per-bucket insert lock is a *bit inside the
// state word*, not a lock object, so it cannot be expressed as a clang TSA
// capability (GUARDED_BY needs a nameable lock per guarded field, and here
// one dynamic bit guards eight key slots of the same array). This file is
// therefore one of the two documented TSA blind spots in the library (the
// other is ThreadPoolBackend::Job); the protocol is instead verified by
// the TSan preset (-DAPUJOIN_SANITIZE=thread) and the per-operation
// memory-order comments in open_hash_table.cc.

#ifndef APUJOIN_JOIN_OPEN_HASH_TABLE_H_
#define APUJOIN_JOIN_OPEN_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "alloc/aligned_buffer.h"
#include "join/hash_table.h"
#include "join/options.h"
#include "simcl/cache_sim.h"

namespace apujoin::join {

inline constexpr uint32_t kOpenSlotsPerBucket = 8;

/// Buckets for `build_tuples` keys at a slot load factor <= 1/2:
/// NextPow2(ceil(n/4)) buckets of 8 slots => slots in [2n, 4n).
uint32_t OpenBucketsFor(uint64_t build_tuples);

/// Open-addressing hash table: 8-slot key buckets with linear probing,
/// per-slot rid lists carved from a shared NodePools rid arena. Implements
/// the same table concept as HashTable (see hash_table.h).
class OpenHashTable {
 public:
  /// `num_buckets` must be a nonzero power of two, at most 2^27, and every
  /// slot id (see `slot_base`) must fit an int32; throws
  /// std::invalid_argument otherwise.
  /// `wide_keys` adds a parallel secondary key-word array for two-word
  /// canonical keys (U64 / composite / dict-string). `simd` picks the
  /// narrow probe loop once, here (wide keys are always scalar).
  /// `slot_base` offsets every slot id this table hands out: a GPU-private
  /// copy in separate-table mode numbers its slots after the CPU table's
  /// num_slots(), so a slot id names its table on whichever device the
  /// rid insert runs.
  OpenHashTable(uint32_t num_buckets, NodePools* pools, bool wide_keys = false,
                SimdPolicy simd = SimdPolicy::kAuto, int32_t slot_base = 0);

  uint32_t num_buckets() const { return num_buckets_; }
  /// Total key slots — the open layout's analogue of the chained bucket
  /// count for cost-model occupancy (alpha = distinct keys / capacity).
  uint32_t num_slots() const { return num_buckets_ * kOpenSlotsPerBucket; }
  uint32_t BucketOf(uint32_t hash) const { return hash & (num_buckets_ - 1); }
  /// True when Find takes the AVX2 bucket compare.
  bool uses_avx2() const { return use_avx2_; }

  /// Step b2/p2: snapshot the bucket state. Returns false when the *home*
  /// bucket has no published slot — it then ends every linear probe, so
  /// the key is definitively absent; `count` (optional) receives the
  /// bucket's tuple count — the probe-side workload estimate for grouping.
  bool VisitHeader(uint32_t bucket, int32_t* count = nullptr) const;

  /// Step b3: find the key (lo, and hi for two-word canonical keys)
  /// starting at its home bucket, claiming a slot if absent. Returns the
  /// slot id (slot_base + bucket * 8 + slot) or kNil when every bucket is
  /// full (the caller falls back to its overflow path). `*work` is
  /// incremented by the number of buckets probed (>= 1). `dev` and
  /// `workgroup` are unused — keys live inline, nothing is allocated.
  template <bool kWide>
  int32_t FindOrAdd(uint32_t home_bucket, int32_t lo, int32_t hi,
                    simcl::DeviceId dev, uint32_t workgroup, uint32_t* work);

  /// Step p3: find without inserting. Returns the slot id or kNil;
  /// `*work` += buckets probed (>= 1). Narrow keys take the AVX2 bucket
  /// compare when the constructor resolved it; both paths return identical
  /// results.
  template <bool kWide>
  int32_t Find(uint32_t home_bucket, int32_t lo, int32_t hi,
               uint32_t* work) const;

  /// Single-word (U32) FindOrAdd.
  int32_t FindOrAddKey(uint32_t home_bucket, int32_t key, uint32_t* work) {
    return FindOrAdd<false>(home_bucket, key, 0, simcl::DeviceId::kCpu, 0,
                            work);
  }
  /// Single-word Find with an explicit probe path — `use_avx2` selects the
  /// vector compare when compiled in (scalar otherwise), overriding the
  /// constructor's choice; for parity tests and micro-benchmarks.
  int32_t FindKey(uint32_t home_bucket, int32_t key, uint32_t* work,
                  bool use_avx2) const;

  /// Step b4: insert `rid` into the slot's rid list. Returns false if the
  /// rid arena is exhausted. `slot` must satisfy HoldsSlot.
  bool InsertRid(int32_t slot, int32_t rid, simcl::DeviceId dev,
                 uint32_t workgroup);

  /// True when `slot` is one of this table's slot ids.
  bool HoldsSlot(int32_t slot) const {
    return slot >= slot_base_ &&
           static_cast<uint32_t>(slot - slot_base_) < num_slots();
  }

  /// Increments the home bucket's tuple count (done by the b4 step).
  void BumpCount(uint32_t bucket) {
    count_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  /// Step p4: walk the rid list of `slot`, calling `emit(build_rid)` for
  /// each match. Returns the number of matches.
  template <typename EmitFn>
  uint32_t ForEachRid(int32_t slot, EmitFn&& emit) const {
    uint32_t n = 0;
    for (int32_t r = rid_head_[slot - slot_base_].load(
             std::memory_order_relaxed);
         r != kNil; r = pools_->rid_next[r]) {
      emit(pools_->rid_value[r]);
      ++n;
    }
    return n;
  }

  /// Prefetches the bucket's key line and state word — issued by the batch
  /// kernels `prefetch_dist` items ahead of the access.
  void PrefetchBucket(uint32_t bucket) const {
    __builtin_prefetch(&keys_[size_t{bucket} * kOpenSlotsPerBucket], 0, 1);
    __builtin_prefetch(&state_[bucket], 0, 1);
  }

  /// Merges all entries of `other` into this table. Linear probing
  /// displaces keys from their home bucket, so the home must be recomputed
  /// from the key: `shift` is the hash pre-shift the owning engine uses
  /// (0 for SHJ, radix bits for PHJ partitions). Returns {keys moved,
  /// rids moved}.
  std::pair<uint64_t, uint64_t> MergeFrom(const OpenHashTable& other,
                                          uint32_t shift, simcl::DeviceId dev);

  /// Enables cache-line tracing into `cache` (nullptr disables).
  void set_cache(simcl::CacheSim* cache) { cache_ = cache; }

  /// Sums the per-bucket tuple counts — test/debug invariant helper.
  uint64_t TotalCount() const;
  /// Keys in published slots, and rid nodes in their lists. Walks a
  /// quiescent table — test/debug helpers, like TotalCount.
  uint64_t keys_inserted() const;
  uint64_t rids_inserted() const;

 private:
  // Probe loops returning *local* slot indexes (bucket * 8 + slot).
  template <bool kWide>
  int32_t FindScalar(uint32_t home_bucket, int32_t lo, int32_t hi,
                     uint32_t* work) const;
  // Compiled with the per-function AVX2 target attribute when available;
  // otherwise an alias for the scalar path.
  int32_t FindKeyAvx2(uint32_t home_bucket, int32_t key, uint32_t* work) const;
  template <bool kWide>
  bool KeyAt(size_t local, int32_t lo, int32_t hi) const {
    if constexpr (kWide) {
      return keys_[local] == lo && keys_hi_[local] == hi;
    } else {
      return keys_[local] == lo;
    }
  }
  int32_t Global(size_t local) const {
    return slot_base_ + static_cast<int32_t>(local);
  }

  void Touch(const void* p) const {
    if (cache_ != nullptr) cache_->Access(reinterpret_cast<uint64_t>(p));
  }

  uint32_t num_buckets_;
  NodePools* pools_;
  bool use_avx2_;
  int32_t slot_base_;
  alloc::AlignedArray<int32_t> keys_;                  // 8 per bucket
  alloc::AlignedArray<int32_t> keys_hi_;               // wide only, else 0
  alloc::AlignedArray<std::atomic<int32_t>> rid_head_;  // 1 per slot
  alloc::AlignedArray<std::atomic<uint32_t>> state_;    // 1 per bucket
  alloc::AlignedArray<std::atomic<int32_t>> count_;     // tuples per bucket
  simcl::CacheSim* cache_ = nullptr;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_OPEN_HASH_TABLE_H_
