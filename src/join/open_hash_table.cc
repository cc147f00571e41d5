#include "join/open_hash_table.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/cpu_features.h"
#include "util/murmur_hash.h"

#if APUJOIN_HAVE_AVX2
#include <immintrin.h>
#endif

namespace apujoin::join {

using apujoin::MurmurHash2x4;

namespace {
// State-word layout: published slot count in the low bits, insert lock at
// bit 31. The count never exceeds kOpenSlotsPerBucket.
constexpr uint32_t kCountMask = 0xffffu;
constexpr uint32_t kLockBit = 1u << 31;
// Slot ids are int32 (kNil = -1), so 2^27 buckets * 8 slots = 2^30 is the
// ceiling that keeps every id representable.
constexpr uint32_t kMaxOpenBuckets = 1u << 27;

// Validated before the bucket arrays are sized, so a bogus count never
// reaches the allocator.
uint32_t ValidateOpenBuckets(uint32_t num_buckets, int32_t slot_base) {
  if (num_buckets == 0 || (num_buckets & (num_buckets - 1)) != 0 ||
      num_buckets > kMaxOpenBuckets) {
    throw std::invalid_argument(
        "OpenHashTable: num_buckets must be a nonzero power of two <= 2^27, "
        "got " +
        std::to_string(num_buckets));
  }
  const int64_t last_slot = int64_t{slot_base} +
                            int64_t{num_buckets} * kOpenSlotsPerBucket - 1;
  if (slot_base < 0 || last_slot > INT32_MAX) {
    throw std::invalid_argument(
        "OpenHashTable: slot ids from base " + std::to_string(slot_base) +
        " overflow int32");
  }
  return num_buckets;
}
}  // namespace

uint32_t OpenBucketsFor(uint64_t build_tuples) {
  const uint64_t target = (build_tuples + 3) / 4;  // ceil(n/4), min 1
  uint32_t buckets = NextPow2(target == 0 ? 1 : target);
  if (buckets > kMaxOpenBuckets) buckets = kMaxOpenBuckets;
  return buckets;
}

OpenHashTable::OpenHashTable(uint32_t num_buckets, NodePools* pools,
                             bool wide_keys, SimdPolicy simd,
                             int32_t slot_base)
    : num_buckets_(ValidateOpenBuckets(num_buckets, slot_base)),
      pools_(pools),
      // The AVX2 bucket compare covers one 32-bit word per slot, so wide
      // tables always probe the scalar two-word loop.
      use_avx2_(simd != SimdPolicy::kScalar && CpuSupportsAvx2() &&
                !wide_keys),
      slot_base_(slot_base),
      keys_(size_t{num_buckets} * kOpenSlotsPerBucket),
      keys_hi_(wide_keys ? size_t{num_buckets} * kOpenSlotsPerBucket : 0),
      rid_head_(size_t{num_buckets} * kOpenSlotsPerBucket),
      state_(num_buckets),
      count_(num_buckets) {
  // AlignedArray zero-initialises: state = {count 0, unlocked}, counts 0.
  // rid heads must start at kNil, not 0 (0 is a valid rid-node index).
  for (size_t i = 0; i < rid_head_.size(); ++i) {
    rid_head_[i].store(kNil, std::memory_order_relaxed);
  }
}

bool OpenHashTable::VisitHeader(uint32_t bucket, int32_t* count) const {
  Touch(&state_[bucket]);
  if (count != nullptr) {
    *count = count_[bucket].load(std::memory_order_relaxed);
  }
  // acquire: pairs with the inserter's release-store of the count.
  return (state_[bucket].load(std::memory_order_acquire) & kCountMask) != 0;
}

template <bool kWide>
int32_t OpenHashTable::FindOrAdd(uint32_t home_bucket, int32_t lo, int32_t hi,
                                 simcl::DeviceId /*dev*/,
                                 uint32_t /*workgroup*/, uint32_t* work) {
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // Lock-free fast path: scan the published prefix. lo compares first
    // (the hash word for wide keys), hi second (the dictionary code).
    uint32_t cnt = state_[b].load(std::memory_order_acquire) & kCountMask;
    for (uint32_t s = 0; s < cnt; ++s) {
      if (KeyAt<kWide>(base + s, lo, hi)) {
        *work += probed;
        return Global(base + s);
      }
    }
    if (cnt < kOpenSlotsPerBucket) {
      // Free slots may exist: take the bucket lock, re-scan what was
      // published while we waited, then claim the next slot.
      uint32_t st = state_[b].load(std::memory_order_relaxed);
      do {
        st &= ~kLockBit;
      } while (!state_[b].compare_exchange_weak(st, st | kLockBit,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed));
      const uint32_t locked_cnt = st & kCountMask;
      for (uint32_t s = cnt; s < locked_cnt; ++s) {
        if (KeyAt<kWide>(base + s, lo, hi)) {
          state_[b].store(st, std::memory_order_release);  // unlock
          *work += probed;
          return Global(base + s);
        }
      }
      if (locked_cnt < kOpenSlotsPerBucket) {
        keys_[base + locked_cnt] = lo;
        if constexpr (kWide) keys_hi_[base + locked_cnt] = hi;
        // Unlock and publish the new slot in one release store; the key
        // word writes above are ordered before it.
        state_[b].store(locked_cnt + 1, std::memory_order_release);
        *work += probed;
        return Global(base + locked_cnt);
      }
      // Filled up while we raced for the lock; release and displace.
      state_[b].store(st, std::memory_order_release);
      cnt = locked_cnt;
    }
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;  // every bucket full
}

bool OpenHashTable::InsertRid(int32_t slot, int32_t rid, simcl::DeviceId dev,
                              uint32_t workgroup) {
  const int32_t ni = pools_->AllocRid(dev, workgroup);
  if (ni == kNil) return false;
  pools_->rid_value[ni] = rid;
  Touch(&pools_->rid_value[ni]);
  std::atomic<int32_t>& head = rid_head_[slot - slot_base_];
  // Push ni at the rid-list head. The initial load may be relaxed (a
  // stale head just fails the CAS); the CAS is acq_rel — release
  // publishes rid_value/rid_next to acquire-readers of the head,
  // acquire refreshes `old` for the retry.
  int32_t old = head.load(std::memory_order_relaxed);
  do {
    pools_->rid_next[ni] = old;
  } while (!head.compare_exchange_weak(old, ni, std::memory_order_acq_rel));
  return true;
}

template <bool kWide>
int32_t OpenHashTable::FindScalar(uint32_t home_bucket, int32_t lo,
                                  int32_t hi, uint32_t* work) const {
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // acquire: pairs with the inserter's release-store of the count so
    // the first `cnt` slots of the key-word arrays are visible.
    const uint32_t cnt = state_[b].load(std::memory_order_acquire) & kCountMask;
    for (uint32_t s = 0; s < cnt; ++s) {
      if (KeyAt<kWide>(base + s, lo, hi)) {
        *work += probed;
        return static_cast<int32_t>(base + s);
      }
    }
    if (cnt < kOpenSlotsPerBucket) break;  // key would have landed here
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;
}

#if APUJOIN_HAVE_AVX2
__attribute__((target("avx2"))) int32_t OpenHashTable::FindKeyAvx2(
    uint32_t home_bucket, int32_t key, uint32_t* work) const {
  const __m256i needle = _mm256_set1_epi32(key);
  uint32_t probed = 0;
  uint32_t b = home_bucket;
  for (uint32_t step = 0; step < num_buckets_; ++step) {
    ++probed;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    Touch(&keys_[base]);
    // acquire: pairs with the inserter's release-store of the count so
    // the first `cnt` key slots are visible before we read them.
    const uint32_t cnt =
        state_[b].load(std::memory_order_acquire) & kCountMask;
    // One 32-byte load covers the whole bucket (keys_ is 64-byte aligned
    // and buckets are 32 bytes, so the load never splits a cache line).
    const __m256i lane = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(&keys_[base]));
    const __m256i eq = _mm256_cmpeq_epi32(lane, needle);
    uint32_t mask =
        static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    mask &= (1u << cnt) - 1;  // unpublished slots hold garbage
    if (mask != 0) {
      *work += probed;
      return static_cast<int32_t>(base +
                                  static_cast<uint32_t>(__builtin_ctz(mask)));
    }
    if (cnt < kOpenSlotsPerBucket) break;
    b = (b + 1) & (num_buckets_ - 1);
  }
  *work += probed;
  return kNil;
}
#else
int32_t OpenHashTable::FindKeyAvx2(uint32_t home_bucket, int32_t key,
                                   uint32_t* work) const {
  return FindScalar<false>(home_bucket, key, 0, work);
}
#endif

template <bool kWide>
int32_t OpenHashTable::Find(uint32_t home_bucket, int32_t lo, int32_t hi,
                            uint32_t* work) const {
  int32_t local;
  if constexpr (kWide) {
    local = FindScalar<true>(home_bucket, lo, hi, work);
  } else {
    local = use_avx2_ ? FindKeyAvx2(home_bucket, lo, work)
                      : FindScalar<false>(home_bucket, lo, 0, work);
  }
  return local == kNil ? kNil : Global(static_cast<size_t>(local));
}

int32_t OpenHashTable::FindKey(uint32_t home_bucket, int32_t key,
                               uint32_t* work, bool use_avx2) const {
  const int32_t local = use_avx2
                            ? FindKeyAvx2(home_bucket, key, work)
                            : FindScalar<false>(home_bucket, key, 0, work);
  return local == kNil ? kNil : Global(static_cast<size_t>(local));
}

template int32_t OpenHashTable::FindOrAdd<false>(uint32_t, int32_t, int32_t,
                                                 simcl::DeviceId, uint32_t,
                                                 uint32_t*);
template int32_t OpenHashTable::FindOrAdd<true>(uint32_t, int32_t, int32_t,
                                                simcl::DeviceId, uint32_t,
                                                uint32_t*);
template int32_t OpenHashTable::Find<false>(uint32_t, int32_t, int32_t,
                                            uint32_t*) const;
template int32_t OpenHashTable::Find<true>(uint32_t, int32_t, int32_t,
                                           uint32_t*) const;

std::pair<uint64_t, uint64_t> OpenHashTable::MergeFrom(
    const OpenHashTable& other, uint32_t shift, simcl::DeviceId dev) {
  uint64_t keys_moved = 0;
  uint64_t rids_moved = 0;
  // All loads from `other` are relaxed: MergeFrom runs after the span
  // barrier that built `other`, so its buckets are quiescent and already
  // synchronised with this thread.
  for (uint32_t b = 0; b < other.num_buckets_; ++b) {
    const uint32_t cnt =
        other.state_[b].load(std::memory_order_relaxed) & kCountMask;
    const size_t base = size_t{b} * kOpenSlotsPerBucket;
    for (uint32_t s = 0; s < cnt; ++s) {
      const int32_t key = other.keys_[base + s];
      // Linear probing displaces keys from their home bucket, so the home
      // must be recomputed from the key's hash, not carried over from `b`.
      const uint32_t home = BucketOf(
          MurmurHash2x4(static_cast<uint32_t>(key)) >> shift);
      uint32_t work = 0;
      const int32_t dst = FindOrAddKey(home, key, &work);
      if (dst == kNil) return {keys_moved, rids_moved};
      ++keys_moved;
      // relaxed: quiescent source table (see loop header comment). The
      // source's rid heads are indexed locally, like `other.keys_`.
      for (int32_t rn =
               other.rid_head_[base + s].load(std::memory_order_relaxed);
           rn != kNil; rn = other.pools_->rid_next[rn]) {
        if (!InsertRid(dst, other.pools_->rid_value[rn], dev, 0)) {
          return {keys_moved, rids_moved};
        }
        ++rids_moved;
        BumpCount(home);
      }
    }
  }
  return {keys_moved, rids_moved};
}

uint64_t OpenHashTable::keys_inserted() const {
  uint64_t keys = 0;
  // relaxed: walk of a quiescent table, after the build span.
  for (size_t b = 0; b < state_.size(); ++b) {
    keys += state_[b].load(std::memory_order_relaxed) & kCountMask;
  }
  return keys;
}

uint64_t OpenHashTable::rids_inserted() const {
  uint64_t rids = 0;
  for (uint32_t s = 0; s < num_slots(); ++s) {
    rids += ForEachRid(Global(s), [](int32_t) {});
  }
  return rids;
}

uint64_t OpenHashTable::TotalCount() const {
  uint64_t total = 0;
  // relaxed: post-build statistics read on a quiescent table.
  for (size_t b = 0; b < count_.size(); ++b) {
    total += static_cast<uint64_t>(count_[b].load(std::memory_order_relaxed));
  }
  return total;
}

}  // namespace apujoin::join
