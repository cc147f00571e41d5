#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "join/open_hash_table.h"
#include "util/cpu_features.h"
#include "util/murmur_hash.h"

namespace apujoin::join {
namespace {

using simcl::DeviceId;

class OpenHashTableTest : public ::testing::Test {
 protected:
  OpenHashTableTest()
      : pools_(64, 4096, alloc::AllocatorKind::kOptimized, 256),
        table_(64, &pools_) {}

  uint32_t BucketFor(int32_t key) {
    return table_.BucketOf(MurmurHash2x4(static_cast<uint32_t>(key)));
  }

  void Insert(int32_t key, int32_t rid) {
    const uint32_t b = BucketFor(key);
    uint32_t work = 0;
    const int32_t slot = table_.FindOrAddKey(b, key, &work);
    ASSERT_NE(slot, kNil);
    ASSERT_TRUE(table_.InsertRid(slot, rid, DeviceId::kCpu, 0));
    table_.BumpCount(b);
  }

  std::vector<int32_t> Lookup(int32_t key, bool avx2 = false) {
    uint32_t work = 0;
    const int32_t slot = table_.FindKey(BucketFor(key), key, &work, avx2);
    std::vector<int32_t> rids;
    if (slot != kNil) {
      table_.ForEachRid(slot, [&rids](int32_t r) { rids.push_back(r); });
    }
    return rids;
  }

  NodePools pools_;
  OpenHashTable table_;
};

TEST_F(OpenHashTableTest, InsertThenFind) {
  Insert(42, 7);
  const auto rids = Lookup(42);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 7);
}

TEST_F(OpenHashTableTest, MissingKeyNotFound) {
  Insert(42, 7);
  EXPECT_TRUE(Lookup(43).empty());
}

TEST_F(OpenHashTableTest, DuplicateKeysShareSlot) {
  Insert(5, 1);
  Insert(5, 2);
  Insert(5, 3);
  EXPECT_EQ(table_.keys_inserted(), 1u);
  EXPECT_EQ(table_.rids_inserted(), 3u);
  const auto rids = Lookup(5);
  EXPECT_EQ(std::set<int32_t>(rids.begin(), rids.end()),
            (std::set<int32_t>{1, 2, 3}));
}

TEST_F(OpenHashTableTest, ManyKeysAllRetrievable) {
  // 64 buckets * 8 slots = 512 slots; 400 distinct keys force long
  // linear-probe displacement chains at ~78% load.
  for (int32_t k = 0; k < 400; ++k) Insert(k * 2 + 1, k);
  for (int32_t k = 0; k < 400; ++k) {
    const auto rids = Lookup(k * 2 + 1);
    ASSERT_EQ(rids.size(), 1u) << "key " << k * 2 + 1;
    EXPECT_EQ(rids[0], k);
  }
}

TEST_F(OpenHashTableTest, ScalarAndAvx2Agree) {
  for (int32_t k = 0; k < 400; ++k) Insert(k * 2 + 1, k);
  for (int32_t k = 0; k < 500; ++k) {  // includes 100 misses
    const int32_t key = k * 2 + 1;
    uint32_t ws = 0;
    uint32_t wv = 0;
    const int32_t scalar = table_.FindKey(BucketFor(key), key, &ws, false);
    const int32_t vec = table_.FindKey(BucketFor(key), key, &wv, true);
    EXPECT_EQ(scalar, vec) << "key " << key;
    EXPECT_EQ(ws, wv) << "key " << key;
  }
}

TEST_F(OpenHashTableTest, WorkCountsBucketsProbed) {
  // Pile 9 distinct keys on one explicit home bucket: the 9th displaces to
  // the next bucket, so finding it probes 2 buckets.
  for (int32_t k = 0; k < 9; ++k) {
    uint32_t work = 0;
    ASSERT_NE(table_.FindOrAddKey(3, 1000 + k, &work), kNil);
  }
  uint32_t work = 0;
  EXPECT_NE(table_.FindKey(3, 1008, &work, false), kNil);
  EXPECT_EQ(work, 2u);
  work = 0;
  EXPECT_NE(table_.FindKey(3, 1000, &work, false), kNil);
  EXPECT_EQ(work, 1u);
}

TEST_F(OpenHashTableTest, ProbeStopsAtNonFullBucket) {
  Insert(42, 7);
  uint32_t work = 0;
  // A miss in a mostly-empty table must not walk all 64 buckets.
  EXPECT_EQ(table_.FindKey(BucketFor(77), 77, &work, false), kNil);
  EXPECT_EQ(work, 1u);
}

TEST_F(OpenHashTableTest, TableFullReturnsNil) {
  NodePools pools(64, 64, alloc::AllocatorKind::kBasic, 64);
  OpenHashTable tiny(2, &pools);  // 16 slots total
  int inserted = 0;
  for (int32_t k = 0; k < 20; ++k) {
    uint32_t work = 0;
    if (tiny.FindOrAddKey(tiny.BucketOf(MurmurHash2x4(k + 1)), k + 1,
                          &work) != kNil) {
      ++inserted;
    }
  }
  EXPECT_EQ(inserted, 16);
}

TEST_F(OpenHashTableTest, CountTracksTuples) {
  for (int32_t k = 0; k < 100; ++k) Insert(k * 2 + 1, k);
  EXPECT_EQ(table_.TotalCount(), 100u);
}

TEST_F(OpenHashTableTest, MergeRecomputesDisplacedHomes) {
  OpenHashTable other(2, &pools_);  // tiny: guarantees displaced keys
  for (int32_t k = 0; k < 14; ++k) {
    const int32_t key = k * 2 + 1;
    const uint32_t b = other.BucketOf(MurmurHash2x4(static_cast<uint32_t>(key)));
    uint32_t work = 0;
    const int32_t slot = other.FindOrAddKey(b, key, &work);
    ASSERT_NE(slot, kNil);
    ASSERT_TRUE(other.InsertRid(slot, 100 + k, DeviceId::kGpu, 0));
  }
  const auto [keys, rids] = table_.MergeFrom(other, /*shift=*/0,
                                             DeviceId::kCpu);
  EXPECT_EQ(keys, 14u);
  EXPECT_EQ(rids, 14u);
  for (int32_t k = 0; k < 14; ++k) {
    const auto got = Lookup(k * 2 + 1);
    ASSERT_EQ(got.size(), 1u) << "key " << k * 2 + 1;
    EXPECT_EQ(got[0], 100 + k);
  }
}

TEST_F(OpenHashTableTest, MergePreservesExistingEntries) {
  Insert(1, 10);
  OpenHashTable other(64, &pools_);
  uint32_t work = 0;
  const int32_t slot =
      other.FindOrAddKey(other.BucketOf(MurmurHash2x4(1)), 1, &work);
  other.InsertRid(slot, 20, DeviceId::kGpu, 0);
  table_.MergeFrom(other, /*shift=*/0, DeviceId::kCpu);
  EXPECT_EQ(table_.keys_inserted(), 1u);  // key 1 deduplicated
  EXPECT_EQ(Lookup(1).size(), 2u);
}

TEST_F(OpenHashTableTest, ConcurrentInsertsDeduplicate) {
  // 4 threads insert the same 2048 keys; every key must end with exactly
  // one slot and 4 rids, exercising the lock-free fast path, the spin-lock
  // slot claim, and the published-prefix re-scan under contention.
  NodePools pools(64, 1 << 16, alloc::AllocatorKind::kOptimized, 2048);
  OpenHashTable table(OpenBucketsFor(2048), &pools);
  constexpr int kThreads = 4;
  constexpr int32_t kKeys = 2048;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&table, t] {
      for (int32_t k = 0; k < kKeys; ++k) {
        const int32_t key = k * 2 + 1;
        const uint32_t b =
            table.BucketOf(MurmurHash2x4(static_cast<uint32_t>(key)));
        uint32_t work = 0;
        const int32_t slot = table.FindOrAddKey(b, key, &work);
        ASSERT_NE(slot, kNil);
        ASSERT_TRUE(table.InsertRid(slot, t * kKeys + k, DeviceId::kCpu,
                                    static_cast<uint32_t>(t)));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(table.keys_inserted(), static_cast<uint64_t>(kKeys));
  EXPECT_EQ(table.rids_inserted(), static_cast<uint64_t>(kKeys * kThreads));
  for (int32_t k = 0; k < kKeys; ++k) {
    const int32_t key = k * 2 + 1;
    uint32_t work = 0;
    const int32_t slot = table.FindKey(
        table.BucketOf(MurmurHash2x4(static_cast<uint32_t>(key))), key, &work,
        CpuSupportsAvx2());
    ASSERT_NE(slot, kNil) << "key " << key;
    uint32_t rids = 0;
    table.ForEachRid(slot, [&rids](int32_t) { ++rids; });
    EXPECT_EQ(rids, static_cast<uint32_t>(kThreads)) << "key " << key;
  }
}

TEST(OpenHashTableCtor, RejectsInvalidBucketCounts) {
  NodePools pools(16, 16, alloc::AllocatorKind::kBasic, 64);
  EXPECT_THROW(OpenHashTable(0, &pools), std::invalid_argument);
  EXPECT_THROW(OpenHashTable(3, &pools), std::invalid_argument);
  EXPECT_THROW(OpenHashTable(100, &pools), std::invalid_argument);
  EXPECT_NO_THROW(OpenHashTable(1, &pools));
  EXPECT_NO_THROW(OpenHashTable(128, &pools));
}

TEST(OpenBucketsForTest, LoadFactorAtMostHalf) {
  EXPECT_EQ(OpenBucketsFor(0), 1u);
  EXPECT_EQ(OpenBucketsFor(1), 1u);
  EXPECT_EQ(OpenBucketsFor(4), 1u);
  EXPECT_EQ(OpenBucketsFor(5), 2u);
  EXPECT_EQ(OpenBucketsFor(1024), 256u);
  EXPECT_EQ(OpenBucketsFor(1025), 512u);
  for (uint64_t n : {1ull, 7ull, 100ull, 4096ull, 100000ull}) {
    const uint64_t slots =
        uint64_t{OpenBucketsFor(n)} * kOpenSlotsPerBucket;
    EXPECT_GE(slots, 2 * n) << n;   // load factor <= 1/2
    EXPECT_LT(slots, 4 * n + 8) << n;
  }
}

}  // namespace
}  // namespace apujoin::join
