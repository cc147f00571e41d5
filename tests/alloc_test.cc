#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/arena.h"
#include "alloc/basic_allocator.h"
#include "alloc/block_allocator.h"
#include "join/result_writer.h"

namespace apujoin::alloc {
namespace {

using simcl::DeviceId;

TEST(ArenaTest, ReservesContiguousRanges) {
  Arena arena(100, 8);
  EXPECT_EQ(arena.Reserve(10), 0);
  EXPECT_EQ(arena.Reserve(5), 10);
  EXPECT_EQ(arena.used(), 15u);
}

TEST(ArenaTest, ExhaustionRollsBack) {
  Arena arena(10, 8);
  EXPECT_EQ(arena.Reserve(8), 0);
  EXPECT_EQ(arena.Reserve(5), -1);  // would overflow
  EXPECT_EQ(arena.Reserve(2), 8);   // rollback left room
}

TEST(ArenaTest, ResetRestoresCapacity) {
  Arena arena(10, 8);
  arena.Reserve(10);
  arena.Reset();
  EXPECT_EQ(arena.Reserve(10), 0);
}

TEST(ArenaTest, ConcurrentReservationsDisjoint) {
  Arena arena(64 * 1000, 8);
  std::vector<std::thread> threads;
  std::vector<std::vector<int64_t>> starts(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&arena, &starts, t]() {
      for (int i = 0; i < 1000; ++i) {
        starts[t].push_back(arena.Reserve(8));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<int64_t> all;
  for (const auto& v : starts) {
    for (int64_t s : v) {
      ASSERT_GE(s, 0);
      EXPECT_TRUE(all.insert(s).second) << "overlapping reservation";
    }
  }
}

TEST(BasicAllocatorTest, OneGlobalAtomicPerRequest) {
  Arena arena(1000, 8);
  BasicAllocator alloc(&arena);
  for (int i = 0; i < 10; ++i) {
    EXPECT_GE(alloc.Allocate(1, DeviceId::kGpu, i), 0);
  }
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[1], 10u);
  EXPECT_EQ(c.local_atomics[1], 0u);
  EXPECT_EQ(c.requests[1], 10u);
}

TEST(BasicAllocatorTest, TakeCountsResets) {
  Arena arena(1000, 8);
  BasicAllocator alloc(&arena);
  alloc.Allocate(1, DeviceId::kCpu, 0);
  alloc.TakeCounts();
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[0], 0u);
}

TEST(BlockAllocatorTest, GlobalAtomicOnlyOnRefill) {
  Arena arena(4096, 8);               // 8-byte elements
  BlockAllocator alloc(&arena, 256);  // 32 elements per block
  for (int i = 0; i < 64; ++i) {
    EXPECT_GE(alloc.Allocate(1, DeviceId::kGpu, /*workgroup=*/5), 0);
  }
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[1], 2u);  // 64 allocations / 32 per block
  EXPECT_EQ(c.local_atomics[1], 64u);
  EXPECT_EQ(c.requests[1], 64u);
}

TEST(BlockAllocatorTest, DistinctWorkgroupsUseDistinctBlocks) {
  Arena arena(4096, 8);
  BlockAllocator alloc(&arena, 256);
  const int64_t a = alloc.Allocate(1, DeviceId::kGpu, 1);
  const int64_t b = alloc.Allocate(1, DeviceId::kGpu, 2);
  EXPECT_NE(a / 32, b / 32);  // different blocks
}

TEST(BlockAllocatorTest, DevicesDoNotShareBlocks) {
  Arena arena(4096, 8);
  BlockAllocator alloc(&arena, 256);
  const int64_t a = alloc.Allocate(1, DeviceId::kCpu, 1);
  const int64_t b = alloc.Allocate(1, DeviceId::kGpu, 1);
  EXPECT_NE(a / 32, b / 32);
}

TEST(BlockAllocatorTest, OversizedRequestServedDirectly) {
  Arena arena(4096, 8);
  BlockAllocator alloc(&arena, 64);  // 8 elements per block
  const int64_t idx = alloc.Allocate(100, DeviceId::kCpu, 0);
  EXPECT_GE(idx, 0);
  const AllocCounts c = alloc.TakeCounts();
  EXPECT_EQ(c.global_atomics[0], 1u);
}

TEST(BlockAllocatorTest, ExhaustionReported) {
  Arena arena(16, 8);
  BlockAllocator alloc(&arena, 64);
  int64_t last = 0;
  int ok = 0;
  for (int i = 0; i < 10 && last >= 0; ++i) {
    last = alloc.Allocate(8, DeviceId::kCpu, i);
    if (last >= 0) ++ok;
  }
  EXPECT_EQ(ok, 2);  // 16 elements = two blocks of 8
  EXPECT_EQ(alloc.TakeCounts().failed, 1u);
}

TEST(BlockAllocatorTest, FewerGlobalAtomicsThanBasic) {
  // The whole point of the optimized allocator (Figures 11/12).
  Arena a1(1 << 16, 8), a2(1 << 16, 8);
  BasicAllocator basic(&a1);
  BlockAllocator block(&a2, 2048);
  for (int i = 0; i < 10000; ++i) {
    basic.Allocate(1, DeviceId::kGpu, i % 64);
    block.Allocate(1, DeviceId::kGpu, i % 64);
  }
  EXPECT_LT(block.TakeCounts().global_atomics[1],
            basic.TakeCounts().global_atomics[1] / 10);
}

// The result writer reserves every slot through these allocators and grows
// its columns in segments behind them. Eight threads emitting past the
// first three segment boundaries (64Ki, 192Ki, 448Ki slots) must lose,
// duplicate or tear nothing. 255-slot blocks straddle those boundaries.
TEST(ResultWriterTest, ConcurrentEmitsGrowAcrossSegments) {
  constexpr int kThreads = 8;
  constexpr int32_t kPerThread = 1 << 16;
  for (AllocatorKind kind : {AllocatorKind::kBasic, AllocatorKind::kOptimized}) {
    SCOPED_TRACE(AllocatorKindName(kind));
    join::ResultWriter writer(kind, 255 * 8);
    writer.CaptureKeys();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t]() {
        const DeviceId dev = t % 2 == 0 ? DeviceId::kCpu : DeviceId::kGpu;
        for (int32_t i = 0; i < kPerThread; ++i) {
          // Work groups are shared across threads, so block caches are
          // contended too.
          writer.Emit(/*key=*/i ^ t, /*build_rid=*/t, /*probe_rid=*/i, dev,
                      static_cast<uint32_t>(i % 64));
        }
      });
    }
    for (auto& th : threads) th.join();

    const uint64_t total = uint64_t{kThreads} * kPerThread;
    EXPECT_EQ(writer.count(), total);
    ASSERT_GT(writer.used_slots(), 7 * join::ResultWriter::kFirstSegment);
    std::vector<std::pair<int32_t, int32_t>> pairs = writer.CollectPairs();
    std::sort(pairs.begin(), pairs.end());
    std::vector<std::pair<int32_t, int32_t>> want;
    for (int32_t t = 0; t < kThreads; ++t) {
      for (int32_t i = 0; i < kPerThread; ++i) want.emplace_back(t, i);
    }
    EXPECT_EQ(pairs, want);

    // Every claimed slot carries the key emitted with its pair.
    uint64_t keyed = 0;
    writer.ForEachRun(0, writer.used_slots(),
                      [&keyed](uint64_t, uint64_t n, const int32_t* build,
                               const int32_t* probe, const int32_t* key) {
                        ASSERT_NE(key, nullptr);
                        if (build == nullptr) return;
                        for (uint64_t j = 0; j < n; ++j) {
                          if (build[j] < 0) continue;
                          EXPECT_EQ(key[j], probe[j] ^ build[j]);
                          ++keyed;
                        }
                      });
    EXPECT_EQ(keyed, total);

    // Reset keeps the segments but forgets every pair.
    writer.Reset();
    EXPECT_EQ(writer.count(), 0u);
    EXPECT_TRUE(writer.CollectPairs().empty());
    writer.Emit(5, 1, 2, DeviceId::kCpu, 0);
    EXPECT_EQ(writer.CollectPairs(),
              (std::vector<std::pair<int32_t, int32_t>>{{1, 2}}));
  }
}

}  // namespace
}  // namespace apujoin::alloc
