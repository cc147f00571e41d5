// google-benchmark micro suite: throughput sanity for the hot primitives
// (MurmurHash, software allocators, hash-table ops, radix pass kernels,
// cache simulator). These measure *host* wall-clock of the real code paths,
// complementing the virtual-time figure benches.

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "alloc/basic_allocator.h"
#include "alloc/block_allocator.h"
#include "coproc/step_series.h"
#include "exec/thread_pool_backend.h"
#include "data/generator.h"
#include "data/key_schema.h"
#include "join/groupby_engine.h"
#include "join/hash_table.h"
#include "join/open_hash_table.h"
#include "join/radix_partition.h"
#include "join/reference_join.h"
#include "join/result_writer.h"
#include "simcl/cache_sim.h"
#include "util/cpu_features.h"
#include "util/murmur_hash.h"
#include "util/random.h"

namespace {

using namespace apujoin;  // NOLINT: bench-local convenience

void BM_MurmurHash2x4(benchmark::State& state) {
  uint32_t k = 12345;
  for (auto _ : state) {
    k = MurmurHash2x4(k);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_MurmurHash2x4);

void BM_BasicAllocator(benchmark::State& state) {
  alloc::Arena arena(1ull << 24, 8);
  alloc::BasicAllocator allocator(&arena);
  uint32_t wg = 0;
  for (auto _ : state) {
    if (allocator.Allocate(simcl::DeviceId::kGpu, wg++ & 1023) < 0) {
      arena.Reset();
    }
  }
}
BENCHMARK(BM_BasicAllocator);

void BM_BlockAllocator(benchmark::State& state) {
  alloc::Arena arena(1ull << 24, 8);
  alloc::BlockAllocator allocator(&arena, 2048);
  uint32_t wg = 0;
  for (auto _ : state) {
    if (allocator.Allocate(simcl::DeviceId::kGpu, wg++ & 1023) < 0) {
      arena.Reset();
      allocator.Reset();
    }
  }
}
BENCHMARK(BM_BlockAllocator);

void BM_HashTableInsert(benchmark::State& state) {
  const uint32_t n = 1 << 16;
  auto pools = std::make_unique<join::NodePools>(
      n * 2, n * 2, alloc::AllocatorKind::kOptimized, 2048);
  auto table = std::make_unique<join::HashTable>(n, pools.get());
  int32_t key = 1;
  uint64_t inserted = 0;
  for (auto _ : state) {
    if (inserted >= n) {
      // Recreate the table when full (outside the timed region).
      state.PauseTiming();
      pools = std::make_unique<join::NodePools>(
          n * 2, n * 2, alloc::AllocatorKind::kOptimized, 2048);
      table = std::make_unique<join::HashTable>(n, pools.get());
      inserted = 0;
      key = 1;
      state.ResumeTiming();
    }
    uint32_t work = 0;
    const uint32_t bucket =
        table->BucketOf(MurmurHash2x4(static_cast<uint32_t>(key)));
    const int32_t node =
        table->FindOrAddKey(bucket, key, simcl::DeviceId::kCpu, 0, &work);
    benchmark::DoNotOptimize(
        table->InsertRid(node, key, simcl::DeviceId::kCpu, 0));
    key += 2;
    ++inserted;
  }
}
BENCHMARK(BM_HashTableInsert);

void BM_HashTableProbe(benchmark::State& state) {
  const uint32_t n = 1 << 14;
  join::NodePools pools(n * 2, n * 2, alloc::AllocatorKind::kOptimized, 2048);
  join::HashTable table(n, &pools);
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t work = 0;
    const uint32_t bucket = table.BucketOf(MurmurHash2x4(2 * k + 1));
    const int32_t node = table.FindOrAddKey(
        static_cast<int32_t>(bucket), 2 * k + 1, simcl::DeviceId::kCpu, 0,
        &work);
    table.InsertRid(node, k, simcl::DeviceId::kCpu, 0);
  }
  uint32_t k = 0;
  for (auto _ : state) {
    uint32_t work = 0;
    const int32_t key = static_cast<int32_t>(2 * (k++ % n) + 1);
    const uint32_t bucket =
        table.BucketOf(MurmurHash2x4(static_cast<uint32_t>(key)));
    benchmark::DoNotOptimize(table.FindKey(bucket, key, &work));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTableProbe);

// --------------------------------------------------------------------------
// Probe-layout comparison: the same out-of-cache probe workload against the
// chained table and the open-addressing table (scalar and AVX2 paths). All
// three run batch-style with hashes/buckets precomputed — the p2/p3 split
// of the real kernels — so the numbers isolate the key-search itself.
// --------------------------------------------------------------------------

constexpr uint32_t kLayoutBuildKeys = 1 << 20;
constexpr uint32_t kLayoutProbeBatch = 1 << 16;

struct ProbeBatch {
  std::vector<int32_t> keys;
  std::vector<uint32_t> hash;
};

ProbeBatch MakeProbeBatch(uint32_t batch = kLayoutProbeBatch) {
  ProbeBatch b;
  b.keys.resize(batch);
  b.hash.resize(batch);
  Random rng(7);
  for (uint32_t i = 0; i < batch; ++i) {
    // Build keys are the odd numbers below 2n; every second probe misses.
    b.keys[i] = static_cast<int32_t>(rng.Next() % (2 * kLayoutBuildKeys));
    b.hash[i] = MurmurHash2x4(static_cast<uint32_t>(b.keys[i]));
  }
  return b;
}

void BM_ProbeChained(benchmark::State& state) {
  const uint32_t n = kLayoutBuildKeys;
  join::NodePools pools(n + n / 4, n + n / 4,
                        alloc::AllocatorKind::kOptimized, 2048);
  join::HashTable table(join::NextPow2(n), &pools);
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t work = 0;
    const int32_t key = static_cast<int32_t>(2 * k + 1);
    const uint32_t b = table.BucketOf(MurmurHash2x4(2 * k + 1));
    const int32_t node =
        table.FindOrAddKey(b, key, simcl::DeviceId::kCpu, 0, &work);
    table.InsertRid(node, static_cast<int32_t>(k), simcl::DeviceId::kCpu, 0);
  }
  const ProbeBatch batch = MakeProbeBatch();
  for (auto _ : state) {
    uint64_t found = 0;
    for (uint32_t i = 0; i < kLayoutProbeBatch; ++i) {
      uint32_t work = 0;
      found += table.FindKey(table.BucketOf(batch.hash[i]), batch.keys[i],
                             &work) != join::kNil;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kLayoutProbeBatch));
}
BENCHMARK(BM_ProbeChained);

void ProbeOpenAddressing(benchmark::State& state, bool use_avx2,
                         uint32_t prefetch_dist) {
  const uint32_t n = kLayoutBuildKeys;
  join::NodePools pools(64, n + n / 4, alloc::AllocatorKind::kOptimized,
                        2048);
  join::OpenHashTable table(join::OpenBucketsFor(n), &pools);
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t work = 0;
    const int32_t key = static_cast<int32_t>(2 * k + 1);
    const int32_t slot =
        table.FindOrAddKey(table.BucketOf(MurmurHash2x4(2 * k + 1)), key,
                           &work);
    table.InsertRid(slot, static_cast<int32_t>(k), simcl::DeviceId::kCpu, 0);
  }
  const ProbeBatch batch = MakeProbeBatch();
  std::vector<uint32_t> buckets(kLayoutProbeBatch);
  for (uint32_t i = 0; i < kLayoutProbeBatch; ++i) {
    buckets[i] = table.BucketOf(batch.hash[i]);
  }
  for (auto _ : state) {
    uint64_t found = 0;
    for (uint32_t i = 0; i < kLayoutProbeBatch; ++i) {
      if (prefetch_dist != 0 && i + prefetch_dist < kLayoutProbeBatch) {
        table.PrefetchBucket(buckets[i + prefetch_dist]);
      }
      uint32_t work = 0;
      found += table.FindKey(buckets[i], batch.keys[i], &work, use_avx2) !=
               join::kNil;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kLayoutProbeBatch));
}

void BM_ProbeOpenAddressingScalar(benchmark::State& state) {
  ProbeOpenAddressing(state, /*use_avx2=*/false, /*prefetch_dist=*/16);
}
BENCHMARK(BM_ProbeOpenAddressingScalar);

void BM_ProbeOpenAddressingAvx2(benchmark::State& state) {
  // Silently measures the scalar path on hosts without AVX2 (the same
  // degradation the kAuto dispatch applies).
  ProbeOpenAddressing(state, /*use_avx2=*/CpuSupportsAvx2(),
                      /*prefetch_dist=*/16);
}
BENCHMARK(BM_ProbeOpenAddressingAvx2);

void BM_ProbeOpenAddressingNoPrefetch(benchmark::State& state) {
  ProbeOpenAddressing(state, /*use_avx2=*/CpuSupportsAvx2(),
                      /*prefetch_dist=*/0);
}
BENCHMARK(BM_ProbeOpenAddressingNoPrefetch);

// Wide (two-word) probe variants — the canonical U64/composite/dict-string
// path. Build lo words repeat every 64K keys so the hi-word compare carries
// the match; every second probe misses, as in the narrow batches. The open
// layout takes the scalar wide probe (the 8-lane AVX2 bucket compare is a
// narrow-key specialization), so these also quantify what kAvx2 gives up
// when the schema widens.

struct WideProbeBatch {
  std::vector<int32_t> lo, hi;
  std::vector<uint32_t> hash;
};

WideProbeBatch MakeWideProbeBatch(uint32_t batch = kLayoutProbeBatch) {
  WideProbeBatch b;
  b.lo.resize(batch);
  b.hi.resize(batch);
  b.hash.resize(batch);
  Random rng(7);
  for (uint32_t i = 0; i < batch; ++i) {
    const uint32_t v = rng.Next() % (2 * kLayoutBuildKeys);
    b.lo[i] = static_cast<int32_t>(v & 0xffff);
    b.hi[i] = static_cast<int32_t>(v);
    b.hash[i] = MurmurHash2x8(data::PackKeyPair(b.lo[i], b.hi[i]));
  }
  return b;
}

void BM_ProbeChainedWide(benchmark::State& state) {
  const uint32_t n = kLayoutBuildKeys;
  join::NodePools pools(n + n / 4, n + n / 4,
                        alloc::AllocatorKind::kOptimized, 2048,
                        /*wide_keys=*/true);
  join::HashTable table(join::NextPow2(n), &pools);
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t work = 0;
    const int32_t lo = static_cast<int32_t>(k & 0xffff);
    const int32_t hi = static_cast<int32_t>(k);
    const uint32_t b =
        table.BucketOf(MurmurHash2x8(data::PackKeyPair(lo, hi)));
    const int32_t node =
        table.FindOrAdd<true>(b, lo, hi, simcl::DeviceId::kCpu, 0, &work);
    table.InsertRid(node, static_cast<int32_t>(k), simcl::DeviceId::kCpu, 0);
  }
  const WideProbeBatch batch = MakeWideProbeBatch();
  for (auto _ : state) {
    uint64_t found = 0;
    for (uint32_t i = 0; i < kLayoutProbeBatch; ++i) {
      uint32_t work = 0;
      found += table.Find<true>(table.BucketOf(batch.hash[i]), batch.lo[i],
                                batch.hi[i], &work) != join::kNil;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kLayoutProbeBatch));
}
BENCHMARK(BM_ProbeChainedWide);

void BM_ProbeOpenAddressingWide(benchmark::State& state) {
  const uint32_t n = kLayoutBuildKeys;
  join::NodePools pools(64, n + n / 4, alloc::AllocatorKind::kOptimized,
                        2048);
  join::OpenHashTable table(join::OpenBucketsFor(n), &pools,
                            /*wide_keys=*/true);
  for (uint32_t k = 0; k < n; ++k) {
    uint32_t work = 0;
    const int32_t lo = static_cast<int32_t>(k & 0xffff);
    const int32_t hi = static_cast<int32_t>(k);
    const int32_t slot = table.FindOrAdd<true>(
        table.BucketOf(MurmurHash2x8(data::PackKeyPair(lo, hi))), lo, hi,
        simcl::DeviceId::kCpu, 0, &work);
    table.InsertRid(slot, static_cast<int32_t>(k), simcl::DeviceId::kCpu, 0);
  }
  const WideProbeBatch batch = MakeWideProbeBatch();
  std::vector<uint32_t> buckets(kLayoutProbeBatch);
  for (uint32_t i = 0; i < kLayoutProbeBatch; ++i) {
    buckets[i] = table.BucketOf(batch.hash[i]);
  }
  for (auto _ : state) {
    uint64_t found = 0;
    for (uint32_t i = 0; i < kLayoutProbeBatch; ++i) {
      if (i + 16 < kLayoutProbeBatch) table.PrefetchBucket(buckets[i + 16]);
      uint32_t work = 0;
      found += table.Find<true>(buckets[i], batch.lo[i], batch.hi[i],
                                &work) != join::kNil;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kLayoutProbeBatch));
}
BENCHMARK(BM_ProbeOpenAddressingWide);

// --------------------------------------------------------------------------
// Fusion payoff: the same probe workload either streams every match into
// the group-by accumulator (the fused p4g shape) or materializes the
// <key, build rid, probe rid> tuples through the result writer and
// aggregates them in a second g1-style rescan (the unfused p4 + g1 shape).
// The delta is the writer traffic (atomic slot claims, three column
// stores, the rescan reload) the plan-fusion pass eliminates; the batch is
// sized so the pair buffer does not fit in cache (the regime of the
// figure-scale workloads).
// --------------------------------------------------------------------------

constexpr uint32_t kFuseProbeBatch = 1 << 21;

/// Fills a chained table with the odd keys below 2n, one rid per key (the
/// BM_ProbeChained build, shared by the fusion pair).
void FillFusionBuild(join::HashTable* table) {
  for (uint32_t k = 0; k < kLayoutBuildKeys; ++k) {
    uint32_t work = 0;
    const int32_t key = static_cast<int32_t>(2 * k + 1);
    const uint32_t b = table->BucketOf(MurmurHash2x4(2 * k + 1));
    const int32_t node =
        table->FindOrAddKey(b, key, simcl::DeviceId::kCpu, 0, &work);
    table->InsertRid(node, static_cast<int32_t>(k), simcl::DeviceId::kCpu, 0);
  }
}

void BM_ProbeAggregateFused(benchmark::State& state) {
  const uint32_t n = kLayoutBuildKeys;
  join::NodePools pools(n + n / 4, n + n / 4,
                        alloc::AllocatorKind::kOptimized, 2048);
  join::HashTable table(join::NextPow2(n), &pools);
  FillFusionBuild(&table);
  const ProbeBatch batch = MakeProbeBatch(kFuseProbeBatch);
  join::GroupByEngine agg(plan::AggFn::kSum);
  APU_CHECK_OK(agg.PrepareFused(n));
  for (auto _ : state) {
    uint64_t work = 0;
    for (uint32_t i = 0; i < kFuseProbeBatch; ++i) {
      uint32_t w = 0;
      const int32_t node =
          table.FindKey(table.BucketOf(batch.hash[i]), batch.keys[i], &w);
      if (node == join::kNil) continue;
      const int32_t key = batch.keys[i];
      work += table.ForEachRid(node, [&agg, key, i](int32_t) {
        agg.Accumulate(key, static_cast<int64_t>(i));
      });
    }
    benchmark::DoNotOptimize(work);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kFuseProbeBatch));
}
BENCHMARK(BM_ProbeAggregateFused);

void BM_ProbeMaterializeThenAggregate(benchmark::State& state) {
  const uint32_t n = kLayoutBuildKeys;
  join::NodePools pools(n + n / 4, n + n / 4,
                        alloc::AllocatorKind::kOptimized, 2048);
  join::HashTable table(join::NextPow2(n), &pools);
  FillFusionBuild(&table);
  const ProbeBatch batch = MakeProbeBatch(kFuseProbeBatch);
  join::GroupByEngine agg(plan::AggFn::kSum);
  APU_CHECK_OK(agg.PrepareFused(n));
  join::ResultWriter writer(alloc::AllocatorKind::kOptimized, 2048);
  writer.CaptureKeys();
  for (auto _ : state) {
    writer.Reset();
    // p4: probe and materialize the result tuples through the writer.
    for (uint32_t i = 0; i < kFuseProbeBatch; ++i) {
      uint32_t w = 0;
      const int32_t node =
          table.FindKey(table.BucketOf(batch.hash[i]), batch.keys[i], &w);
      if (node == join::kNil) continue;
      const int32_t key = batch.keys[i];
      table.ForEachRid(node, [&writer, key, i](int32_t brid) {
        writer.Emit(key, brid, static_cast<int32_t>(i), simcl::DeviceId::kCpu,
                    0);
      });
    }
    // g1: rescan the writer's slots and fold them into the aggregate table.
    uint64_t work = 0;
    writer.ForEachRun(
        0, writer.used_slots(),
        [&agg, &work](uint64_t, uint64_t n, const int32_t* brids,
                      const int32_t* prids, const int32_t* keys) {
          if (brids == nullptr) return;
          for (uint64_t j = 0; j < n; ++j) {
            if (brids[j] < 0) continue;  // unclaimed block remainder
            work += agg.Accumulate(keys[j], prids[j]);
          }
        });
    benchmark::DoNotOptimize(work);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kFuseProbeBatch));
}
BENCHMARK(BM_ProbeMaterializeThenAggregate);

void BM_RadixPartitionPass(benchmark::State& state) {
  data::WorkloadSpec wspec;
  wspec.build_tuples = 1 << 16;
  wspec.probe_tuples = 1;
  auto w = data::GenerateWorkload(wspec);
  simcl::SimContext ctx;
  join::EngineOptions opts;
  opts.partitions = 64;
  const join::RadixPlan plan =
      join::RadixPlan::Make(1 << 16, 1 << 16, 4e6, opts);
  for (auto _ : state) {
    join::RadixPartitioner part(&ctx, &w->build, plan, opts);
    APU_CHECK_OK(part.Prepare());
    for (int pass = 0; pass < part.passes(); ++pass) {
      part.BeginPass(pass);
      auto steps = part.PassSteps(pass);
      for (auto& step : steps) {
        step.run(join::Morsel{0, step.items}, simcl::DeviceId::kCpu,
                 nullptr);
      }
      part.EndPass(pass);
    }
    benchmark::DoNotOptimize(part.offsets().back());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_RadixPartitionPass);

// --------------------------------------------------------------------------
// Kernel-dispatch overhead: the refactor's reason-to-exist. Both cases run
// the same p1-style hash loop (MurmurHash over a key column into a hash
// column); the first dispatches every item through a type-erased
// std::function closure — the historical ItemKernel ABI — while the second
// makes one std::function call per 256-item morsel and loops tight inside.
// Compare the ns/item (items_per_second counter) of the two.
// --------------------------------------------------------------------------

constexpr uint64_t kDispatchItems = 1 << 16;

void BM_DispatchPerItemClosure(benchmark::State& state) {
  std::vector<int32_t> keys(kDispatchItems);
  std::vector<uint32_t> hash(kDispatchItems);
  for (uint64_t i = 0; i < kDispatchItems; ++i) {
    keys[i] = static_cast<int32_t>(i * 2654435761u);
  }
  // The pre-morsel ABI: one virtual call + closure frame per item.
  std::function<uint32_t(uint64_t, simcl::DeviceId)> fn =
      [&keys, &hash](uint64_t i, simcl::DeviceId) -> uint32_t {
    hash[i] = MurmurHash2x4(static_cast<uint32_t>(keys[i]));
    return 1;
  };
  for (auto _ : state) {
    uint64_t work = 0;
    for (uint64_t i = 0; i < kDispatchItems; ++i) {
      work += fn(i, simcl::DeviceId::kCpu);
    }
    benchmark::DoNotOptimize(work);
    benchmark::DoNotOptimize(hash.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDispatchItems));
}
BENCHMARK(BM_DispatchPerItemClosure);

void BM_DispatchMorselKernel(benchmark::State& state) {
  std::vector<int32_t> keys(kDispatchItems);
  std::vector<uint32_t> hash(kDispatchItems);
  for (uint64_t i = 0; i < kDispatchItems; ++i) {
    keys[i] = static_cast<int32_t>(i * 2654435761u);
  }
  // The morsel ABI: column views captured once, one dispatch per morsel.
  join::MorselKernel kernel =
      [k = keys.data(), h = hash.data()](const join::Morsel& m,
                                         simcl::DeviceId,
                                         uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      h[i] = MurmurHash2x4(static_cast<uint32_t>(k[i]));
    }
    return join::ConstantWork(lw, m);
  };
  const uint64_t morsel = exec::kDefaultMorselItems;
  for (auto _ : state) {
    uint64_t work = 0;
    for (uint64_t base = 0; base < kDispatchItems; base += morsel) {
      work += kernel(
          join::Morsel{base, std::min(kDispatchItems, base + morsel)},
          simcl::DeviceId::kCpu, nullptr);
    }
    benchmark::DoNotOptimize(work);
    benchmark::DoNotOptimize(hash.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDispatchItems));
}
BENCHMARK(BM_DispatchMorselKernel);

void BM_CacheSimAccess(benchmark::State& state) {
  simcl::CacheSim cache;
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(rng.Next() & ((16u << 20) - 1)));
  }
}
BENCHMARK(BM_CacheSimAccess);

void BM_ReferenceJoin(benchmark::State& state) {
  data::WorkloadSpec wspec;
  wspec.build_tuples = 1 << 14;
  wspec.probe_tuples = 1 << 16;
  auto w = data::GenerateWorkload(wspec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(join::ReferenceMatchCount(w->build, w->probe));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_ReferenceJoin);

}  // namespace

// Accepts the repo-wide --json=<path> flag by translating it into
// google-benchmark's JSON reporter pair, so CI collects BENCH_*.json
// artifacts from this binary exactly like from the figure benches.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  translated.reserve(args.size() + 1);
  for (const std::string& a : args) {
    if (a.rfind("--json=", 0) == 0) {
      translated.push_back("--benchmark_out=" + a.substr(7));
      translated.push_back("--benchmark_out_format=json");
    } else {
      translated.push_back(a);
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(translated.size());
  for (std::string& a : translated) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
