// Layout parity: the open-addressing hash layout must produce exactly the
// same join results as the chained layout — match counts through the driver
// on every workload shape, backend, SIMD policy and morsel size, and the
// exact <build rid, probe rid> pair multiset at the engine level. The
// chained layout is the paper's reproduction surface; --layout=open is only
// acceptable because of this test.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "coproc/join_driver.h"
#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/backend_kind.h"
#include "join/open_hash_table.h"
#include "join/reference_join.h"
#include "join/result_writer.h"
#include "join/simple_hash_join.h"
#include "util/perf_asserts.h"
#include "util/cpu_features.h"
#include "util/murmur_hash.h"

namespace apujoin::coproc {
namespace {

using exec::BackendKind;
using exec::HashLayout;
using join::SimdPolicy;

struct LayoutCase {
  const char* name;
  data::Distribution dist;
  double selectivity;
};

const LayoutCase kCases[] = {
    {"uniform", data::Distribution::kUniform, 1.0},
    {"zipf-skewed", data::Distribution::kHighSkew, 1.0},
    {"high-selectivity", data::Distribution::kUniform, 0.125},
};

data::Workload MakeWorkload(const LayoutCase& c) {
  data::WorkloadSpec spec;
  spec.build_tuples = 1 << 12;
  spec.probe_tuples = 1 << 14;
  spec.distribution = c.dist;
  spec.selectivity = c.selectivity;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

// All build tuples carry one key — the densest rid list and the emptiest
// bucket array the open layout can see.
data::Workload AllDuplicateWorkload() {
  data::Workload w;
  w.build.keys.assign(1 << 10, 7);
  w.build.rids.resize(1 << 10);
  for (int32_t i = 0; i < (1 << 10); ++i) w.build.rids[i] = i;
  w.probe.keys.assign(1 << 12, 0);
  w.probe.rids.resize(1 << 12);
  for (int32_t i = 0; i < (1 << 12); ++i) {
    w.probe.keys[i] = (i % 4 == 0) ? 7 : i;  // a quarter of probes hit
    w.probe.rids[i] = i;
  }
  w.expected_matches = join::ReferenceMatchCount(w.build, w.probe);
  return w;
}

uint64_t RunJoin(const data::Workload& w, HashLayout layout,
                 SimdPolicy simd, BackendKind backend, uint32_t morsel,
                 Algorithm algo) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = algo;
  spec.scheme = Scheme::kPipelined;
  spec.engine.layout = layout;
  spec.engine.simd = simd;
  spec.engine.backend = backend;
  spec.engine.threads = 4;
  spec.engine.morsel_items = morsel;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return ~0ull;
  return report->matches;
}

TEST(LayoutParity, MatchCountsAgreeAcrossLayoutsAndSimd) {
  for (const LayoutCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const data::Workload w = MakeWorkload(c);
    const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
    for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
      SCOPED_TRACE(AlgorithmName(algo));
      EXPECT_EQ(RunJoin(w, HashLayout::kChained, SimdPolicy::kAuto,
                        BackendKind::kThreadPool, 0, algo),
                reference);
      EXPECT_EQ(RunJoin(w, HashLayout::kOpenAddressing, SimdPolicy::kScalar,
                        BackendKind::kThreadPool, 0, algo),
                reference);
      EXPECT_EQ(RunJoin(w, HashLayout::kOpenAddressing, SimdPolicy::kAvx2,
                        BackendKind::kThreadPool, 0, algo),
                reference);
    }
  }
}

TEST(LayoutParity, AllDuplicateKeys) {
  const data::Workload w = AllDuplicateWorkload();
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    SCOPED_TRACE(AlgorithmName(algo));
    for (HashLayout layout :
         {HashLayout::kChained, HashLayout::kOpenAddressing}) {
      SCOPED_TRACE(HashLayoutName(layout));
      EXPECT_EQ(RunJoin(w, layout, SimdPolicy::kAuto,
                        BackendKind::kThreadPool, 0, algo),
                w.expected_matches);
    }
  }
}

TEST(LayoutParity, MorselSizeInvariant) {
  const data::Workload w = MakeWorkload(kCases[1]);  // skew stresses probes
  const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
  for (uint32_t morsel : {1u, 64u, 256u, 4096u}) {
    SCOPED_TRACE(morsel);
    EXPECT_EQ(RunJoin(w, HashLayout::kOpenAddressing, SimdPolicy::kAuto,
                      BackendKind::kThreadPool, morsel, Algorithm::kSHJ),
              reference);
  }
}

TEST(LayoutParity, EmptyRelationRejectedIdentically) {
  data::Workload w;
  w.probe.keys.assign(16, 1);
  w.probe.rids.assign(16, 0);
  for (HashLayout layout :
       {HashLayout::kChained, HashLayout::kOpenAddressing}) {
    SCOPED_TRACE(HashLayoutName(layout));
    simcl::SimContext ctx;
    JoinSpec spec;
    spec.engine.layout = layout;
    auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
}

// Separate tables under OL/PL may run b3 (key insert) and b4 (rid insert)
// for the same tuple on different devices. b4 must link the rid into the
// table whose slot b3 returned, not the table of the device it runs on —
// otherwise the join returns OK with missing matches. The build ratios
// pin b3 and b4 to opposite devices in both directions on the sim. A real
// backend has one lane and rejects the overrides.
TEST(LayoutParity, SeparateTablesSplitKeyAndRidInsertAcrossDevices) {
  const data::Workload w = MakeWorkload(kCases[0]);
  const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
  const std::vector<double> splits[] = {{1.0, 1.0, 1.0, 0.0},
                                        {0.0, 0.0, 0.0, 1.0}};
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    for (Scheme scheme : {Scheme::kOffload, Scheme::kPipelined}) {
      for (BackendKind backend :
           {BackendKind::kSim, BackendKind::kThreadPool}) {
        for (const std::vector<double>& ratios : splits) {
          SCOPED_TRACE(std::string(AlgorithmName(algo)) + "/" +
                       SchemeName(scheme) + "/" +
                       exec::BackendKindName(backend) + "/b3 on " +
                       (ratios[2] == 1.0 ? "cpu" : "gpu"));
          simcl::SimContext ctx;
          JoinSpec spec;
          spec.algorithm = algo;
          spec.scheme = scheme;
          spec.engine.layout = HashLayout::kOpenAddressing;
          spec.engine.shared_table = false;
          spec.engine.backend = backend;
          spec.engine.threads = 4;
          spec.build_ratios = ratios;
          auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
          if (backend == BackendKind::kThreadPool) {
            ASSERT_FALSE(report.ok());
            EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
            continue;
          }
          ASSERT_TRUE(report.ok()) << report.status().ToString();
          EXPECT_EQ(report->matches, reference);
        }
      }
    }
  }
}

// Engine-level rid parity: both layouts must emit the same <build rid,
// probe rid> pair multiset, not merely the same count.
TEST(LayoutParity, EmittedRidPairsIdentical) {
  const data::Workload w = MakeWorkload(kCases[0]);
  std::vector<std::pair<int32_t, int32_t>> pairs[2];
  int idx = 0;
  for (HashLayout layout :
       {HashLayout::kChained, HashLayout::kOpenAddressing}) {
    simcl::SimContext ctx;
    join::EngineOptions opts;
    opts.layout = layout;
    join::ShjEngine engine(&ctx, &w.build, &w.probe, opts);
    ASSERT_TRUE(engine.Prepare().ok());
    join::ResultWriter out(alloc::AllocatorKind::kOptimized, 2048);
    for (auto& step : engine.BuildSteps()) {
      step.run(join::Morsel{0, step.items}, simcl::DeviceId::kCpu, nullptr);
    }
    for (auto& step : engine.ProbeSteps(&out)) {
      step.run(join::Morsel{0, step.items}, simcl::DeviceId::kCpu, nullptr);
    }
    ASSERT_FALSE(engine.overflowed());
    pairs[idx] = out.CollectPairs();
    std::sort(pairs[idx].begin(), pairs[idx].end());
    ++idx;
  }
  ASSERT_EQ(pairs[0].size(), static_cast<size_t>(w.expected_matches));
  EXPECT_EQ(pairs[0], pairs[1]);
}

// Wide-schema parity: every layout/SIMD combination must agree with the
// oracle on typed keys too — including open+AVX2, where the engine silently
// falls back to the scalar two-word compare (the 4-byte SIMD probe cannot
// see the hi word).
TEST(LayoutParity, WideSchemasMatchCountsAgreeAcrossLayoutsAndSimd) {
  for (data::KeySchema schema :
       {data::KeySchema::kU64, data::KeySchema::kDictString}) {
    SCOPED_TRACE(data::KeySchemaName(schema));
    data::WorkloadSpec spec;
    spec.build_tuples = 1 << 12;
    spec.probe_tuples = 1 << 14;
    spec.selectivity = 0.5;
    spec.key_schema = schema;
    auto gen = data::GenerateWorkload(spec);
    ASSERT_TRUE(gen.ok());
    const data::Workload w = std::move(gen).value();
    const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
    for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
      SCOPED_TRACE(AlgorithmName(algo));
      EXPECT_EQ(RunJoin(w, HashLayout::kChained, SimdPolicy::kAuto,
                        BackendKind::kThreadPool, 0, algo),
                reference);
      EXPECT_EQ(RunJoin(w, HashLayout::kOpenAddressing, SimdPolicy::kScalar,
                        BackendKind::kThreadPool, 0, algo),
                reference);
      EXPECT_EQ(RunJoin(w, HashLayout::kOpenAddressing, SimdPolicy::kAvx2,
                        BackendKind::kThreadPool, 0, algo),
                reference);
    }
  }
}

// Engine-level rid parity on wide schemas: both layouts must emit exactly
// the oracle's <build rid, probe rid> pair multiset.
TEST(LayoutParity, WideEmittedRidPairsIdentical) {
  for (data::KeySchema schema :
       {data::KeySchema::kU64, data::KeySchema::kDictString}) {
    SCOPED_TRACE(data::KeySchemaName(schema));
    data::WorkloadSpec spec;
    spec.build_tuples = 1 << 10;
    spec.probe_tuples = 1 << 12;
    spec.selectivity = 0.5;
    spec.key_schema = schema;
    auto gen = data::GenerateWorkload(spec);
    ASSERT_TRUE(gen.ok());
    const data::Workload w = std::move(gen).value();
    const auto reference = join::ReferenceJoinPairs(w.build, w.probe);
    for (HashLayout layout :
         {HashLayout::kChained, HashLayout::kOpenAddressing}) {
      SCOPED_TRACE(HashLayoutName(layout));
      simcl::SimContext ctx;
      join::EngineOptions opts;
      opts.layout = layout;
      join::ShjEngine engine(&ctx, &w.build, &w.probe, opts);
      ASSERT_TRUE(engine.Prepare().ok());
      // Half the lanes of every workgroup miss (selectivity 0.5), so each
      // strands roughly half an allocator block — size the writer by probe
      // cardinality, not by the match count.
      join::ResultWriter out(alloc::AllocatorKind::kOptimized, 2048);
      for (auto& step : engine.BuildSteps()) {
        step.run(join::Morsel{0, step.items}, simcl::DeviceId::kCpu, nullptr);
      }
      for (auto& step : engine.ProbeSteps(&out)) {
        step.run(join::Morsel{0, step.items}, simcl::DeviceId::kCpu, nullptr);
      }
      ASSERT_FALSE(engine.overflowed());
      auto pairs = out.CollectPairs();
      std::sort(pairs.begin(), pairs.end());
      EXPECT_EQ(pairs, reference);
    }
  }
}

// The CI throughput gate: the open layout's SIMD probe must not be slower
// than the chained layout's pointer-chasing probe on an out-of-cache
// build side. Guarded: wall-clock is only meaningful on idle multi-core
// runners (APUJOIN_PERF_ASSERTS=1 forces the assert on in release-perf CI).
TEST(LayoutParity, OpenSimdProbeBeatsChained) {
  constexpr uint32_t kBuild = 1 << 19;
  constexpr uint32_t kProbes = 1 << 16;
  join::NodePools chained_pools(kBuild + kBuild / 4, kBuild + kBuild / 4,
                                alloc::AllocatorKind::kOptimized, 2048);
  join::HashTable chained(join::NextPow2(kBuild), &chained_pools);
  join::NodePools open_pools(64, kBuild + kBuild / 4,
                             alloc::AllocatorKind::kOptimized, 2048);
  join::OpenHashTable open(join::OpenBucketsFor(kBuild), &open_pools);
  for (uint32_t k = 0; k < kBuild; ++k) {
    const int32_t key = static_cast<int32_t>(2 * k + 1);
    uint32_t work = 0;
    const int32_t node = chained.FindOrAddKey(
        chained.BucketOf(MurmurHash2x4(2 * k + 1)), key, simcl::DeviceId::kCpu,
        0, &work);
    ASSERT_NE(node, join::kNil);
    chained.InsertRid(node, static_cast<int32_t>(k), simcl::DeviceId::kCpu, 0);
    work = 0;
    const int32_t slot = open.FindOrAddKey(
        open.BucketOf(MurmurHash2x4(2 * k + 1)), key, &work);
    ASSERT_NE(slot, join::kNil);
    open.InsertRid(slot, static_cast<int32_t>(k), simcl::DeviceId::kCpu, 0);
  }
  std::vector<int32_t> keys(kProbes);
  std::vector<uint32_t> hash(kProbes);
  for (uint32_t i = 0; i < kProbes; ++i) {
    keys[i] = static_cast<int32_t>((i * 2654435761u) % (2 * kBuild));
    hash[i] = MurmurHash2x4(static_cast<uint32_t>(keys[i]));
  }
  const bool avx2 = CpuSupportsAvx2();
  const auto time_probe = [&](auto&& probe) {
    // Two passes: the first warms the caches, the second is the measure.
    probe();
    const auto t0 = std::chrono::steady_clock::now();
    probe();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  uint64_t found_chained = 0;
  const auto chained_ns = time_probe([&] {
    found_chained = 0;
    for (uint32_t i = 0; i < kProbes; ++i) {
      uint32_t work = 0;
      found_chained +=
          chained.FindKey(chained.BucketOf(hash[i]), keys[i], &work) !=
          join::kNil;
    }
  });
  uint64_t found_open = 0;
  const auto open_ns = time_probe([&] {
    found_open = 0;
    for (uint32_t i = 0; i < kProbes; ++i) {
      if (i + 16 < kProbes) open.PrefetchBucket(open.BucketOf(hash[i + 16]));
      uint32_t work = 0;
      found_open += open.FindKey(open.BucketOf(hash[i]), keys[i], &work,
                                 avx2) != join::kNil;
    }
  });
  EXPECT_EQ(found_chained, found_open);  // functional parity, always on
  std::fprintf(stderr,
               "layout_parity: chained probe %lld ns, open(%s) probe %lld ns "
               "(%llu probes)\n",
               static_cast<long long>(chained_ns), avx2 ? "avx2" : "scalar",
               static_cast<long long>(open_ns),
               static_cast<unsigned long long>(kProbes));
  if (PerfAssertsEnabled()) {
    // 1.1x headroom absorbs timer noise; the real margin is much larger.
    EXPECT_LT(static_cast<double>(open_ns),
              static_cast<double>(chained_ns) * 1.1);
  }
}

}  // namespace
}  // namespace apujoin::coproc
