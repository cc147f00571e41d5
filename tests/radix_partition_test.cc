#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "coproc/step_series.h"
#include "data/generator.h"
#include "join/radix_partition.h"
#include "util/murmur_hash.h"

namespace apujoin::join {
namespace {

using coproc::RunSeries;
using coproc::SeriesOptions;

data::Relation MakeRelation(uint64_t n, uint64_t seed = 3) {
  data::WorkloadSpec spec;
  spec.build_tuples = n;
  spec.probe_tuples = 1;
  spec.seed = seed;
  auto w = data::GenerateWorkload(spec);
  return w->build;
}

void RunAllPasses(simcl::SimContext* ctx, RadixPartitioner* part,
                  double cpu_ratio = 1.0) {
  for (int pass = 0; pass < part->passes(); ++pass) {
    part->BeginPass(pass);
    std::vector<StepDef> steps = part->PassSteps(pass);
    SeriesOptions opts;
    opts.ratios.assign(steps.size(), cpu_ratio);
    RunSeries(ctx, steps, opts);
    part->EndPass(pass);
  }
}

class RadixPartitionTest : public ::testing::Test {
 protected:
  simcl::SimContext ctx_;
  EngineOptions opts_;
};

TEST_F(RadixPartitionTest, PlanSinglePassForSmallInput) {
  opts_.partitions = 16;
  const RadixPlan plan = RadixPlan::Make(1 << 10, 1 << 10, 4e6, opts_);
  EXPECT_EQ(plan.total_partitions, 16u);
  EXPECT_EQ(plan.partition_bits, 4u);
  EXPECT_EQ(plan.passes, 1);
}

TEST_F(RadixPartitionTest, PlanMultiPassForManyPartitions) {
  opts_.partitions = 512;  // > 64 fanout -> 2 passes
  const RadixPlan plan = RadixPlan::Make(1 << 20, 1 << 20, 4e6, opts_);
  EXPECT_EQ(plan.total_partitions, 512u);
  EXPECT_EQ(plan.passes, 2);
}

TEST_F(RadixPartitionTest, AutoPlanTargetsCacheResidentPairs) {
  const RadixPlan plan =
      RadixPlan::Make(16ull << 20, 16ull << 20, 4.0 * 1024 * 1024, opts_);
  EXPECT_GE(plan.total_partitions, 256u);
  EXPECT_LE(plan.total_partitions, 4096u);
  EXPECT_EQ(plan.passes, 2);
}

TEST_F(RadixPartitionTest, OutputIsPermutationOfInput) {
  const data::Relation rel = MakeRelation(1 << 12);
  opts_.partitions = 64;
  const RadixPlan plan = RadixPlan::Make(rel.size(), rel.size(), 4e6, opts_);
  RadixPartitioner part(&ctx_, &rel, plan, opts_);
  ASSERT_TRUE(part.Prepare().ok());
  RunAllPasses(&ctx_, &part);

  std::multiset<int32_t> in(rel.keys.begin(), rel.keys.end());
  std::multiset<int32_t> out(part.output().keys.begin(),
                             part.output().keys.end());
  EXPECT_EQ(in, out);
  // Rid pairing preserved.
  std::map<int32_t, int32_t> key_to_rid_in, key_to_rid_out;
  for (uint64_t i = 0; i < rel.size(); ++i) {
    key_to_rid_in[rel.keys[i]] = rel.rids[i];
    key_to_rid_out[part.output().keys[i]] = part.output().rids[i];
  }
  EXPECT_EQ(key_to_rid_in, key_to_rid_out);
}

TEST_F(RadixPartitionTest, PartitionsAreHomogeneous) {
  const data::Relation rel = MakeRelation(1 << 12);
  opts_.partitions = 32;
  const RadixPlan plan = RadixPlan::Make(rel.size(), rel.size(), 4e6, opts_);
  RadixPartitioner part(&ctx_, &rel, plan, opts_);
  ASSERT_TRUE(part.Prepare().ok());
  RunAllPasses(&ctx_, &part);

  const auto& offsets = part.offsets();
  ASSERT_EQ(offsets.size(), 33u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), rel.size());
  for (uint32_t p = 0; p < 32; ++p) {
    for (uint32_t i = offsets[p]; i < offsets[p + 1]; ++i) {
      const uint32_t h = apujoin::MurmurHash2x4(
          static_cast<uint32_t>(part.output().keys[i]));
      EXPECT_EQ(h & 31u, p);
    }
  }
}

TEST_F(RadixPartitionTest, MultiPassEqualsSinglePassGrouping) {
  const data::Relation rel = MakeRelation(1 << 12, 17);
  const data::Relation original = rel;
  // 256 partitions: 1 pass at fanout 256, 2 at fanout 16, 3 at fanout 8.
  // Pass 0 reads the input in place and the passes after it alternate
  // between two buffers; every pass count must group each tuple alike and
  // leave the input as it was.
  std::vector<std::vector<std::vector<std::pair<int32_t, int32_t>>>> grouped;
  for (const auto& [fanout, passes] :
       std::vector<std::pair<uint32_t, int>>{{256, 1}, {16, 2}, {8, 3}}) {
    SCOPED_TRACE(passes);
    EngineOptions opts = opts_;
    opts.partitions = 256;
    opts.fanout_per_pass = fanout;
    RadixPartitioner part(&ctx_, &rel,
                          RadixPlan::Make(rel.size(), rel.size(), 4e6, opts),
                          opts);
    ASSERT_EQ(part.passes(), passes);
    ASSERT_TRUE(part.Prepare().ok());
    RunAllPasses(&ctx_, &part);
    const std::vector<uint32_t>& offsets = part.offsets();
    ASSERT_EQ(offsets.size(), 257u);
    std::vector<std::vector<std::pair<int32_t, int32_t>>> parts(256);
    for (uint32_t p = 0; p < 256; ++p) {
      for (uint32_t i = offsets[p]; i < offsets[p + 1]; ++i) {
        parts[p].emplace_back(part.output().keys[i], part.output().rids[i]);
      }
      std::sort(parts[p].begin(), parts[p].end());
    }
    grouped.push_back(std::move(parts));
    EXPECT_EQ(rel.keys, original.keys);
    EXPECT_EQ(rel.rids, original.rids);
  }
  EXPECT_EQ(grouped[1], grouped[0]);
  EXPECT_EQ(grouped[2], grouped[0]);
}

TEST_F(RadixPartitionTest, CoProcessedSplitProducesSameResult) {
  const data::Relation rel = MakeRelation(1 << 12, 5);
  opts_.partitions = 64;
  const RadixPlan plan = RadixPlan::Make(rel.size(), rel.size(), 4e6, opts_);
  RadixPartitioner cpu_only(&ctx_, &rel, plan, opts_);
  RadixPartitioner split(&ctx_, &rel, plan, opts_);
  ASSERT_TRUE(cpu_only.Prepare().ok());
  ASSERT_TRUE(split.Prepare().ok());
  RunAllPasses(&ctx_, &cpu_only, 1.0);
  RunAllPasses(&ctx_, &split, 0.37);
  EXPECT_EQ(cpu_only.offsets(), split.offsets());
  EXPECT_EQ(std::multiset<int32_t>(cpu_only.output().keys.begin(),
                                   cpu_only.output().keys.end()),
            std::multiset<int32_t>(split.output().keys.begin(),
                                   split.output().keys.end()));
}

TEST_F(RadixPartitionTest, MaskForPassSaturatesOnlyAtFullWidth) {
  // partition_bits = 31 must yield a 31-bit mask (0x7FFFFFFF) on the final
  // pass. The old saturation guard (`bits >= 31`) returned the full 32-bit
  // mask there, silently doubling the partition count. Constructing the
  // partitioner is cheap — no Prepare/BeginPass, so no 2^31-partition
  // allocations.
  opts_.partitions = 1u << 31;
  const RadixPlan plan = RadixPlan::Make(1 << 10, 1 << 10, 4e6, opts_);
  EXPECT_EQ(plan.partition_bits, 31u);
  EXPECT_EQ(plan.passes, 6);  // ceil(31 / 6 fanout bits)
  const data::Relation rel = MakeRelation(16);
  RadixPartitioner part(&ctx_, &rel, plan, opts_);
  EXPECT_EQ(part.MaskForPass(0), 63u);  // pass 0: fanout bits only
  EXPECT_EQ(part.MaskForPass(part.passes() - 1), 0x7FFFFFFFu);
}

TEST_F(RadixPartitionTest, ClaimAccountingFollowsBlockSize) {
  const data::Relation rel = MakeRelation(1 << 12);
  opts_.partitions = 4;
  opts_.block_bytes = 64;  // 8 claims per chunk
  const RadixPlan plan = RadixPlan::Make(rel.size(), rel.size(), 4e6, opts_);
  ASSERT_EQ(plan.passes, 1);
  RadixPartitioner part(&ctx_, &rel, plan, opts_);
  ASSERT_TRUE(part.Prepare().ok());
  RunAllPasses(&ctx_, &part, 0.37);
  const alloc::AllocCounts c = part.TakeCounts();
  // Claims fill (partition, work group) sub-regions of 256 input items; a
  // sub-region pays one global atomic per chunk of 8 claims.
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> claims;
  for (uint64_t i = 0; i < rel.size(); ++i) {
    const uint32_t p = MurmurHash2x4(static_cast<uint32_t>(rel.keys[i])) & 3;
    ++claims[{p, (i >> 8) & 63}];
  }
  uint64_t chunks = 0;
  for (const auto& [region, n] : claims) chunks += (n + 7) / 8;
  EXPECT_EQ(c.global_atomics[0] + c.global_atomics[1], chunks);
  EXPECT_EQ(c.global_atomics[0] + c.local_atomics[0] + c.global_atomics[1] +
                c.local_atomics[1],
            rel.size());
  EXPECT_GT(c.local_atomics[0], 0u);
  EXPECT_GT(c.local_atomics[1], 0u);
  const alloc::AllocCounts again = part.TakeCounts();
  EXPECT_EQ(again.global_atomics[0] + again.local_atomics[0] +
                again.global_atomics[1] + again.local_atomics[1],
            0u);
}

}  // namespace
}  // namespace apujoin::join
