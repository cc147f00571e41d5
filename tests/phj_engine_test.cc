#include <gtest/gtest.h>

#include "coproc/step_series.h"
#include "data/generator.h"
#include "join/partitioned_hash_join.h"
#include "join/reference_join.h"

namespace apujoin::join {
namespace {

using coproc::RunSeries;
using coproc::SeriesOptions;

data::Workload MakeWorkload(uint64_t nb, uint64_t np, double sel = 1.0,
                            data::Distribution dist =
                                data::Distribution::kUniform) {
  data::WorkloadSpec spec;
  spec.build_tuples = nb;
  spec.probe_tuples = np;
  spec.selectivity = sel;
  spec.distribution = dist;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

class PhjEngineTest : public ::testing::Test {
 protected:
  simcl::SimContext ctx_;

  uint64_t RunJoin(PhjEngine* engine, double ratio) {
    for (int side = 0; side < 2; ++side) {
      RadixPartitioner* part = side == 0 ? engine->build_partitioner()
                                         : engine->probe_partitioner();
      for (int pass = 0; pass < part->passes(); ++pass) {
        part->BeginPass(pass);
        std::vector<StepDef> steps = part->PassSteps(pass);
        SeriesOptions opts;
        opts.ratios.assign(steps.size(), ratio);
        RunSeries(&ctx_, steps, opts);
        part->EndPass(pass);
      }
    }
    EXPECT_TRUE(engine->PrepareJoinPhase().ok());
    ResultWriter writer(alloc::AllocatorKind::kOptimized, 2048);
    std::vector<StepDef> bsteps = engine->BuildSteps();
    SeriesOptions bopts;
    bopts.ratios.assign(bsteps.size(), ratio);
    RunSeries(&ctx_, bsteps, bopts);
    engine->MergeSeparateTables();
    std::vector<StepDef> psteps = engine->ProbeSteps(&writer);
    SeriesOptions popts;
    popts.ratios.assign(psteps.size(), ratio);
    RunSeries(&ctx_, psteps, popts);
    EXPECT_FALSE(engine->overflowed());
    return writer.count();
  }
};

TEST_F(PhjEngineTest, CpuOnlyMatchesReference) {
  const data::Workload w = MakeWorkload(1 << 12, 1 << 13, 0.5);
  PhjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 1.0), w.expected_matches);
}

TEST_F(PhjEngineTest, GpuOnlyMatchesReference) {
  const data::Workload w = MakeWorkload(1 << 12, 1 << 13, 0.5);
  PhjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.0), w.expected_matches);
}

TEST_F(PhjEngineTest, CoProcessedMatchesReference) {
  const data::Workload w = MakeWorkload(1 << 12, 1 << 13, 0.8);
  PhjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.42), w.expected_matches);
}

TEST_F(PhjEngineTest, ExplicitPartitionCount) {
  const data::Workload w = MakeWorkload(1 << 12, 1 << 12);
  EngineOptions opts;
  opts.partitions = 128;  // forces 2 passes at fanout 64
  PhjEngine engine(&ctx_, &w.build, &w.probe, opts);
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(engine.num_partitions(), 128u);
  EXPECT_EQ(engine.build_partitioner()->passes(), 2);
  EXPECT_EQ(RunJoin(&engine, 0.5), w.expected_matches);
}

TEST_F(PhjEngineTest, SkewedWorkloadCorrect) {
  const data::Workload w =
      MakeWorkload(1 << 12, 1 << 13, 0.5, data::Distribution::kHighSkew);
  PhjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.5), w.expected_matches);
}

TEST_F(PhjEngineTest, SeparateTablesCorrect) {
  const data::Workload w = MakeWorkload(1 << 12, 1 << 12);
  EngineOptions opts;
  opts.shared_table = false;
  PhjEngine engine(&ctx_, &w.build, &w.probe, opts);
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 1.0 / 3.0), w.expected_matches);
}

TEST_F(PhjEngineTest, PartitionWorkingSetFitsCache) {
  // The reason PHJ exists: per-partition working set under the L2 size.
  const data::Workload w = MakeWorkload(1 << 20, 1 << 20);
  PhjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_LE(engine.PartitionWorkingSetBytes(),
            ctx_.memory().spec().l2_bytes);
}

TEST_F(PhjEngineTest, JoinPhaseRequiresPartitioning) {
  const data::Workload w = MakeWorkload(1 << 10, 1 << 10);
  PhjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_FALSE(engine.PrepareJoinPhase().ok());
}

}  // namespace
}  // namespace apujoin::join
