#include <gtest/gtest.h>

#include "coproc/step_series.h"
#include "data/generator.h"
#include "join/reference_join.h"
#include "join/simple_hash_join.h"

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

class ShjEngineTest : public ::testing::Test {
 protected:
  simcl::SimContext ctx_;

  uint64_t RunJoin(ShjEngine* engine, double build_ratio,
                   double probe_ratio) {
    ResultWriter writer(alloc::AllocatorKind::kOptimized, 2048);
    std::vector<StepDef> bsteps = engine->BuildSteps();
    SeriesOptions bopts;
    bopts.ratios.assign(bsteps.size(), build_ratio);
    RunSeries(&ctx_, bsteps, bopts);
    engine->MergeSeparateTables();
    std::vector<StepDef> psteps = engine->ProbeSteps(&writer);
    SeriesOptions popts;
    popts.ratios.assign(psteps.size(), probe_ratio);
    RunSeries(&ctx_, psteps, popts);
    EXPECT_FALSE(engine->overflowed());
    return writer.count();
  }
};

TEST_F(ShjEngineTest, CpuOnlyMatchesReference) {
  const data::Workload w = MakeWorkload(1 << 10, 1 << 12, 0.5);
  ShjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 1.0, 1.0), w.expected_matches);
}

TEST_F(ShjEngineTest, GpuOnlyMatchesReference) {
  const data::Workload w = MakeWorkload(1 << 10, 1 << 12, 0.5);
  ShjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.0, 0.0), w.expected_matches);
}

TEST_F(ShjEngineTest, MixedRatiosMatchReference) {
  const data::Workload w = MakeWorkload(1 << 10, 1 << 12, 0.8);
  ShjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.4, 0.7), w.expected_matches);
}

TEST_F(ShjEngineTest, SkewedWorkloadCorrect) {
  const data::Workload w =
      MakeWorkload(1 << 10, 1 << 13, 0.5, data::Distribution::kHighSkew);
  ShjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.5, 0.5), w.expected_matches);
}

TEST_F(ShjEngineTest, SeparateTablesWithMergeCorrect) {
  const data::Workload w = MakeWorkload(1 << 10, 1 << 12);
  EngineOptions opts;
  opts.shared_table = false;
  ShjEngine engine(&ctx_, &w.build, &w.probe, opts);
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.5, 0.5), w.expected_matches);
  EXPECT_EQ(engine.num_tables(), 2);
}

TEST_F(ShjEngineTest, GroupingPermutationPreservesResult) {
  const data::Workload w =
      MakeWorkload(1 << 10, 1 << 13, 1.0, data::Distribution::kHighSkew);
  EngineOptions opts;
  opts.grouping = true;
  ShjEngine engine(&ctx_, &w.build, &w.probe, opts);
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.0, 0.0), w.expected_matches);
  // Permutation must be a bijection on [0, n).
  const auto& perm = engine.probe_permutation();
  ASSERT_EQ(perm.size(), w.probe.size());
  std::vector<bool> seen(perm.size(), false);
  for (uint32_t p : perm) {
    ASSERT_LT(p, perm.size());
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST_F(ShjEngineTest, BuildStepsPopulateTable) {
  const data::Workload w = MakeWorkload(1 << 10, 64);
  ShjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  std::vector<StepDef> bsteps = engine.BuildSteps();
  ASSERT_EQ(bsteps.size(), 4u);
  EXPECT_EQ(bsteps[0].name, "b1");
  EXPECT_EQ(bsteps[3].name, "b4");
  SeriesOptions opts;
  opts.ratios.assign(4, 1.0);
  RunSeries(&ctx_, bsteps, opts);
  EXPECT_EQ(engine.table()->rids_inserted(), w.build.size());
  EXPECT_EQ(engine.table()->keys_inserted(), w.build.size());  // unique keys
  EXPECT_EQ(engine.table()->TotalCount(), w.build.size());
}

TEST_F(ShjEngineTest, ZeroSelectivityYieldsNoMatches) {
  const data::Workload w = MakeWorkload(1 << 8, 1 << 10, 0.0);
  ShjEngine engine(&ctx_, &w.build, &w.probe, EngineOptions());
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(RunJoin(&engine, 0.5, 0.5), 0u);
}

TEST_F(ShjEngineTest, RejectsEmptyRelations) {
  data::Relation empty, one;
  one.Append(1, 0);
  ShjEngine engine(&ctx_, &empty, &one, EngineOptions());
  EXPECT_FALSE(engine.Prepare().ok());
}

}  // namespace
}  // namespace apujoin::join
