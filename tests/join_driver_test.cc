#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "coproc/join_driver.h"
#include "coproc/pipeline_runner.h"

namespace apujoin::coproc {
namespace {

data::Workload MakeWorkload(uint64_t nb, uint64_t np, double sel,
                            data::Distribution dist) {
  data::WorkloadSpec spec;
  spec.build_tuples = nb;
  spec.probe_tuples = np;
  spec.selectivity = sel;
  spec.distribution = dist;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

// ---------------------------------------------------------------------------
// Correctness sweep: every algorithm x scheme x distribution x selectivity
// must produce exactly the expected match count.
// ---------------------------------------------------------------------------

using SweepParam =
    std::tuple<Algorithm, Scheme, data::Distribution, double>;

class JoinSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(JoinSweepTest, MatchesReference) {
  const auto [algo, scheme, dist, sel] = GetParam();
  const data::Workload w = MakeWorkload(1 << 11, 1 << 12, sel, dist);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = algo;
  spec.scheme = scheme;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, w.expected_matches);
  EXPECT_GT(report->elapsed_ns, 0.0);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [algo, scheme, dist, sel] = info.param;
  std::string name = std::string(AlgorithmName(algo)) + "_" +
                     SchemeName(scheme) + "_" + data::DistributionName(dist) +
                     "_" + (sel < 0.5 ? "sel125" : "sel100");
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, JoinSweepTest,
    ::testing::Combine(
        ::testing::Values(Algorithm::kSHJ, Algorithm::kPHJ),
        ::testing::Values(Scheme::kCpuOnly, Scheme::kGpuOnly,
                          Scheme::kOffload, Scheme::kDataDivide,
                          Scheme::kPipelined, Scheme::kBasicUnit),
        ::testing::Values(data::Distribution::kUniform,
                          data::Distribution::kHighSkew),
        ::testing::Values(0.125, 1.0)),
    SweepName);

// ---------------------------------------------------------------------------
// Focused driver behaviours
// ---------------------------------------------------------------------------

class JoinDriverTest : public ::testing::Test {
 protected:
  data::Workload w_ = MakeWorkload(1 << 11, 1 << 12, 1.0,
                                   data::Distribution::kUniform);
};

TEST_F(JoinDriverTest, PipelinedRejectedOnDiscrete) {
  simcl::ContextOptions copts;
  copts.arch = simcl::ArchMode::kDiscreteEmulated;
  simcl::SimContext ctx(copts);
  JoinSpec spec;
  spec.scheme = Scheme::kPipelined;
  EXPECT_FALSE(ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec)).ok());
}

TEST_F(JoinDriverTest, DiscretePaysTransferAndMerge) {
  simcl::ContextOptions copts;
  copts.arch = simcl::ArchMode::kDiscreteEmulated;
  simcl::SimContext discrete_ctx(copts);
  simcl::SimContext coupled_ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kDataDivide;
  auto on_discrete = ExecutePlan(&discrete_ctx, MakeSingleJoinPlan(w_, spec));
  auto on_coupled = ExecutePlan(&coupled_ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(on_discrete.ok() && on_coupled.ok());
  EXPECT_EQ(on_discrete->matches, on_coupled->matches);
  EXPECT_GT(on_discrete->breakdown.Get(simcl::Phase::kDataTransfer), 0.0);
  EXPECT_GT(on_discrete->breakdown.Get(simcl::Phase::kMerge), 0.0);
  EXPECT_DOUBLE_EQ(on_coupled->breakdown.Get(simcl::Phase::kDataTransfer),
                   0.0);
}

TEST_F(JoinDriverTest, SeparateTablesOnCoupledStillCorrect) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kDataDivide;
  spec.engine.shared_table = false;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->matches, w_.expected_matches);
  EXPECT_GT(report->breakdown.Get(simcl::Phase::kMerge), 0.0);
}

TEST_F(JoinDriverTest, SharedTableSkipsMerge) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kDataDivide;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->breakdown.Get(simcl::Phase::kMerge), 0.0);
}

TEST_F(JoinDriverTest, ExplicitRatioOverrides) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kDataDivide;
  spec.build_ratios = {0.25};
  spec.probe_ratios = {0.4};
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->build_ratios.size(), 4u);
  for (double r : report->build_ratios) EXPECT_DOUBLE_EQ(r, 0.25);
  for (double r : report->probe_ratios) EXPECT_DOUBLE_EQ(r, 0.4);
  EXPECT_EQ(report->matches, w_.expected_matches);
}

TEST_F(JoinDriverTest, BadRatioOverrideRejected) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.build_ratios = {0.1, 0.2};  // neither 1 nor 4 entries
  const auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(JoinDriverTest, OutOfRangeRatioOverrideRejected) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.probe_ratios = {1.5};  // not a CPU share: must be in [0,1]
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  spec.probe_ratios = {-0.25};
  EXPECT_FALSE(ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec)).ok());

  spec.probe_ratios.assign(4, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec)).ok());

  // Boundary values are legal shares, not errors.
  spec.probe_ratios = {0.0, 1.0, 0.0, 1.0};
  EXPECT_TRUE(ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec)).ok());
}

TEST_F(JoinDriverTest, PartitionRatioOverrideValidated) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kPHJ;
  spec.partition_ratios = {2.0};
  const auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(JoinDriverTest, BreakdownSumsToElapsed) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kPHJ;
  spec.scheme = Scheme::kPipelined;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->breakdown.TotalNs(), report->elapsed_ns, 1e-6);
  EXPECT_GT(report->breakdown.Get(simcl::Phase::kPartition), 0.0);
  EXPECT_GT(report->breakdown.Get(simcl::Phase::kBuild), 0.0);
  EXPECT_GT(report->breakdown.Get(simcl::Phase::kProbe), 0.0);
}

TEST_F(JoinDriverTest, EstimateTracksMeasured) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kDataDivide;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  // The estimate must be in the right ballpark (paper: <15% mostly; we
  // allow 40% slack at this tiny size) and below measured (no locks).
  EXPECT_GT(report->estimated_ns, 0.3 * report->elapsed_ns);
  EXPECT_LT(report->estimated_ns, 1.4 * report->elapsed_ns);
}

TEST_F(JoinDriverTest, PipelinedRatiosVaryAcrossSteps) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kPipelined;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  // PL's whole point: per-step ratios differ (hash steps lean GPU).
  double lo = 1.0, hi = 0.0;
  for (double r : report->probe_ratios) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_LT(lo, hi);
}

TEST_F(JoinDriverTest, CacheTracingCountsAccesses) {
  simcl::ContextOptions copts;
  copts.trace_cache = true;
  simcl::SimContext ctx(copts);
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kCpuOnly;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->l2_accesses, 0u);
  EXPECT_GT(report->l2_misses, 0u);
  EXPECT_LE(report->l2_misses, report->l2_accesses);
}

TEST_F(JoinDriverTest, GroupingStillCorrect) {
  simcl::SimContext ctx;
  const data::Workload skewed =
      MakeWorkload(1 << 11, 1 << 13, 1.0, data::Distribution::kHighSkew);
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kGpuOnly;
  spec.engine.grouping = true;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(skewed, spec));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->matches, skewed.expected_matches);
  EXPECT_GT(report->breakdown.Get(simcl::Phase::kGrouping), 0.0);
}

TEST_F(JoinDriverTest, BasicAllocatorSlowerButCorrect) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kGpuOnly;
  spec.engine.allocator = alloc::AllocatorKind::kBasic;
  auto basic = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(basic.ok());
  EXPECT_EQ(basic->matches, w_.expected_matches);
  spec.engine.allocator = alloc::AllocatorKind::kOptimized;
  auto ours = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(ours.ok());
  EXPECT_GT(basic->lock_ns, ours->lock_ns);
}

TEST_F(JoinDriverTest, StepReportsCarryDeviceItemsAndModeledTime) {
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kDataDivide;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w_, spec));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->steps.empty());
  for (const auto& s : report->steps) {
    const uint64_t n =
        s.phase == "build" ? w_.build.size() : w_.probe.size();
    EXPECT_EQ(s.cpu_items + s.gpu_items, n) << s.phase << "/" << s.name;
    EXPECT_LE(s.cpu_modeled_ns, s.cpu_ns);
    EXPECT_LE(s.gpu_modeled_ns, s.gpu_ns);
  }
}

}  // namespace
}  // namespace apujoin::coproc
