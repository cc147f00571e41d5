// RatioTuner tests: feedback-loop mechanics on synthetic reports (mode
// semantics, freeze-after-first for kOnce), the session loop through
// CoupledJoiner on the sim backend, and the rejection of tuning on a real
// backend.

#include <gtest/gtest.h>

#include <vector>

#include "coproc/pipeline_runner.h"
#include "coproc/ratio_tuner.h"
#include "core/coupled_joiner.h"

namespace apujoin::coproc {
namespace {

using cost::TuneMode;
using simcl::DeviceId;

data::Workload MakeWorkload(uint64_t nb, uint64_t np) {
  data::WorkloadSpec spec;
  spec.build_tuples = nb;
  spec.probe_tuples = np;
  spec.distribution = data::Distribution::kHighSkew;  // deterministic seed 42
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

/// One synthetic measured step: `items` per device at the given unit costs.
StepReport SynthStep(const std::string& phase, const std::string& name,
                     double ratio, uint64_t items, double cpu_unit_ns,
                     double gpu_unit_ns) {
  StepReport s;
  s.phase = phase;
  s.name = name;
  s.ratio = ratio;
  s.cpu_items = static_cast<uint64_t>(ratio * static_cast<double>(items));
  s.gpu_items = items - s.cpu_items;
  s.cpu_modeled_ns = cpu_unit_ns * static_cast<double>(s.cpu_items);
  s.gpu_modeled_ns = gpu_unit_ns * static_cast<double>(s.gpu_items);
  s.cpu_ns = s.cpu_modeled_ns;
  s.gpu_ns = s.gpu_modeled_ns;
  s.unit_cpu_ns = 100.0;  // the analytic guesses the tuner should replace
  s.unit_gpu_ns = 100.0;
  return s;
}

TEST(RatioTunerTest, OffModeIsInert) {
  RatioTuner tuner(TuneMode::kOff);
  JoinReport report;
  report.steps.push_back(SynthStep("build", "b1", 0.5, 10000, 1.0, 2.0));
  tuner.Absorb(report);
  EXPECT_EQ(tuner.runs(), 0);
  EXPECT_TRUE(tuner.calibrator().empty());

  JoinSpec spec;
  EXPECT_TRUE(tuner.Prepare(&spec).ok());
  EXPECT_EQ(spec.measured_costs, nullptr);
  EXPECT_TRUE(spec.build_ratios.empty());

  // Off is inert on every backend: nothing to reject.
  spec.engine.backend = exec::BackendKind::kThreadPool;
  EXPECT_TRUE(tuner.Prepare(&spec).ok());
}

TEST(RatioTunerTest, PrepareBeforeFirstRunIsANoop) {
  RatioTuner tuner(TuneMode::kOnline);
  JoinSpec spec;
  EXPECT_TRUE(tuner.Prepare(&spec).ok());
  EXPECT_EQ(spec.measured_costs, nullptr);

  // After the first run it attaches the table; the driver re-optimizes
  // from it, so the tuner never installs ratio overrides.
  JoinReport report;
  report.steps.push_back(SynthStep("build", "b1", 0.5, 20000, 1.0, 3.0));
  tuner.Absorb(report);
  ASSERT_TRUE(tuner.Prepare(&spec).ok());
  EXPECT_EQ(spec.measured_costs, &tuner.calibrator());
  EXPECT_TRUE(spec.build_ratios.empty());
  EXPECT_TRUE(spec.probe_ratios.empty());
}

TEST(RatioTunerTest, OnceFreezesTheTableAfterTheFirstRun) {
  RatioTuner tuner(TuneMode::kOnce);
  JoinReport first;
  first.steps.push_back(SynthStep("build", "b1", 0.5, 10000, 1.0, 2.0));
  tuner.Absorb(first);
  EXPECT_DOUBLE_EQ(tuner.calibrator().UnitCostNs("b1", DeviceId::kCpu), 1.0);

  JoinReport second;
  second.steps.push_back(SynthStep("build", "b1", 0.5, 10000, 9.0, 2.0));
  tuner.Absorb(second);
  EXPECT_EQ(tuner.runs(), 2);
  // Frozen: the second run's 9 ns/item never entered the table.
  EXPECT_DOUBLE_EQ(tuner.calibrator().UnitCostNs("b1", DeviceId::kCpu), 1.0);

  RatioTuner online(TuneMode::kOnline);
  online.Absorb(first);
  online.Absorb(second);
  // EWMA (alpha 0.5): 0.5 * 9 + 0.5 * 1 = 5.
  EXPECT_DOUBLE_EQ(online.calibrator().UnitCostNs("b1", DeviceId::kCpu),
                   5.0);
}

TEST(RatioTunerTest, UntunedSimSessionIsDeterministic) {
  // --tune=off must leave the sim backend's virtual-time path untouched:
  // two identical runs produce bit-identical timing.
  const data::Workload w = MakeWorkload(1 << 11, 1 << 12);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kPipelined;
  auto a = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  auto b = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->elapsed_ns, b->elapsed_ns);
  EXPECT_EQ(a->matches, b->matches);
}

TEST(RatioTunerTest, TuningOnARealBackendIsRejected) {
  // The tuner refuses a thread-pool spec outright, before and after it
  // has measurements, and leaves the spec untouched.
  RatioTuner tuner(TuneMode::kOnline);
  JoinSpec spec;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  EXPECT_EQ(tuner.Prepare(&spec).code(), StatusCode::kInvalidArgument);
  JoinReport report;
  report.steps.push_back(SynthStep("build", "b1", 0.5, 10000, 1.0, 2.0));
  tuner.Absorb(report);
  EXPECT_EQ(tuner.Prepare(&spec).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(spec.measured_costs, nullptr);

  // A tuned CoupledJoiner on the thread pool passes the rejection back
  // from Join and RunPlan instead of running untuned.
  const data::Workload w = MakeWorkload(1 << 11, 1 << 12);
  core::JoinConfig config;
  config.spec.algorithm = Algorithm::kSHJ;
  config.spec.engine.backend = exec::BackendKind::kThreadPool;
  config.spec.engine.threads = 2;
  config.tune = TuneMode::kOnline;
  core::CoupledJoiner joiner(config);
  auto joined = joiner.Join(w);
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  auto planned = joiner.RunPlan(MakeSingleJoinPlan(w, config.spec));
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(joiner.tuner().runs(), 0);
}

TEST(RatioTunerTest, CoupledJoinerRunsTheSessionLoop) {
  const data::Workload w = MakeWorkload(1 << 11, 1 << 12);
  core::JoinConfig config;
  config.spec.algorithm = Algorithm::kSHJ;
  config.spec.scheme = Scheme::kPipelined;
  config.tune = TuneMode::kOnline;
  core::CoupledJoiner joiner(config);
  for (int i = 0; i < 3; ++i) {
    auto report = joiner.Join(w);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->matches, w.expected_matches);
  }
  EXPECT_EQ(joiner.tuner().runs(), 3);
  EXPECT_GT(joiner.tuner().calibrator().size(), 0u);
}

}  // namespace
}  // namespace apujoin::coproc
