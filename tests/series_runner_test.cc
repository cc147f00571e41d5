#include <gtest/gtest.h>

#include "coproc/step_series.h"
#include "per_item_kernel.h"

namespace apujoin::coproc {
namespace {

using join::StepDef;
using simcl::DeviceId;

std::vector<StepDef> MakeSeries(uint64_t n, std::vector<int>* counter) {
  std::vector<StepDef> steps;
  for (int s = 0; s < 3; ++s) {
    StepDef step;
    step.name = "s" + std::to_string(s);
    step.profile.instr_per_unit = 20.0 * (s + 1);
    step.items = n;
    step.run = join::PerItemKernel([counter, s](uint64_t, DeviceId) -> uint32_t {
      (*counter)[s]++;
      return 1;
    });
    steps.push_back(std::move(step));
  }
  return steps;
}

class SeriesRunnerTest : public ::testing::Test {
 protected:
  simcl::SimContext ctx_;
};

TEST_F(SeriesRunnerTest, AllStepsRunAllItems) {
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(1000, &counter);
  SeriesOptions opts;
  opts.ratios = {0.3, 0.7, 0.0};
  const SeriesResult res = RunSeries(&ctx_, steps, opts);
  for (int c : counter) EXPECT_EQ(c, 1000);
  EXPECT_EQ(res.steps.size(), 3u);
  EXPECT_GT(res.elapsed_ns, 0.0);
}

TEST_F(SeriesRunnerTest, ElapsedIsMaxOfDeviceTimes) {
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(1000, &counter);
  SeriesOptions opts;
  opts.ratios = {0.5, 0.5, 0.5};  // uniform: no delays, no comm
  const SeriesResult res = RunSeries(&ctx_, steps, opts);
  EXPECT_DOUBLE_EQ(res.comm_ns, 0.0);
  EXPECT_DOUBLE_EQ(res.elapsed_ns, std::max(res.cpu_ns, res.gpu_ns));
}

TEST_F(SeriesRunnerTest, RatioChangesGenerateComm) {
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(1000, &counter);
  SeriesOptions opts;
  opts.ratios = {0.0, 1.0, 0.0};
  const SeriesResult res = RunSeries(&ctx_, steps, opts);
  EXPECT_GT(res.comm_ns, 0.0);
}

TEST_F(SeriesRunnerTest, AfterHookReceivesNextGpuRange) {
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(1000, &counter);
  uint64_t seen_begin = 12345;
  uint64_t seen_end = 0;
  steps[0].after = [&seen_begin, &seen_end](uint64_t begin, uint64_t end) {
    seen_begin = begin;
    seen_end = end;
  };
  SeriesOptions opts;
  opts.ratios = {0.5, 0.25, 0.5};
  RunSeries(&ctx_, steps, opts);
  EXPECT_EQ(seen_begin, 250u);
  EXPECT_EQ(seen_end, 1000u);
}

TEST_F(SeriesRunnerTest, AfterHookSkippedWhenNextGpuRangeIsEmpty) {
  // Contract (steps.h): hooks only ever see a non-empty [begin, end). A
  // CPU-only next step must not invoke the hook at all.
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(1000, &counter);
  int calls = 0;
  steps[0].after = [&calls](uint64_t, uint64_t) { ++calls; };
  SeriesOptions opts;
  opts.ratios = {0.5, 1.0, 0.5};  // next step all-CPU: GPU range empty
  RunSeries(&ctx_, steps, opts);
  EXPECT_EQ(calls, 0);
}

TEST_F(SeriesRunnerTest, ModeledExcludesLockTime) {
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(1000, &counter);
  steps[1].profile.global_atomics_per_unit = 1.0;
  steps[1].profile.atomic_addresses = 1.0;
  SeriesOptions opts;
  opts.ratios = {0.0, 0.0, 0.0};  // all GPU: heavy contention
  const SeriesResult res = RunSeries(&ctx_, steps, opts);
  EXPECT_GT(res.lock_ns, 0.0);
  const simcl::DeviceTime& gpu = res.steps[1].stats.time[1];
  EXPECT_LT(gpu.ModeledNs(), gpu.TotalNs());
}

TEST_F(SeriesRunnerTest, DrainChargesAllocatorOps) {
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(1000, &counter);
  SeriesOptions opts;
  opts.ratios = {1.0, 1.0, 1.0};
  int drains = 0;
  opts.drain_alloc = [&drains]() {
    ++drains;
    alloc::AllocCounts c;
    c.global_atomics[0] = 10;
    return c;
  };
  const SeriesResult with = RunSeries(&ctx_, steps, opts);
  EXPECT_EQ(drains, 3);
  std::vector<int> counter2(3, 0);
  auto steps2 = MakeSeries(1000, &counter2);
  SeriesOptions plain;
  plain.ratios = opts.ratios;
  const SeriesResult without = RunSeries(&ctx_, steps2, plain);
  EXPECT_GT(with.cpu_ns, without.cpu_ns);
}

TEST_F(SeriesRunnerTest, BasicUnitCoversAllItems) {
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(10000, &counter);
  BasicUnitOptions bu;
  bu.cpu_chunk = 1000;
  bu.gpu_chunk = 3000;
  double ratio = -1.0;
  const SeriesResult res = RunSeriesBasicUnit(&ctx_, steps, bu, &ratio);
  for (int c : counter) EXPECT_EQ(c, 10000);
  EXPECT_GE(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);
  EXPECT_GT(res.elapsed_ns, 0.0);
  // Both devices got work (chunks alternate by virtual clock).
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 1.0);
}

TEST_F(SeriesRunnerTest, BasicUnitLogsScheduleOverhead) {
  ctx_.log().Clear();
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(4000, &counter);
  BasicUnitOptions bu;
  bu.cpu_chunk = 1000;
  bu.gpu_chunk = 1000;
  bu.dispatch_overhead_ns = 500.0;
  RunSeriesBasicUnit(&ctx_, steps, bu, nullptr);
  EXPECT_DOUBLE_EQ(ctx_.log().Get(simcl::Phase::kSchedule), 4 * 500.0);
}

TEST_F(SeriesRunnerTest, BasicUnitSameRatioAcrossSteps) {
  // BasicUnit's deficiency (Figures 17/18): one flat ratio per phase.
  std::vector<int> counter(3, 0);
  auto steps = MakeSeries(20000, &counter);
  BasicUnitOptions bu;
  bu.cpu_chunk = 1000;
  bu.gpu_chunk = 2000;
  const SeriesResult res = RunSeriesBasicUnit(&ctx_, steps, bu, nullptr);
  const double r0 = static_cast<double>(res.steps[0].stats.items[0]);
  for (const auto& s : res.steps) {
    EXPECT_DOUBLE_EQ(static_cast<double>(s.stats.items[0]), r0);
  }
}

}  // namespace
}  // namespace apujoin::coproc
