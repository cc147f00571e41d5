// Morsel-vs-monolithic parity: the morsel granularity is a scheduling knob
// of real execution and nothing else. On the sim backend every virtual
// timing is bit-identical whatever --morsel says (the simulator prices
// whole device slices); on the thread-pool backend every morsel size — from
// tiny morsels to one monolithic morsel per span — executes each item
// exactly once and produces the same join result.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "coproc/join_driver.h"
#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/thread_pool_backend.h"
#include "join/reference_join.h"
#include "per_item_kernel.h"

namespace apujoin::exec {
namespace {

using simcl::DeviceId;

data::Workload MakeWorkload(uint64_t nb, uint64_t np) {
  data::WorkloadSpec spec;
  spec.build_tuples = nb;
  spec.probe_tuples = np;
  spec.distribution = data::Distribution::kLowSkew;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

TEST(MorselParityTest, SimReportsAreBitIdenticalAcrossMorselSizes) {
  const data::Workload w = MakeWorkload(1 << 12, 1 << 14);
  std::vector<coproc::JoinReport> reports;
  for (uint32_t morsel : {0u, 16u, 256u, 1u << 20}) {
    simcl::SimContext ctx;
    coproc::JoinSpec spec;
    spec.algorithm = coproc::Algorithm::kPHJ;
    spec.scheme = coproc::Scheme::kPipelined;
    spec.engine.morsel_items = morsel;
    auto report = coproc::ExecutePlan(&ctx, coproc::MakeSingleJoinPlan(w, spec));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    reports.push_back(*report);
  }
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].matches, reports[0].matches);
    EXPECT_EQ(reports[i].elapsed_ns, reports[0].elapsed_ns);
    EXPECT_EQ(reports[i].estimated_ns, reports[0].estimated_ns);
    ASSERT_EQ(reports[i].steps.size(), reports[0].steps.size());
    for (size_t s = 0; s < reports[i].steps.size(); ++s) {
      EXPECT_EQ(reports[i].steps[s].cpu_ns, reports[0].steps[s].cpu_ns);
      EXPECT_EQ(reports[i].steps[s].gpu_ns, reports[0].steps[s].gpu_ns);
      EXPECT_EQ(reports[i].steps[s].gpu_divergence,
                reports[0].steps[s].gpu_divergence);
    }
  }
}

TEST(MorselParityTest, ThreadsBackendAgreesAcrossMorselSizes) {
  const data::Workload w = MakeWorkload(1 << 12, 1 << 14);
  const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
  for (uint32_t morsel : {64u, 256u, 1u << 16}) {
    SCOPED_TRACE(morsel);
    simcl::SimContext ctx;
    coproc::JoinSpec spec;
    spec.algorithm = coproc::Algorithm::kSHJ;
    spec.scheme = coproc::Scheme::kPipelined;
    spec.engine.backend = BackendKind::kThreadPool;
    spec.engine.threads = 3;
    spec.engine.morsel_items = morsel;
    auto report = coproc::ExecutePlan(&ctx, coproc::MakeSingleJoinPlan(w, spec));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, reference);
    EXPECT_FALSE(report->overflowed);
  }
}

TEST(MorselParityTest, MonolithicAndMorselSpansExecuteIdentically) {
  // One StepDef, run (a) as one monolithic morsel on a single-slot quota
  // and (b) as many small morsels across the pool: identical item coverage
  // and work totals, the morsel counter reflecting the distribution.
  constexpr uint64_t kItems = 50000;
  std::vector<std::atomic<uint32_t>> hits(kItems);
  join::StepDef step;
  step.name = "parity";
  step.items = kItems;
  step.run = join::PerItemKernel([&hits](uint64_t i, DeviceId) -> uint32_t {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return 3;
  });

  simcl::SimContext ctx;
  ThreadPoolBackend mono(&ctx, {1, 128});
  const simcl::StepStats a = mono.RunSpan(step, DeviceId::kCpu, 0, kItems);
  EXPECT_EQ(a.work[0], 3 * kItems);
  const std::vector<WorkerCounters> mc = mono.TakeCounters();
  EXPECT_EQ(mc[0].morsels, 1u);  // single-slot quota: one monolithic morsel

  ThreadPoolBackend pooled(&ctx, {4, 128});
  const simcl::StepStats b =
      pooled.RunSpan(step, DeviceId::kCpu, 0, kItems);
  EXPECT_EQ(b.work[0], a.work[0]);
  EXPECT_EQ(b.items[0], a.items[0]);
  uint64_t morsels = 0;
  for (const WorkerCounters& wc : pooled.TakeCounters()) {
    morsels += wc.morsels;
  }
  EXPECT_EQ(morsels, (kItems + 127) / 128);

  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 2u) << "item " << i;  // once per backend
  }
}

TEST(MorselParityTest, MorselFlagParses) {
  unsigned morsel = 0;
  EXPECT_EQ(ParseMorselFlag("--morsel=512", &morsel), FlagParse::kOk);
  EXPECT_EQ(morsel, 512u);
  EXPECT_EQ(ParseMorselFlag("--morsel=0", &morsel), FlagParse::kInvalid);
  EXPECT_EQ(ParseMorselFlag("--morsel=-4", &morsel), FlagParse::kInvalid);
  EXPECT_EQ(ParseMorselFlag("--morsel=abc", &morsel), FlagParse::kInvalid);
  EXPECT_EQ(ParseMorselFlag("--threads=2", &morsel),
            FlagParse::kNotMatched);
  EXPECT_EQ(morsel, 512u);  // untouched by failures
}

}  // namespace
}  // namespace apujoin::exec
