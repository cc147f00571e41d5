// Backend parity: SHJ and PHJ must produce exactly the reference match
// count on every workload shape under BOTH execution backends — the
// analytic simulator and the real thread pool. This is the acceptance gate
// for swapping execution substrates without touching join logic. The real
// backend's one ratio policy (coproc/ratio_policy.h) is pinned here too.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coproc/join_driver.h"
#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "exec/backend_kind.h"
#include "fan_out.h"
#include "join/reference_join.h"
#include "plan/plan.h"

namespace apujoin::coproc {
namespace {

struct WorkloadCase {
  const char* name;
  data::Distribution dist;
  double selectivity;
};

const WorkloadCase kCases[] = {
    {"uniform", data::Distribution::kUniform, 1.0},
    {"skewed", data::Distribution::kHighSkew, 1.0},
    {"high-selectivity", data::Distribution::kUniform, 0.125},
};

data::Workload MakeWorkload(const WorkloadCase& c) {
  data::WorkloadSpec spec;
  spec.build_tuples = 1 << 12;
  spec.probe_tuples = 1 << 14;
  spec.distribution = c.dist;
  spec.selectivity = c.selectivity;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

class BackendParityTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, exec::BackendKind>> {};

TEST_P(BackendParityTest, MatchesReferenceOnAllWorkloads) {
  const auto [algo, backend] = GetParam();
  for (const WorkloadCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const data::Workload w = MakeWorkload(c);
    const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
    ASSERT_EQ(reference, w.expected_matches);

    simcl::SimContext ctx;
    JoinSpec spec;
    spec.algorithm = algo;
    spec.scheme = Scheme::kPipelined;
    spec.engine.backend = backend;
    spec.engine.threads = 4;
    const auto t0 = std::chrono::steady_clock::now();
    auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
    const double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, reference);
    EXPECT_GT(report->elapsed_ns, 0.0);
    if (backend == exec::BackendKind::kThreadPool) {
      // Wall-clock semantics: the reported time covers step execution
      // only, so it cannot exceed the whole call's real duration.
      EXPECT_LE(report->elapsed_ns, wall_ns);
    }
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Algorithm, exec::BackendKind>>&
        info) {
  return std::string(AlgorithmName(std::get<0>(info.param))) + "_" +
         exec::BackendKindName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, BackendParityTest,
    ::testing::Combine(::testing::Values(Algorithm::kSHJ, Algorithm::kPHJ),
                       ::testing::Values(exec::BackendKind::kSim,
                                         exec::BackendKind::kThreadPool)),
    ParamName);

// The two backends must agree with each other too (not only with the
// reference), across schemes.
TEST(BackendParitySchemes, SameMatchesUnderEveryScheme) {
  const data::Workload w = MakeWorkload(kCases[0]);
  for (Scheme scheme : {Scheme::kCpuOnly, Scheme::kGpuOnly, Scheme::kOffload,
                        Scheme::kDataDivide, Scheme::kPipelined,
                        Scheme::kBasicUnit}) {
    SCOPED_TRACE(SchemeName(scheme));
    uint64_t matches[2] = {0, 0};
    int i = 0;
    for (exec::BackendKind backend :
         {exec::BackendKind::kSim, exec::BackendKind::kThreadPool}) {
      simcl::SimContext ctx;
      JoinSpec spec;
      spec.algorithm = Algorithm::kPHJ;
      spec.scheme = scheme;
      spec.engine.backend = backend;
      spec.engine.threads = 3;
      auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      matches[i++] = report->matches;
    }
    EXPECT_EQ(matches[0], matches[1]);
    EXPECT_EQ(matches[0], w.expected_matches);
  }
}

// The sim backend must report identical virtual times whether a join is
// driven through the Backend seam or not — the refactor moved scheduling,
// not arithmetic. Two runs through the seam must agree bit-for-bit.
TEST(BackendParityDeterminism, SimElapsedIsReproducible) {
  const data::Workload w = MakeWorkload(kCases[0]);
  double elapsed[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    simcl::SimContext ctx;
    JoinSpec spec;
    spec.algorithm = Algorithm::kPHJ;
    spec.scheme = Scheme::kPipelined;
    auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
    ASSERT_TRUE(report.ok());
    elapsed[i] = report->elapsed_ns;
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

// Cache tracing requires the analytic backend; the driver must say so
// instead of racing the CacheSim.
TEST(BackendParityGuards, ThreadPoolRejectsCacheTracing) {
  const data::Workload w = MakeWorkload(kCases[0]);
  simcl::ContextOptions copts;
  copts.trace_cache = true;
  simcl::SimContext ctx(copts);
  JoinSpec spec;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// Divergence grouping reorders the GPU lane, which a real backend never
// runs; asking for it there is an error, not a silent no-op.
TEST(BackendParityGuards, ThreadPoolRejectsGrouping) {
  const data::Workload w = MakeWorkload(kCases[1]);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  spec.engine.grouping = true;
  auto report = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The real backend's ratio policy: without overrides every step of every
// scheme runs at ratio 1.0 on the CPU lane, and the report carries no
// cost-model numbers.
// ---------------------------------------------------------------------------

constexpr Scheme kRatioSchemes[] = {Scheme::kCpuOnly, Scheme::kGpuOnly,
                                    Scheme::kOffload, Scheme::kDataDivide,
                                    Scheme::kPipelined};

/// A traced thread pool over its own machine model.
struct TracedPool {
  TracedPool()
      : backend(exec::MakeBackend(exec::BackendKind::kThreadPool, &ctx, 3)) {
    backend->set_trace(true);
  }
  simcl::SimContext ctx;
  std::unique_ptr<exec::Backend> backend;
};

/// Runs `plan` under `scheme` on `pool` and checks the policy. The caller
/// checks the answer.
JoinReport RunOnRealPath(TracedPool& pool, PlanSpec plan, Scheme scheme) {
  plan.exec.scheme = scheme;
  plan.exec.engine.backend = exec::BackendKind::kThreadPool;
  auto report = ExecutePlan(pool.backend.get(), plan);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return JoinReport();
  EXPECT_EQ(report->estimated_ns, 0.0);
  EXPECT_FALSE(report->steps.empty());
  for (const StepReport& s : report->steps) {
    SCOPED_TRACE(s.phase + "/" + s.name);
    EXPECT_EQ(s.ratio, 1.0);
    EXPECT_EQ(s.gpu_items, 0u);
    EXPECT_EQ(s.unit_cpu_ns, 0.0);
    EXPECT_EQ(s.unit_gpu_ns, 0.0);
  }
  for (const std::vector<double>* ratios :
       {&report->partition_ratios, &report->build_ratios,
        &report->probe_ratios}) {
    for (double r : *ratios) EXPECT_EQ(r, 1.0);
  }
  const std::vector<exec::LaunchEvent> events = pool.backend->DrainEvents();
  EXPECT_FALSE(events.empty());
  for (const exec::LaunchEvent& e : events) {
    EXPECT_EQ(e.device, simcl::DeviceId::kCpu) << e.step;
  }
  return std::move(report).value();
}

TEST(RealPathRatioPolicy, SingleJoinsRunEveryStepOnTheCpuLane) {
  const data::Workload w = MakeWorkload(kCases[1]);
  TracedPool pool;
  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    for (Scheme scheme : kRatioSchemes) {
      SCOPED_TRACE(std::string(AlgorithmName(algo)) + "-" +
                   SchemeName(scheme));
      JoinSpec spec;
      spec.algorithm = algo;
      const JoinReport r =
          RunOnRealPath(pool, MakeSingleJoinPlan(w, spec), scheme);
      EXPECT_EQ(r.matches, w.expected_matches);
    }
  }
}

TEST(RealPathRatioPolicy, SelectJoinGroupByRunsEveryStepOnTheCpuLane) {
  const data::Workload w = MakeWorkload(kCases[0]);
  plan::Predicate pred;
  pred.column = plan::SelectColumn::kKey;
  pred.op = plan::CompareOp::kGe;
  pred.operand = w.build.keys[w.build.size() / 2];

  // Scalar oracle: SUM of the probe rid per key over select(build) ⋈ probe.
  std::map<int32_t, uint64_t> build_counts;
  for (size_t i = 0; i < w.build.size(); ++i) {
    if (plan::EvalPredicate(pred, w.build.keys[i], w.build.rids[i])) {
      ++build_counts[w.build.keys[i]];
    }
  }
  std::map<int32_t, join::GroupRow> oracle;
  uint64_t matches = 0;
  for (size_t i = 0; i < w.probe.size(); ++i) {
    const auto it = build_counts.find(w.probe.keys[i]);
    if (it == build_counts.end()) continue;
    join::GroupRow& g = oracle[it->first];
    g.key = it->first;
    g.count += it->second;
    g.value += static_cast<int64_t>(it->second) * w.probe.rids[i];
    matches += it->second;
  }

  PlanSpec plan;
  const int b = plan.graph.AddScan(&w.build);
  const int sel = plan.graph.AddSelect(b, pred);
  const int p = plan.graph.AddScan(&w.probe);
  const int j = plan.graph.AddHashJoin(sel, p);
  plan.graph.AddGroupBy(j, plan::AggFn::kSum);
  plan.exec.algorithm = Algorithm::kSHJ;
  plan.expected_matches = matches;

  TracedPool pool;
  // Unfused, every operator runs its own series; fused, the select is
  // flag-only and the probe streams into the aggregate.
  for (exec::FuseMode fuse : {exec::FuseMode::kOff, exec::FuseMode::kAuto}) {
    for (Scheme scheme : kRatioSchemes) {
      SCOPED_TRACE(std::string(SchemeName(scheme)) +
                   (fuse == exec::FuseMode::kOff ? " unfused" : " fused"));
      plan.exec.engine.fuse = fuse;
      const JoinReport r = RunOnRealPath(pool, plan, scheme);
      EXPECT_EQ(r.matches, matches);
      ASSERT_EQ(r.groups.size(), oracle.size());
      auto want = oracle.begin();
      for (const join::GroupRow& g : r.groups) {
        EXPECT_EQ(g.key, want->second.key);
        EXPECT_EQ(g.count, want->second.count);
        EXPECT_EQ(g.value, want->second.value);
        ++want;
      }
    }
  }
}

TEST(RealPathRatioPolicy, MultiwayChainRunsEveryStepOnTheCpuLane) {
  // b0 carries keys 0..kKeys-1 twice and b1 three times, so an in-range
  // probe key matches 2 x 3 chains; half the probe keys are out of range.
  constexpr int32_t kKeys = 256;
  data::Relation b0, b1, probe;
  for (int32_t k = 0; k < kKeys; ++k) {
    for (int d = 0; d < 2; ++d) b0.Append(k, k * 2 + d);
    for (int d = 0; d < 3; ++d) b1.Append(k, 100000 + k * 3 + d);
  }
  uint64_t matches = 0;
  for (int32_t i = 0; i < 2048; ++i) {
    probe.Append(i % (kKeys * 2), 5000 + i);
    if (i % (kKeys * 2) < kKeys) matches += 2 * 3;
  }

  PlanSpec plan;
  const int n0 = plan.graph.AddScan(&b0);
  const int n1 = plan.graph.AddScan(&b1);
  const int p = plan.graph.AddScan(&probe);
  plan.graph.AddMultiwayJoin({n0, n1}, p);
  plan.expected_matches = matches;

  TracedPool pool;
  for (Scheme scheme : kRatioSchemes) {
    SCOPED_TRACE(SchemeName(scheme));
    EXPECT_EQ(RunOnRealPath(pool, plan, scheme).matches, matches);
  }
}

// A real backend has one lane, so every ratio override is rejected:
// partition, build and probe alike.
TEST(RealPathRatioPolicy, OverridesAreRejected) {
  const data::Workload w = MakeWorkload(kCases[0]);
  TracedPool pool;
  for (int series = 0; series < 3; ++series) {
    JoinSpec spec;
    spec.algorithm = Algorithm::kPHJ;
    spec.engine.backend = exec::BackendKind::kThreadPool;
    std::vector<double>* ratios[] = {&spec.partition_ratios,
                                     &spec.build_ratios, &spec.probe_ratios};
    *ratios[series] = {1.0};
    SCOPED_TRACE(series);
    auto report = ExecutePlan(pool.backend.get(), MakeSingleJoinPlan(w, spec));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// The real backend's lowering: each join phase is one fused kernel, so a
// join issues one span per phase (per partition pair under PHJ), and the
// reports still name the paper's steps, whose times sum to those spans.
// ---------------------------------------------------------------------------

/// Sums the wall time of the launch events named `step`, and counts them.
double EventNs(const std::vector<exec::LaunchEvent>& events,
               const std::string& step, int* count) {
  double ns = 0.0;
  *count = 0;
  for (const exec::LaunchEvent& e : events) {
    if (e.step != step) continue;
    ns += e.elapsed_ns;
    ++*count;
  }
  return ns;
}

/// Checks that `phase`'s step reports are exactly `names`, in order, and
/// that their times sum to the spans of the fused kernel `kernel`; returns
/// that kernel's span count.
int CheckFusedPhase(const JoinReport& r,
                    const std::vector<exec::LaunchEvent>& events,
                    const std::string& phase, const std::string& kernel,
                    const std::vector<std::string>& names) {
  SCOPED_TRACE(phase);
  std::vector<std::string> got;
  double cpu_ns = 0.0;
  for (const StepReport& s : r.steps) {
    if (s.phase != phase) continue;
    got.push_back(s.name);
    cpu_ns += s.cpu_ns;
    EXPECT_EQ(s.gpu_ns, 0.0);
    EXPECT_GT(s.cpu_items, 0u);
  }
  EXPECT_EQ(got, names);
  int spans = 0;
  const double span_ns = EventNs(events, kernel, &spans);
  EXPECT_GT(span_ns, 0.0);
  EXPECT_NEAR(cpu_ns, span_ns, 1e-9 * span_ns);
  return spans;
}

TEST(RealPathFusedLowering, ShjIssuesOneSpanPerPhase) {
  const data::Workload w = MakeWorkload(kCases[1]);
  TracedPool pool;
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  auto report = ExecutePlan(pool.backend.get(), MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, w.expected_matches);
  const std::vector<exec::LaunchEvent> events = pool.backend->DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].step, "b1..b4");
  EXPECT_EQ(events[1].step, "p1..p4");
  EXPECT_EQ(CheckFusedPhase(*report, events, "build", "b1..b4",
                            {"b1", "b2", "b3", "b4"}),
            1);
  EXPECT_EQ(CheckFusedPhase(*report, events, "probe", "p1..p4",
                            {"p1", "p2", "p3", "p4"}),
            1);
}

TEST(RealPathFusedLowering, PhjIssuesTwoSpansPerPair) {
  const data::Workload w = MakeWorkload(kCases[0]);
  TracedPool pool;
  JoinSpec spec;
  spec.algorithm = Algorithm::kPHJ;
  spec.engine.backend = exec::BackendKind::kThreadPool;
  spec.engine.partitions = 8;  // 4096 uniform build keys fill every pair
  auto report = ExecutePlan(pool.backend.get(), MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, w.expected_matches);
  const std::vector<exec::LaunchEvent> events = pool.backend->DrainEvents();
  EXPECT_EQ(CheckFusedPhase(*report, events, "build", "b1..b4",
                            {"b1", "b2", "b3", "b4"}),
            8);
  EXPECT_EQ(CheckFusedPhase(*report, events, "probe", "p1..p4",
                            {"p1", "p2", "p3", "p4"}),
            8);
}

TEST(RealPathFusedLowering, FusedGroupByProbeReportsP4g) {
  const data::Workload w = MakeWorkload(kCases[0]);
  PlanSpec plan;
  const int b = plan.graph.AddScan(&w.build);
  const int p = plan.graph.AddScan(&w.probe);
  plan.graph.AddGroupBy(plan.graph.AddHashJoin(b, p), plan::AggFn::kCount);
  plan.exec.algorithm = Algorithm::kSHJ;
  plan.exec.engine.backend = exec::BackendKind::kThreadPool;
  plan.expected_matches = w.expected_matches;
  TracedPool pool;
  auto report = ExecutePlan(pool.backend.get(), plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, w.expected_matches);
  const std::vector<exec::LaunchEvent> events = pool.backend->DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(CheckFusedPhase(*report, events, "probe", "p1..p4g",
                            {"p1", "p2", "p3", "p4g"}),
            1);
}

// ---------------------------------------------------------------------------
// Fan-out: results 256x the probe side. No entry point is told the match
// count (expected_matches stays kAutoMatches, i.e. one per probe tuple);
// the result buffer grows, so every run is exact.
// ---------------------------------------------------------------------------

/// Runs `plan` on a fresh sim context and its own backend.
StatusOr<JoinReport> RunFresh(PlanSpec plan, exec::BackendKind backend) {
  plan.exec.engine.backend = backend;
  plan.exec.engine.threads = 4;
  simcl::SimContext ctx;
  return ExecutePlan(&ctx, plan);
}

class FanOutParityTest
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, exec::HashLayout, exec::BackendKind>> {};

TEST_P(FanOutParityTest, SingleJoinIsExact) {
  const auto [algo, layout, backend] = GetParam();
  const data::Workload w = data::FanOutWorkload();
  const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
  ASSERT_EQ(reference, uint64_t{1} << 20);

  PlanSpec plan;
  const int b = plan.graph.AddScan(&w.build);
  const int p = plan.graph.AddScan(&w.probe);
  plan.graph.AddHashJoin(b, p);
  plan.exec.algorithm = algo;
  plan.exec.engine.layout = layout;
  auto report = RunFresh(plan, backend);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, reference);
  EXPECT_EQ(report->operators.back().output_rows, reference);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, FanOutParityTest,
    ::testing::Combine(::testing::Values(Algorithm::kSHJ, Algorithm::kPHJ),
                       ::testing::Values(exec::HashLayout::kChained,
                                         exec::HashLayout::kOpenAddressing),
                       ::testing::Values(exec::BackendKind::kSim,
                                         exec::BackendKind::kThreadPool)),
    [](const auto& info) {
      return std::string(AlgorithmName(std::get<0>(info.param))) + "_" +
             exec::HashLayoutName(std::get<1>(info.param)) + "_" +
             exec::BackendKindName(std::get<2>(info.param));
    });

TEST(FanOutParity, UnfusedJoinGroupByIsExact) {
  const data::Workload w = data::FanOutWorkload();
  // Oracle: key k has (build rows with k) x (probes with k) matches, each
  // contributing its probe rid to the SUM.
  std::map<int32_t, uint64_t> build_counts;
  for (int32_t k : w.build.keys) ++build_counts[k];
  std::map<int32_t, join::GroupRow> oracle;
  uint64_t matches = 0;
  for (size_t i = 0; i < w.probe.size(); ++i) {
    const uint64_t n = build_counts[w.probe.keys[i]];
    join::GroupRow& g = oracle[w.probe.keys[i]];
    g.key = w.probe.keys[i];
    g.count += n;
    g.value += static_cast<int64_t>(n) * w.probe.rids[i];
    matches += n;
  }

  PlanSpec plan;
  const int b = plan.graph.AddScan(&w.build);
  const int p = plan.graph.AddScan(&w.probe);
  plan.graph.AddGroupBy(plan.graph.AddHashJoin(b, p), plan::AggFn::kSum);
  plan.exec.algorithm = Algorithm::kSHJ;
  plan.exec.engine.fuse = exec::FuseMode::kOff;
  for (exec::BackendKind backend :
       {exec::BackendKind::kSim, exec::BackendKind::kThreadPool}) {
    SCOPED_TRACE(exec::BackendKindName(backend));
    auto report = RunFresh(plan, backend);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, matches);
    ASSERT_EQ(report->groups.size(), oracle.size());
    auto want = oracle.begin();
    for (const join::GroupRow& g : report->groups) {
      EXPECT_EQ(g.key, want->second.key);
      EXPECT_EQ(g.count, want->second.count);
      EXPECT_EQ(g.value, want->second.value);
      ++want;
    }
  }
}

TEST(FanOutParity, ThreeWayMultiwayChainIsExact) {
  // 32 x 32 build rows per key: each of the 1,024 probes matches 1,024
  // chains.
  const data::Relation b0 = data::CyclicKeys(1 << 13, 256);
  const data::Relation b1 = data::CyclicKeys(1 << 13, 256, 100000);
  const data::Relation probe = data::CyclicKeys(1 << 10, 256, 5000);
  const uint64_t matches = uint64_t{1} << 20;

  PlanSpec plan;
  const int n0 = plan.graph.AddScan(&b0);
  const int n1 = plan.graph.AddScan(&b1);
  const int p = plan.graph.AddScan(&probe);
  plan.graph.AddMultiwayJoin({n0, n1}, p);
  for (exec::BackendKind backend :
       {exec::BackendKind::kSim, exec::BackendKind::kThreadPool}) {
    SCOPED_TRACE(exec::BackendKindName(backend));
    auto report = RunFresh(plan, backend);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, matches);
  }
}

}  // namespace
}  // namespace apujoin::coproc
