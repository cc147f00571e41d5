// Plan lowering: (1) MakeSingleJoinPlan's one-HashJoin lowering of a
// workload and a hand-built one-HashJoin PlanSpec must produce bit-identical
// reports — same matches, same virtual elapsed time, same per-phase
// breakdown, same step series (names, ratios, item splits) — across
// algorithms, schemes, layouts and table modes; and
// (2) plan validation rejects every malformed tree with a real
// InvalidArgument naming the node path, never an assert.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/backend_kind.h"
#include "plan/plan.h"
#include "util/status.h"

namespace apujoin::coproc {
namespace {

using apujoin::StatusCode;
using exec::HashLayout;

data::Workload MakeWorkload(
    data::Distribution dist = data::Distribution::kUniform) {
  data::WorkloadSpec spec;
  spec.build_tuples = 1 << 12;
  spec.probe_tuples = 1 << 14;
  spec.distribution = dist;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

void ExpectReportsIdentical(const JoinReport& a, const JoinReport& b) {
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);  // virtual ns: bit-identical
  EXPECT_EQ(a.estimated_ns, b.estimated_ns);
  EXPECT_EQ(a.lock_ns, b.lock_ns);
  for (int p = 0; p < simcl::kNumPhases; ++p) {
    EXPECT_EQ(a.breakdown.Get(static_cast<simcl::Phase>(p)),
              b.breakdown.Get(static_cast<simcl::Phase>(p)))
        << "phase " << p;
  }
  EXPECT_EQ(a.partition_ratios, b.partition_ratios);
  EXPECT_EQ(a.build_ratios, b.build_ratios);
  EXPECT_EQ(a.probe_ratios, b.probe_ratios);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].phase, b.steps[i].phase) << i;
    EXPECT_EQ(a.steps[i].name, b.steps[i].name) << i;
    EXPECT_EQ(a.steps[i].ratio, b.steps[i].ratio) << i;
    EXPECT_EQ(a.steps[i].cpu_ns, b.steps[i].cpu_ns) << i;
    EXPECT_EQ(a.steps[i].gpu_ns, b.steps[i].gpu_ns) << i;
    EXPECT_EQ(a.steps[i].cpu_items, b.steps[i].cpu_items) << i;
    EXPECT_EQ(a.steps[i].gpu_items, b.steps[i].gpu_items) << i;
    EXPECT_EQ(a.steps[i].unit_cpu_ns, b.steps[i].unit_cpu_ns) << i;
    EXPECT_EQ(a.steps[i].unit_gpu_ns, b.steps[i].unit_gpu_ns) << i;
  }
}

struct ParityCase {
  const char* name;
  Algorithm algorithm;
  Scheme scheme;
  HashLayout layout;
  bool shared_table;
};

const ParityCase kParityCases[] = {
    {"shj-pl-chained", Algorithm::kSHJ, Scheme::kPipelined,
     HashLayout::kChained, true},
    {"shj-dd-open", Algorithm::kSHJ, Scheme::kDataDivide,
     HashLayout::kOpenAddressing, true},
    {"shj-ol-separate", Algorithm::kSHJ, Scheme::kOffload,
     HashLayout::kChained, false},
    {"shj-cpu-only", Algorithm::kSHJ, Scheme::kCpuOnly, HashLayout::kChained,
     true},
    {"phj-pl-chained", Algorithm::kPHJ, Scheme::kPipelined,
     HashLayout::kChained, true},
    {"phj-pl-open", Algorithm::kPHJ, Scheme::kPipelined,
     HashLayout::kOpenAddressing, true},
    {"phj-dd-separate", Algorithm::kPHJ, Scheme::kDataDivide,
     HashLayout::kChained, false},
    {"phj-bu", Algorithm::kPHJ, Scheme::kBasicUnit, HashLayout::kChained,
     true},
    {"shj-gpu-only", Algorithm::kSHJ, Scheme::kGpuOnly, HashLayout::kChained,
     true},
};

// Every fig-path shape must lower to the identical step series and
// report through a hand-built one-HashJoin PlanSpec.
TEST(PlanLoweringParity, SingleJoinPlanMatchesHandBuiltPlan) {
  for (const ParityCase& c : kParityCases) {
    SCOPED_TRACE(c.name);
    const data::Workload w = MakeWorkload();

    JoinSpec spec;
    spec.algorithm = c.algorithm;
    spec.scheme = c.scheme;
    spec.engine.layout = c.layout;
    spec.engine.shared_table = c.shared_table;

    simcl::SimContext ctx_a;
    auto single = ExecutePlan(&ctx_a, MakeSingleJoinPlan(w, spec));
    ASSERT_TRUE(single.ok()) << single.status().ToString();

    PlanSpec plan;
    const int b = plan.graph.AddScan(&w.build);
    const int s = plan.graph.AddScan(&w.probe);
    plan.graph.AddHashJoin(b, s);
    plan.exec = spec;
    plan.expected_matches = w.expected_matches;
    plan.skew_fraction = data::SkewFraction(w.spec.distribution);

    simcl::SimContext ctx_b;
    auto planned = ExecutePlan(&ctx_b, plan);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();

    ExpectReportsIdentical(*single, *planned);
    EXPECT_EQ(single->matches, w.expected_matches);
    // The plan path additionally reports the one lowered operator.
    ASSERT_EQ(planned->operators.size(), 1u);
    EXPECT_EQ(planned->operators[0].kind, "join");
    EXPECT_EQ(planned->operators[0].output_rows, planned->matches);
    EXPECT_GT(planned->operators[0].elapsed_ns, 0.0);
  }
}

// Skewed workloads exercise the skew_fraction/locality plumbing.
TEST(PlanLoweringParity, SkewedWorkloadMatches) {
  const data::Workload w = MakeWorkload(data::Distribution::kHighSkew);
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kPipelined;

  simcl::SimContext ctx_a;
  auto single = ExecutePlan(&ctx_a, MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(single.ok());

  const PlanSpec plan = MakeSingleJoinPlan(w, spec);
  EXPECT_EQ(plan.expected_matches, w.expected_matches);
  EXPECT_EQ(plan.skew_fraction, data::SkewFraction(w.spec.distribution));
  simcl::SimContext ctx_b;
  auto planned = ExecutePlan(&ctx_b, plan);
  ASSERT_TRUE(planned.ok());
  ExpectReportsIdentical(*single, *planned);
}

// The emulated-discrete restrictions must carry over to the plan path.
TEST(PlanLoweringParity, DiscreteModeMatchesAndKeepsRestrictions) {
  const data::Workload w = MakeWorkload();
  simcl::ContextOptions copts;
  copts.arch = simcl::ArchMode::kDiscreteEmulated;

  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kDataDivide;

  simcl::SimContext ctx_a(copts);
  auto single = ExecutePlan(&ctx_a, MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(single.ok());
  simcl::SimContext ctx_b(copts);
  auto planned = ExecutePlan(&ctx_b, MakeSingleJoinPlan(w, spec));
  ASSERT_TRUE(planned.ok());
  ExpectReportsIdentical(*single, *planned);

  spec.scheme = Scheme::kPipelined;
  simcl::SimContext ctx_c(copts);
  auto rejected = ExecutePlan(&ctx_c, MakeSingleJoinPlan(w, spec));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Validation negatives: real Status codes with node paths, never asserts.
// ---------------------------------------------------------------------------

void ExpectInvalid(const plan::Graph& g, const char* what) {
  const apujoin::Status st = g.Validate();
  EXPECT_FALSE(st.ok()) << what;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(st.message().find("plan"), std::string::npos)
      << what << ": message should name the node path, got: " << st.message();
}

TEST(PlanValidation, EmptyGraphAndBadRoot) {
  plan::Graph empty;
  EXPECT_EQ(empty.Validate().code(), StatusCode::kInvalidArgument);

  data::Relation r;
  r.Append(1, 0);
  plan::Graph scan_root;
  scan_root.AddScan(&r);
  ExpectInvalid(scan_root, "scan as root");

  plan::Graph oob;
  oob.AddScan(&r);
  oob.root = 7;  // out of range
  EXPECT_EQ(oob.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(PlanValidation, CyclicTree) {
  data::Relation r;
  r.Append(1, 0);
  plan::Graph g;
  const int a = g.AddScan(&r);
  const int sel = g.AddSelect(a, plan::Predicate{});
  g.AddHashJoin(sel, a);  // `a` now has two parents AND...
  g.nodes[sel].children[0] = sel;  // ...the select points at itself: a cycle
  ExpectInvalid(g, "cyclic select");
}

TEST(PlanValidation, NodeWithTwoParents) {
  data::Relation r;
  r.Append(1, 0);
  plan::Graph g;
  const int a = g.AddScan(&r);
  g.AddHashJoin(a, a);  // same scan as build and probe
  ExpectInvalid(g, "shared scan node");
}

TEST(PlanValidation, UnreachableNode) {
  data::Relation r;
  r.Append(1, 0);
  plan::Graph g;
  const int a = g.AddScan(&r);
  const int b = g.AddScan(&r);
  g.AddScan(&r);  // orphan
  const int j = g.AddHashJoin(a, b);
  g.root = j;
  ExpectInvalid(g, "unreachable scan");
}

TEST(PlanValidation, ArityMismatches) {
  data::Relation r;
  r.Append(1, 0);

  plan::Graph one_child;
  const int a = one_child.AddScan(&r);
  plan::Node j;
  j.kind = plan::NodeKind::kHashJoin;
  j.children = {a};
  one_child.nodes.push_back(j);
  one_child.root = static_cast<int>(one_child.nodes.size()) - 1;
  ExpectInvalid(one_child, "hash join with one child");

  plan::Graph too_few;
  const int b0 = too_few.AddScan(&r);
  const int p0 = too_few.AddScan(&r);
  too_few.AddMultiwayJoin({b0}, p0);  // 1 build table, need 2..4
  ExpectInvalid(too_few, "multiway with one build");

  plan::Graph too_many;
  std::vector<int> builds;
  for (int k = 0; k < 5; ++k) builds.push_back(too_many.AddScan(&r));
  const int p1 = too_many.AddScan(&r);
  too_many.AddMultiwayJoin(builds, p1);  // 5 build tables
  ExpectInvalid(too_many, "multiway with five builds");

  plan::Graph scan_child;
  const int c0 = scan_child.AddScan(&r);
  const int c1 = scan_child.AddScan(&r);
  const int jj = scan_child.AddHashJoin(c0, c1);
  scan_child.AddGroupBy(jj, plan::AggFn::kCount);
  scan_child.nodes.back().children = {c0};  // group-by over a scan
  ExpectInvalid(scan_child, "group-by over non-join");
}

TEST(PlanValidation, NullScanRelation) {
  plan::Graph g;
  const int a = g.AddScan(nullptr);
  const int b = g.AddScan(nullptr);
  g.AddHashJoin(a, b);
  ExpectInvalid(g, "null scan relation");
}

TEST(PlanValidation, UnknownEnumsFromUntrustedInput) {
  data::Relation r;
  r.Append(1, 0);

  plan::Graph bad_agg;
  const int a = bad_agg.AddScan(&r);
  const int b = bad_agg.AddScan(&r);
  const int j = bad_agg.AddHashJoin(a, b);
  bad_agg.AddGroupBy(j, static_cast<plan::AggFn>(99));
  ExpectInvalid(bad_agg, "unknown aggregate");

  plan::Graph bad_pred;
  const int c = bad_pred.AddScan(&r);
  plan::Predicate p;
  p.op = static_cast<plan::CompareOp>(77);
  const int sel = bad_pred.AddSelect(c, p);
  const int d = bad_pred.AddScan(&r);
  bad_pred.AddHashJoin(sel, d);
  ExpectInvalid(bad_pred, "unknown predicate op");
}

// ExecutePlan itself re-validates and surfaces spec errors as Status.
TEST(PlanValidation, ExecutePlanRejectsInvalidInput) {
  const data::Workload w = MakeWorkload();

  // Malformed graph through the runner (not just Graph::Validate).
  PlanSpec plan;
  plan.graph.AddScan(&w.build);
  simcl::SimContext ctx;
  auto rep = ExecutePlan(&ctx, plan);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);

  // Invalid execution options surface through ExecOptions::Validate.
  JoinSpec spec;
  spec.engine.layout = static_cast<exec::HashLayout>(42);
  auto rep2 = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  ASSERT_FALSE(rep2.ok());
  EXPECT_EQ(rep2.status().code(), StatusCode::kInvalidArgument);

  // Multiway chains are coupled-architecture only.
  simcl::ContextOptions copts;
  copts.arch = simcl::ArchMode::kDiscreteEmulated;
  simcl::SimContext discrete(copts);
  PlanSpec mw;
  const int b0 = mw.graph.AddScan(&w.build);
  const int b1 = mw.graph.AddScan(&w.build);
  const int s = mw.graph.AddScan(&w.probe);
  mw.graph.AddMultiwayJoin({b0, b1}, s);
  mw.exec.scheme = Scheme::kDataDivide;
  auto rep3 = ExecutePlan(&discrete, mw);
  ASSERT_FALSE(rep3.ok());
  EXPECT_EQ(rep3.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rep3.status().message().find("coupled"), std::string::npos);
}

}  // namespace
}  // namespace apujoin::coproc
