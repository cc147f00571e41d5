// Operator-pipeline correctness: the new plan operators (predicate
// selection, multi-way probe chains, hash group-by) must reproduce a
// scalar reference oracle exactly — on uniform, skewed, and all-duplicate
// data, on BOTH execution backends, and under both hash-table layouts.
// This is the acceptance gate for the plan IR beyond single-join parity
// (plan_lowering_test covers that side).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "coproc/join_driver.h"
#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/backend_kind.h"
#include "plan/plan.h"
#include "service/join_service.h"

namespace apujoin::coproc {
namespace {

using exec::BackendKind;
using exec::HashLayout;

// ---------------------------------------------------------------------------
// Data shapes
// ---------------------------------------------------------------------------

enum class Shape { kUniform, kZipf, kAllDuplicate };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kUniform:      return "uniform";
    case Shape::kZipf:         return "zipf";
    case Shape::kAllDuplicate: return "all-duplicate";
  }
  return "?";
}

struct Tables {
  data::Relation build;
  data::Relation probe;
  double skew = 0.0;
};

Tables MakeTables(Shape shape) {
  Tables t;
  switch (shape) {
    case Shape::kUniform:
    case Shape::kZipf: {
      data::WorkloadSpec spec;
      spec.build_tuples = 1 << 12;
      spec.probe_tuples = 1 << 14;
      spec.distribution = shape == Shape::kZipf ? data::Distribution::kHighSkew
                                                : data::Distribution::kUniform;
      auto w = data::GenerateWorkload(spec);
      EXPECT_TRUE(w.ok()) << w.status().ToString();
      t.build = std::move(w->build);
      t.probe = std::move(w->probe);
      t.skew = data::SkewFraction(spec.distribution);
      break;
    }
    case Shape::kAllDuplicate:
      // Every tuple carries the same key: the worst case for chain length
      // and the group-by claim table (one giant group).
      for (int32_t i = 0; i < 64; ++i) t.build.Append(7, i);
      for (int32_t i = 0; i < 256; ++i) t.probe.Append(7, 1000 + i);
      break;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Reference oracles (scalar, single-threaded)
// ---------------------------------------------------------------------------

std::map<int32_t, uint64_t> KeyCounts(const data::Relation& r) {
  std::map<int32_t, uint64_t> counts;
  for (int32_t k : r.keys) ++counts[k];
  return counts;
}

std::map<int32_t, uint64_t> FilteredKeyCounts(const data::Relation& r,
                                              const plan::Predicate& pred) {
  std::map<int32_t, uint64_t> counts;
  for (uint64_t i = 0; i < r.size(); ++i) {
    if (plan::EvalPredicate(pred, r.keys[i], r.rids[i])) ++counts[r.keys[i]];
  }
  return counts;
}

uint64_t OracleSurvivors(const data::Relation& r, const plan::Predicate& pred) {
  uint64_t n = 0;
  for (uint64_t i = 0; i < r.size(); ++i) {
    n += plan::EvalPredicate(pred, r.keys[i], r.rids[i]) ? 1 : 0;
  }
  return n;
}

uint64_t OracleJoinMatches(const std::map<int32_t, uint64_t>& build_counts,
                           const data::Relation& probe) {
  uint64_t matches = 0;
  for (int32_t k : probe.keys) {
    auto it = build_counts.find(k);
    if (it != build_counts.end()) matches += it->second;
  }
  return matches;
}

/// Per-key reference aggregate of join(build, probe): the group value
/// aggregates the probe-side rid of each result pair (GroupByEngine's
/// contract), so a probe tuple matching c build tuples contributes c pairs
/// all carrying its own rid.
struct OracleGroup {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
};

std::map<int32_t, OracleGroup> OracleGroups(
    const std::map<int32_t, uint64_t>& build_counts,
    const data::Relation& probe) {
  std::map<int32_t, OracleGroup> groups;
  for (uint64_t i = 0; i < probe.size(); ++i) {
    auto it = build_counts.find(probe.keys[i]);
    if (it == build_counts.end() || it->second == 0) continue;
    const uint64_t c = it->second;
    const int64_t rid = probe.rids[i];
    OracleGroup& g = groups[probe.keys[i]];
    g.count += c;
    g.sum += static_cast<int64_t>(c) * rid;
    if (rid < g.min) g.min = rid;
    if (rid > g.max) g.max = rid;
  }
  return groups;
}

void ExpectGroupsMatchOracle(const std::vector<join::GroupRow>& got,
                             const std::map<int32_t, OracleGroup>& oracle,
                             plan::AggFn agg) {
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();  // std::map iterates sorted by key, like groups
  for (size_t i = 0; i < got.size(); ++i, ++it) {
    SCOPED_TRACE("group key " + std::to_string(it->first));
    EXPECT_EQ(got[i].key, it->first);
    EXPECT_EQ(got[i].count, it->second.count);
    int64_t want = 0;
    switch (agg) {
      case plan::AggFn::kCount: want = static_cast<int64_t>(it->second.count);
                                break;
      case plan::AggFn::kSum:   want = it->second.sum; break;
      case plan::AggFn::kMin:   want = it->second.min; break;
      case plan::AggFn::kMax:   want = it->second.max; break;
    }
    EXPECT_EQ(got[i].value, want);
  }
}

// ---------------------------------------------------------------------------
// Execution helper
// ---------------------------------------------------------------------------

JoinSpec MakeSpec(BackendKind backend, HashLayout layout) {
  JoinSpec spec;
  spec.algorithm = Algorithm::kSHJ;
  spec.scheme = Scheme::kPipelined;
  spec.engine.backend = backend;
  spec.engine.layout = layout;
  spec.engine.threads = 4;
  return spec;
}

const OperatorReport* FindOperator(const JoinReport& report,
                                   const std::string& kind) {
  for (const OperatorReport& op : report.operators) {
    if (op.kind == kind) return &op;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Selection: select(build) ⋈ probe vs the EvalPredicate oracle
// ---------------------------------------------------------------------------

class SelectOpTest
    : public ::testing::TestWithParam<std::tuple<BackendKind, HashLayout>> {};

TEST_P(SelectOpTest, SelectJoinMatchesOracle) {
  const auto [backend, layout] = GetParam();
  for (Shape shape : {Shape::kUniform, Shape::kZipf, Shape::kAllDuplicate}) {
    SCOPED_TRACE(ShapeName(shape));
    const Tables t = MakeTables(shape);

    // Median-ish cutoff so the filter passes some and drops some.
    plan::Predicate pred;
    pred.column = plan::SelectColumn::kKey;
    pred.op = plan::CompareOp::kGe;
    pred.operand = t.build.keys[t.build.size() / 2];

    const auto build_counts = FilteredKeyCounts(t.build, pred);
    const uint64_t survivors = OracleSurvivors(t.build, pred);
    const uint64_t matches = OracleJoinMatches(build_counts, t.probe);

    PlanSpec plan;
    const int b = plan.graph.AddScan(&t.build);
    const int sel = plan.graph.AddSelect(b, pred);
    const int p = plan.graph.AddScan(&t.probe);
    plan.graph.AddHashJoin(sel, p);
    plan.exec = MakeSpec(backend, layout);
    plan.expected_matches = matches;
    plan.skew_fraction = t.skew;

    simcl::SimContext ctx;
    auto report = ExecutePlan(&ctx, plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, matches);

    const OperatorReport* sel_op = FindOperator(*report, "select");
    ASSERT_NE(sel_op, nullptr);
    EXPECT_EQ(sel_op->input_rows, t.build.size());
    EXPECT_EQ(sel_op->output_rows, survivors);
    const OperatorReport* join_op = FindOperator(*report, "join");
    ASSERT_NE(join_op, nullptr);
    EXPECT_EQ(join_op->output_rows, matches);
  }
}

TEST_P(SelectOpTest, FilterAllOutYieldsEmptyJoin) {
  const auto [backend, layout] = GetParam();
  const Tables t = MakeTables(Shape::kAllDuplicate);

  plan::Predicate pred;  // key == 12345 matches nothing (all keys are 7)
  pred.op = plan::CompareOp::kEq;
  pred.operand = 12345;

  PlanSpec plan;
  const int b = plan.graph.AddScan(&t.build);
  const int sel = plan.graph.AddSelect(b, pred);
  const int p = plan.graph.AddScan(&t.probe);
  plan.graph.AddHashJoin(sel, p);
  plan.exec = MakeSpec(backend, layout);
  plan.expected_matches = 0;

  simcl::SimContext ctx;
  auto report = ExecutePlan(&ctx, plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, 0u);
  const OperatorReport* sel_op = FindOperator(*report, "select");
  ASSERT_NE(sel_op, nullptr);
  EXPECT_EQ(sel_op->output_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAndLayouts, SelectOpTest,
    ::testing::Combine(::testing::Values(BackendKind::kSim,
                                         BackendKind::kThreadPool),
                       ::testing::Values(HashLayout::kChained,
                                         HashLayout::kOpenAddressing)),
    [](const auto& info) {
      return std::string(exec::BackendKindName(std::get<0>(info.param))) +
             "_" + exec::HashLayoutName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Group-by: join → aggregate vs the per-key oracle, all four AggFns
// ---------------------------------------------------------------------------

class GroupByOpTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(GroupByOpTest, AggregatesMatchOracle) {
  const BackendKind backend = GetParam();
  for (Shape shape : {Shape::kUniform, Shape::kZipf, Shape::kAllDuplicate}) {
    for (plan::AggFn agg : {plan::AggFn::kCount, plan::AggFn::kSum,
                            plan::AggFn::kMin, plan::AggFn::kMax}) {
      SCOPED_TRACE(std::string(ShapeName(shape)) + "/" + plan::AggFnName(agg));
      const Tables t = MakeTables(shape);
      const auto build_counts = KeyCounts(t.build);
      const uint64_t matches = OracleJoinMatches(build_counts, t.probe);
      const auto oracle = OracleGroups(build_counts, t.probe);

      PlanSpec plan;
      const int b = plan.graph.AddScan(&t.build);
      const int p = plan.graph.AddScan(&t.probe);
      const int j = plan.graph.AddHashJoin(b, p);
      plan.graph.AddGroupBy(j, agg);
      plan.exec = MakeSpec(backend, HashLayout::kChained);
      plan.expected_matches = matches;
      plan.skew_fraction = t.skew;

      simcl::SimContext ctx;
      auto report = ExecutePlan(&ctx, plan);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->matches, matches);
      ExpectGroupsMatchOracle(report->groups, oracle, agg);

      const OperatorReport* gb_op = FindOperator(*report, "group-by");
      ASSERT_NE(gb_op, nullptr);
      EXPECT_EQ(gb_op->input_rows, matches);
      EXPECT_EQ(gb_op->output_rows, oracle.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GroupByOpTest,
                         ::testing::Values(BackendKind::kSim,
                                           BackendKind::kThreadPool),
                         [](const auto& info) {
                           return exec::BackendKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Multi-way probe chains: product-of-duplicates oracle, 2..4 tables
// ---------------------------------------------------------------------------

/// Build table t carries keys 0..kKeys-1, each duplicated dup times —
/// so a probe key k in range matches Π_t dup_t chains.
data::Relation MakeDupTable(int32_t num_keys, int dup, int32_t rid_base) {
  data::Relation r;
  for (int32_t k = 0; k < num_keys; ++k) {
    for (int d = 0; d < dup; ++d) r.Append(k, rid_base + k * dup + d);
  }
  return r;
}

uint64_t OracleMultiwayMatches(const std::vector<const data::Relation*>& builds,
                               const data::Relation& probe) {
  std::vector<std::map<int32_t, uint64_t>> counts;
  counts.reserve(builds.size());
  for (const data::Relation* b : builds) counts.push_back(KeyCounts(*b));
  uint64_t matches = 0;
  for (int32_t k : probe.keys) {
    uint64_t prod = 1;
    for (const auto& c : counts) {
      auto it = c.find(k);
      prod *= it == c.end() ? 0 : it->second;
      if (prod == 0) break;
    }
    matches += prod;
  }
  return matches;
}

class MultiwayOpTest
    : public ::testing::TestWithParam<std::tuple<BackendKind, HashLayout>> {};

TEST_P(MultiwayOpTest, ChainMatchesProductOracle) {
  const auto [backend, layout] = GetParam();
  constexpr int32_t kKeys = 256;
  // Probe half in range (matching) and half out of range (dead lanes at
  // the first chain hop).
  data::Relation probe;
  for (int32_t i = 0; i < 512; ++i) probe.Append(i % (kKeys * 2), 5000 + i);

  for (int num_builds : {2, 3, 4}) {
    SCOPED_TRACE(std::to_string(num_builds) + " build tables");
    std::vector<data::Relation> builds;
    builds.reserve(num_builds);
    for (int t = 0; t < num_builds; ++t) {
      builds.push_back(MakeDupTable(kKeys, t + 1, t * 100000));
    }

    PlanSpec plan;
    std::vector<int> build_nodes;
    std::vector<const data::Relation*> build_ptrs;
    for (const data::Relation& b : builds) {
      build_nodes.push_back(plan.graph.AddScan(&b));
      build_ptrs.push_back(&b);
    }
    const int p = plan.graph.AddScan(&probe);
    plan.graph.AddMultiwayJoin(build_nodes, p);
    plan.exec = MakeSpec(backend, layout);
    const uint64_t matches = OracleMultiwayMatches(build_ptrs, probe);
    plan.expected_matches = matches;

    simcl::SimContext ctx;
    auto report = ExecutePlan(&ctx, plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, matches);

    const OperatorReport* op = FindOperator(*report, "multiway");
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->output_rows, matches);
    EXPECT_GT(op->elapsed_ns, 0.0);
  }
}

TEST_P(MultiwayOpTest, ChainFeedsGroupBy) {
  const auto [backend, layout] = GetParam();
  constexpr int32_t kKeys = 64;
  const data::Relation b0 = MakeDupTable(kKeys, 2, 0);
  const data::Relation b1 = MakeDupTable(kKeys, 3, 100000);
  data::Relation probe;
  for (int32_t i = 0; i < 256; ++i) probe.Append(i % (kKeys * 2), 9000 + i);

  PlanSpec plan;
  const int n0 = plan.graph.AddScan(&b0);
  const int n1 = plan.graph.AddScan(&b1);
  const int p = plan.graph.AddScan(&probe);
  const int mw = plan.graph.AddMultiwayJoin({n0, n1}, p);
  plan.graph.AddGroupBy(mw, plan::AggFn::kCount);
  plan.exec = MakeSpec(backend, layout);
  const uint64_t matches = OracleMultiwayMatches({&b0, &b1}, probe);
  plan.expected_matches = matches;

  // Per in-range key: 2 probe rows × (2 × 3) chain combinations = 12 pairs.
  std::map<int32_t, uint64_t> oracle;
  for (int32_t k : probe.keys) {
    if (k < kKeys) oracle[k] += 2 * 3;
  }

  simcl::SimContext ctx;
  auto report = ExecutePlan(&ctx, plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, matches);
  ASSERT_EQ(report->groups.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < report->groups.size(); ++i, ++it) {
    EXPECT_EQ(report->groups[i].key, it->first);
    EXPECT_EQ(report->groups[i].count, it->second);
    EXPECT_EQ(report->groups[i].value, static_cast<int64_t>(it->second));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAndLayouts, MultiwayOpTest,
    ::testing::Combine(::testing::Values(BackendKind::kSim,
                                         BackendKind::kThreadPool),
                       ::testing::Values(HashLayout::kChained,
                                         HashLayout::kOpenAddressing)),
    [](const auto& info) {
      return std::string(exec::BackendKindName(std::get<0>(info.param))) +
             "_" + exec::HashLayoutName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Full pipeline: select → join → group-by, sim vs threads agreement
// ---------------------------------------------------------------------------

TEST(PipelineTest, SelectJoinGroupBySimAndThreadsAgree) {
  const Tables t = MakeTables(Shape::kZipf);
  plan::Predicate pred;
  pred.column = plan::SelectColumn::kRid;
  pred.op = plan::CompareOp::kLt;
  pred.operand = static_cast<int32_t>(t.build.size() / 2);

  const auto build_counts = FilteredKeyCounts(t.build, pred);
  const uint64_t matches = OracleJoinMatches(build_counts, t.probe);
  const auto oracle = OracleGroups(build_counts, t.probe);

  for (BackendKind backend : {BackendKind::kSim, BackendKind::kThreadPool}) {
    SCOPED_TRACE(exec::BackendKindName(backend));
    PlanSpec plan;
    const int b = plan.graph.AddScan(&t.build);
    const int sel = plan.graph.AddSelect(b, pred);
    const int p = plan.graph.AddScan(&t.probe);
    const int j = plan.graph.AddHashJoin(sel, p);
    plan.graph.AddGroupBy(j, plan::AggFn::kSum);
    plan.exec = MakeSpec(backend, HashLayout::kChained);
    plan.expected_matches = matches;
    plan.skew_fraction = t.skew;

    simcl::SimContext ctx;
    auto report = ExecutePlan(&ctx, plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, matches);
    ExpectGroupsMatchOracle(report->groups, oracle, plan::AggFn::kSum);
    // One OperatorReport per lowered node, in execution order.
    ASSERT_EQ(report->operators.size(), 3u);
    EXPECT_EQ(report->operators[0].kind, "select");
    EXPECT_EQ(report->operators[1].kind, "join");
    EXPECT_EQ(report->operators[2].kind, "group-by");
    for (const OperatorReport& op : report->operators) {
      EXPECT_GT(op.elapsed_ns, 0.0) << op.path;
    }
  }
}

// ---------------------------------------------------------------------------
// Service round-trip: Submit(PlanSpec) through a session's runner thread
// ---------------------------------------------------------------------------

TEST(PipelineTest, ServiceExecutesSubmittedPlan) {
  const Tables t = MakeTables(Shape::kUniform);
  const auto build_counts = KeyCounts(t.build);
  const uint64_t matches = OracleJoinMatches(build_counts, t.probe);
  const auto oracle = OracleGroups(build_counts, t.probe);

  service::ServiceOptions opts;
  opts.exec.threads = 4;
  service::JoinService svc(opts);
  auto session = svc.OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  PlanSpec plan;
  const int b = plan.graph.AddScan(&t.build);
  const int p = plan.graph.AddScan(&t.probe);
  const int j = plan.graph.AddHashJoin(b, p);
  plan.graph.AddGroupBy(j, plan::AggFn::kCount);
  plan.exec = MakeSpec(BackendKind::kThreadPool, HashLayout::kChained);
  plan.expected_matches = matches;

  auto ticket = (*session)->Submit(plan);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  auto report = ticket->Take();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, matches);
  ExpectGroupsMatchOracle(report->groups, oracle, plan::AggFn::kCount);

  session->reset();
  EXPECT_EQ(svc.stats().joins_completed, 1u);
}

}  // namespace
}  // namespace apujoin::coproc
