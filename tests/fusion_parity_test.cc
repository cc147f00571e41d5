// Fusion parity: plan fusion (--fuse=auto, the default) must be
// semantically invisible. Fused and unfused lowerings of the same plan
// must agree on match counts and group aggregates across uniform, skewed,
// and all-duplicate data, BOTH execution backends, BOTH hash-table
// layouts, both join algorithms, and morsel sizes {1, 64, 4096}; where
// pairs are still requested (a join-rooted plan) the fused selection must
// preserve the exact rid-pair multiset. On the sim backend --fuse=off must
// reproduce the PR 8 lowering bit-for-bit (this is what keeps the 19
// figure goldens identical: every figure bench lowers a single-join plan,
// where auto and off coincide exactly).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coproc/join_driver.h"
#include "coproc/pipeline_runner.h"
#include "coproc/step_series.h"
#include "data/generator.h"
#include "exec/backend_kind.h"
#include "join/partitioned_hash_join.h"
#include "join/reference_join.h"
#include "join/select_engine.h"
#include "join/simple_hash_join.h"
#include "plan/plan.h"

namespace apujoin::coproc {
namespace {

using exec::BackendKind;
using exec::FuseMode;
using exec::HashLayout;

// ---------------------------------------------------------------------------
// Data shapes + oracles (mirrors pipeline_operators_test)
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
      // Every tuple carries the same key: worst case for chain length, the
      // group-by claim table, and the fused accumulate hot slot.
      for (int32_t i = 0; i < 64; ++i) t.build.Append(7, i);
      for (int32_t i = 0; i < 256; ++i) t.probe.Append(7, 1000 + i);
      break;
  }
  return t;
}

std::map<int32_t, uint64_t> FilteredKeyCounts(const data::Relation& r,
                                              const plan::Predicate* pred) {
  std::map<int32_t, uint64_t> counts;
  for (uint64_t i = 0; i < r.size(); ++i) {
    if (pred == nullptr ||
        plan::EvalPredicate(*pred, r.keys[i], r.rids[i])) {
      ++counts[r.keys[i]];
    }
  }
  return counts;
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

/// Median-rid predicate: passes some and drops some on every shape
/// (all-duplicate tables vary only in rid).
plan::Predicate MedianRidPredicate(const data::Relation& r) {
  plan::Predicate pred;
  pred.column = plan::SelectColumn::kRid;
  pred.op = plan::CompareOp::kLt;
  pred.operand = r.rids[r.size() / 2];
  return pred;
}

// ---------------------------------------------------------------------------
// Plan construction / execution helpers
// ---------------------------------------------------------------------------

enum class PlanKind { kSelectJoin, kJoinGroupBy, kSelectJoinGroupBy };

const char* PlanKindName(PlanKind p) {
  switch (p) {
    case PlanKind::kSelectJoin:        return "select-join";
    case PlanKind::kJoinGroupBy:       return "join-groupby";
    case PlanKind::kSelectJoinGroupBy: return "select-join-groupby";
  }
  return "?";
}

JoinSpec MakeSpec(BackendKind backend, HashLayout layout, Algorithm algo,
                  unsigned morsel, FuseMode fuse) {
  JoinSpec spec;
  spec.algorithm = algo;
  spec.scheme = Scheme::kPipelined;
  spec.engine.backend = backend;
  spec.engine.layout = layout;
  spec.engine.threads = 4;
  spec.engine.morsel_items = morsel;
  spec.engine.fuse = fuse;
  return spec;
}

/// Builds one of the three fusible plan shapes over `t`. The returned spec
/// points into `t` and `pred`, which must outlive it.
PlanSpec MakePlan(PlanKind kind, const Tables& t, const plan::Predicate& pred,
                  const JoinSpec& spec) {
  PlanSpec plan;
  const int b = plan.graph.AddScan(&t.build);
  int join_input = b;
  if (kind != PlanKind::kJoinGroupBy) {
    join_input = plan.graph.AddSelect(b, pred);
  }
  const int p = plan.graph.AddScan(&t.probe);
  const int j = plan.graph.AddHashJoin(join_input, p);
  if (kind != PlanKind::kSelectJoin) {
    plan.graph.AddGroupBy(j, plan::AggFn::kSum);
  }
  plan.exec = spec;
  plan.skew_fraction = t.skew;
  const auto counts = FilteredKeyCounts(
      t.build, kind == PlanKind::kJoinGroupBy ? nullptr : &pred);
  plan.expected_matches = OracleJoinMatches(counts, t.probe);
  return plan;
}

JoinReport MustRun(const PlanSpec& plan) {
  simcl::SimContext ctx;
  auto report = ExecutePlan(&ctx, plan);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

const OperatorReport* FindOperator(const JoinReport& report,
                                   const std::string& kind) {
  for (const OperatorReport& op : report.operators) {
    if (op.kind == kind) return &op;
  }
  return nullptr;
}

bool HasStep(const JoinReport& report, const std::string& name) {
  for (const StepReport& s : report.steps) {
    if (s.name == name) return true;
  }
  return false;
}

void ExpectSameGroups(const std::vector<join::GroupRow>& fused,
                      const std::vector<join::GroupRow>& unfused) {
  ASSERT_EQ(fused.size(), unfused.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    SCOPED_TRACE("group " + std::to_string(i));
    EXPECT_EQ(fused[i].key, unfused[i].key);
    EXPECT_EQ(fused[i].count, unfused[i].count);
    EXPECT_EQ(fused[i].value, unfused[i].value);
  }
}

// ---------------------------------------------------------------------------
// Fused vs unfused agreement across the full execution matrix
// ---------------------------------------------------------------------------

class FusionParityTest
    : public ::testing::TestWithParam<
          std::tuple<BackendKind, HashLayout, Algorithm>> {};

TEST_P(FusionParityTest, FusedAgreesWithUnfused) {
  const auto [backend, layout, algo] = GetParam();
  for (Shape shape : {Shape::kUniform, Shape::kZipf, Shape::kAllDuplicate}) {
    for (unsigned morsel : {1u, 64u, 4096u}) {
      for (PlanKind kind : {PlanKind::kSelectJoin, PlanKind::kJoinGroupBy,
                            PlanKind::kSelectJoinGroupBy}) {
        SCOPED_TRACE(std::string(ShapeName(shape)) + "/morsel=" +
                     std::to_string(morsel) + "/" + PlanKindName(kind));
        const Tables t = MakeTables(shape);
        const plan::Predicate pred = MedianRidPredicate(t.build);

        const JoinReport off = MustRun(MakePlan(
            kind, t, pred,
            MakeSpec(backend, layout, algo, morsel, FuseMode::kOff)));
        const JoinReport fused = MustRun(MakePlan(
            kind, t, pred,
            MakeSpec(backend, layout, algo, morsel, FuseMode::kAuto)));

        EXPECT_EQ(fused.matches, off.matches);
        ExpectSameGroups(fused.groups, off.groups);

        // Per-operator cardinalities agree; the fused flags record which
        // boundaries streamed (the join is flagged only when its matches
        // streamed into the group-by accumulators).
        const bool has_groupby = kind != PlanKind::kSelectJoin;
        ASSERT_EQ(fused.operators.size(), off.operators.size());
        for (size_t i = 0; i < fused.operators.size(); ++i) {
          EXPECT_EQ(fused.operators[i].kind, off.operators[i].kind);
          EXPECT_EQ(fused.operators[i].output_rows,
                    off.operators[i].output_rows)
              << fused.operators[i].path;
          EXPECT_FALSE(off.operators[i].fused) << off.operators[i].path;
          const bool expect_fused =
              fused.operators[i].kind != "join" || has_groupby;
          EXPECT_EQ(fused.operators[i].fused, expect_fused)
              << fused.operators[i].path;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsLayoutsAlgos, FusionParityTest,
    ::testing::Combine(::testing::Values(BackendKind::kSim,
                                         BackendKind::kThreadPool),
                       ::testing::Values(HashLayout::kChained,
                                         HashLayout::kOpenAddressing),
                       ::testing::Values(Algorithm::kSHJ, Algorithm::kPHJ)),
    [](const auto& info) {
      return std::string(exec::BackendKindName(std::get<0>(info.param))) +
             "_" + exec::HashLayoutName(std::get<1>(info.param)) + "_" +
             (std::get<2>(info.param) == Algorithm::kSHJ ? "shj" : "phj");
    });

// ---------------------------------------------------------------------------
// Wide schemas: fusion must stay semantically invisible on typed keys too.
// Select→join is the fusible shape wide keys can reach (group-by fusion is
// U32-only by construction: the plan validator rejects wide group-bys).
// ---------------------------------------------------------------------------

TEST(FusionParityWideTest, WideSelectJoinFusedAgreesWithUnfused) {
  for (data::KeySchema schema :
       {data::KeySchema::kU64, data::KeySchema::kDictString}) {
    SCOPED_TRACE(data::KeySchemaName(schema));
    data::WorkloadSpec wspec;
    wspec.build_tuples = 1 << 12;
    wspec.probe_tuples = 1 << 14;
    wspec.selectivity = 0.5;
    wspec.key_schema = schema;
    auto w = data::GenerateWorkload(wspec);
    ASSERT_TRUE(w.ok());
    const plan::Predicate pred = MedianRidPredicate(w->build);

    // Oracle: materialize the filtered build side and count its matches.
    data::Relation filtered;
    filtered.key_schema = w->build.key_schema;
    filtered.dict = w->build.dict;
    for (uint64_t i = 0; i < w->build.size(); ++i) {
      if (!plan::EvalPredicate(pred, w->build.keys[i], w->build.rids[i])) {
        continue;
      }
      if (w->build.key_hi.empty()) {
        filtered.Append(w->build.keys[i], w->build.rids[i]);
      } else {
        filtered.Append(w->build.keys[i], w->build.key_hi[i],
                        w->build.rids[i]);
      }
    }
    const uint64_t oracle = join::ReferenceMatchCount(filtered, w->probe);

    for (BackendKind backend :
         {BackendKind::kSim, BackendKind::kThreadPool}) {
      for (HashLayout layout :
           {HashLayout::kChained, HashLayout::kOpenAddressing}) {
        for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
          SCOPED_TRACE(std::string(exec::BackendKindName(backend)) + "/" +
                       exec::HashLayoutName(layout) + "/" +
                       (algo == Algorithm::kSHJ ? "shj" : "phj"));
          PlanSpec plan;
          const int b = plan.graph.AddScan(&w->build);
          const int sel = plan.graph.AddSelect(b, pred);
          const int p = plan.graph.AddScan(&w->probe);
          plan.graph.AddHashJoin(sel, p);
          plan.expected_matches = oracle;

          plan.exec = MakeSpec(backend, layout, algo, 0, FuseMode::kOff);
          const JoinReport off = MustRun(plan);
          plan.exec.engine.fuse = FuseMode::kAuto;
          const JoinReport fused = MustRun(plan);

          EXPECT_EQ(off.matches, oracle);
          EXPECT_EQ(fused.matches, oracle);
          ASSERT_EQ(fused.operators.size(), off.operators.size());
          for (size_t i = 0; i < fused.operators.size(); ++i) {
            EXPECT_EQ(fused.operators[i].output_rows,
                      off.operators[i].output_rows)
                << fused.operators[i].path;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rid-pair multiset: a fused selection feeding a join-rooted plan must
// emit exactly the pairs the materialized filter emits (engine level —
// the writer is the plan's output there)
// ---------------------------------------------------------------------------

std::vector<std::pair<int32_t, int32_t>> SortedPairs(
    const join::ResultWriter& w) {
  auto pairs = w.CollectPairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void RunPartitioner(simcl::SimContext* ctx, join::RadixPartitioner* part) {
  for (int pass = 0; pass < part->passes(); ++pass) {
    part->BeginPass(pass);
    std::vector<join::StepDef> steps = part->PassSteps(pass);
    SeriesOptions opts;
    opts.ratios.assign(steps.size(), 1.0);
    RunSeries(ctx, steps, opts);
    part->EndPass(pass);
  }
}

class RidPairParityTest : public ::testing::TestWithParam<HashLayout> {
 protected:
  simcl::SimContext ctx_;

  void RunSteps(std::vector<join::StepDef> steps) {
    SeriesOptions opts;
    opts.ratios.assign(steps.size(), 1.0);
    RunSeries(&ctx_, steps, opts);
  }

  /// Filters `input` through the unfused f1+f2 series.
  data::Relation Materialize(const data::Relation& input,
                             const plan::Predicate& pred) {
    join::SelectEngine sel(&input, pred);
    EXPECT_TRUE(sel.Prepare().ok());
    RunSteps(sel.Steps());
    sel.Finish();
    return sel.output();
  }

  /// Runs the flag-only fused series and returns the selection vector
  /// (owned by `sel`, which the caller keeps alive).
  const uint8_t* Flags(join::SelectEngine* sel) {
    EXPECT_TRUE(sel->PrepareFused().ok());
    RunSteps(sel->FusedSteps());
    return sel->flags();
  }
};

TEST_P(RidPairParityTest, ShjFusedSelectKeepsPairMultiset) {
  join::EngineOptions opts;
  opts.layout = GetParam();
  data::WorkloadSpec wspec;
  wspec.build_tuples = 1 << 12;
  wspec.probe_tuples = 1 << 13;
  auto w = data::GenerateWorkload(wspec);
  ASSERT_TRUE(w.ok());

  for (int side = 0; side < 2; ++side) {
    SCOPED_TRACE(side == 0 ? "build filter" : "probe filter");
    const data::Relation& target = side == 0 ? w->build : w->probe;
    const plan::Predicate pred = MedianRidPredicate(target);

    // Reference: materialize the filtered relation, join it plainly.
    const data::Relation filtered = Materialize(target, pred);
    join::ShjEngine ref(&ctx_, side == 0 ? &filtered : &w->build,
                        side == 0 ? &w->probe : &filtered, opts);
    ASSERT_TRUE(ref.Prepare().ok());
    join::ResultWriter ref_out(alloc::AllocatorKind::kOptimized, 2048);
    RunSteps(ref.BuildSteps());
    ref.MergeSeparateTables();
    RunSteps(ref.ProbeSteps(&ref_out));
    ASSERT_FALSE(ref.overflowed());

    // Fused: same relations, the selection vector pushed into the join.
    join::SelectEngine sel(&target, pred);
    const uint8_t* flags = Flags(&sel);
    join::ShjEngine eng(&ctx_, &w->build, &w->probe, opts);
    ASSERT_TRUE(eng.Prepare().ok());
    if (side == 0) {
      eng.set_build_filter(flags);
    } else {
      eng.set_probe_filter(flags);
    }
    join::ResultWriter fused_out(alloc::AllocatorKind::kOptimized, 2048);
    RunSteps(eng.BuildSteps());
    eng.MergeSeparateTables();
    RunSteps(eng.ProbeSteps(&fused_out));
    ASSERT_FALSE(eng.overflowed());

    EXPECT_EQ(SortedPairs(fused_out), SortedPairs(ref_out));
  }
}

TEST_P(RidPairParityTest, PhjFusedSelectKeepsPairMultiset) {
  join::EngineOptions opts;
  opts.layout = GetParam();
  data::WorkloadSpec wspec;
  wspec.build_tuples = 1 << 12;
  wspec.probe_tuples = 1 << 13;
  auto w = data::GenerateWorkload(wspec);
  ASSERT_TRUE(w.ok());

  for (int side = 0; side < 2; ++side) {
    SCOPED_TRACE(side == 0 ? "build filter" : "probe filter");
    const data::Relation& target = side == 0 ? w->build : w->probe;
    const plan::Predicate pred = MedianRidPredicate(target);

    // Reference: materialize the filtered relation, join it plainly.
    const data::Relation filtered = Materialize(target, pred);
    join::PhjEngine ref(&ctx_, side == 0 ? &filtered : &w->build,
                        side == 0 ? &w->probe : &filtered, opts);
    ASSERT_TRUE(ref.Prepare().ok());
    RunPartitioner(&ctx_, ref.build_partitioner());
    RunPartitioner(&ctx_, ref.probe_partitioner());
    ASSERT_TRUE(ref.PrepareJoinPhase().ok());
    join::ResultWriter ref_out(alloc::AllocatorKind::kOptimized, 2048);
    RunSteps(ref.BuildSteps());
    ref.MergeSeparateTables();
    RunSteps(ref.ProbeSteps(&ref_out));
    ASSERT_FALSE(ref.overflowed());

    // Fused: the selection vector runs inside radix pass 0.
    join::SelectEngine sel(&target, pred);
    const uint8_t* flags = Flags(&sel);
    join::PhjEngine eng(&ctx_, &w->build, &w->probe, opts);
    ASSERT_TRUE(eng.Prepare().ok());
    if (side == 0) {
      eng.set_build_filter(flags);
    } else {
      eng.set_probe_filter(flags);
    }
    RunPartitioner(&ctx_, eng.build_partitioner());
    RunPartitioner(&ctx_, eng.probe_partitioner());
    ASSERT_TRUE(eng.PrepareJoinPhase().ok());
    join::ResultWriter fused_out(alloc::AllocatorKind::kOptimized, 2048);
    RunSteps(eng.BuildSteps());
    eng.MergeSeparateTables();
    RunSteps(eng.ProbeSteps(&fused_out));
    ASSERT_FALSE(eng.overflowed());

    EXPECT_EQ(SortedPairs(fused_out), SortedPairs(ref_out));
  }
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, RidPairParityTest,
                         ::testing::Values(HashLayout::kChained,
                                           HashLayout::kOpenAddressing),
                         [](const auto& info) {
                           return std::string(
                               exec::HashLayoutName(info.param));
                         });

// ---------------------------------------------------------------------------
// Sim bit-identity: --fuse=off IS the PR 8 lowering, and on single-join
// plans (every figure golden) auto never fuses, so the two modes coincide
// exactly — same virtual time, same steps
// ---------------------------------------------------------------------------

TEST(SimFuseOffTest, SingleJoinAutoBitIdenticalToOff) {
  data::WorkloadSpec wspec;
  wspec.build_tuples = 1 << 12;
  wspec.probe_tuples = 1 << 14;
  auto w = data::GenerateWorkload(wspec);
  ASSERT_TRUE(w.ok());

  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    SCOPED_TRACE(algo == Algorithm::kSHJ ? "shj" : "phj");
    JoinSpec spec = MakeSpec(BackendKind::kSim, HashLayout::kChained, algo,
                             0, FuseMode::kOff);
    PlanSpec plan;
    const int b = plan.graph.AddScan(&w->build);
    const int p = plan.graph.AddScan(&w->probe);
    plan.graph.AddHashJoin(b, p);
    plan.exec = spec;
    plan.expected_matches = w->expected_matches;

    const JoinReport off = MustRun(plan);
    plan.exec.engine.fuse = FuseMode::kAuto;
    const JoinReport fused = MustRun(plan);

    EXPECT_EQ(fused.elapsed_ns, off.elapsed_ns);      // bit-identical
    EXPECT_EQ(fused.estimated_ns, off.estimated_ns);  // bit-identical
    ASSERT_EQ(fused.steps.size(), off.steps.size());
    for (size_t i = 0; i < fused.steps.size(); ++i) {
      EXPECT_EQ(fused.steps[i].name, off.steps[i].name);
      EXPECT_EQ(fused.steps[i].cpu_ns, off.steps[i].cpu_ns);
      EXPECT_EQ(fused.steps[i].gpu_ns, off.steps[i].gpu_ns);
    }
  }
}

TEST(SimFuseOffTest, OffKeepsMaterializedSeriesAutoSwapsThem) {
  const Tables t = MakeTables(Shape::kUniform);
  const plan::Predicate pred = MedianRidPredicate(t.build);

  for (Algorithm algo : {Algorithm::kSHJ, Algorithm::kPHJ}) {
    SCOPED_TRACE(algo == Algorithm::kSHJ ? "shj" : "phj");
    const JoinSpec off_spec = MakeSpec(BackendKind::kSim,
                                       HashLayout::kChained, algo, 0,
                                       FuseMode::kOff);
    const JoinSpec auto_spec = MakeSpec(BackendKind::kSim,
                                        HashLayout::kChained, algo, 0,
                                        FuseMode::kAuto);

    const JoinReport off = MustRun(
        MakePlan(PlanKind::kSelectJoinGroupBy, t, pred, off_spec));
    const JoinReport fused = MustRun(
        MakePlan(PlanKind::kSelectJoinGroupBy, t, pred, auto_spec));

    // Unfused: compaction (f2) and the group-by rescan (g1) both run, and
    // the probe emits through the writer (p4, no fused variant).
    EXPECT_TRUE(HasStep(off, "f2"));
    EXPECT_TRUE(HasStep(off, "g1"));
    EXPECT_FALSE(HasStep(off, "p4g"));
    for (const OperatorReport& op : off.operators) {
      EXPECT_FALSE(op.fused) << op.path;
    }

    // Fused: both materialization boundaries disappear into p4g.
    EXPECT_FALSE(HasStep(fused, "f2"));
    EXPECT_FALSE(HasStep(fused, "g1"));
    EXPECT_TRUE(HasStep(fused, "p4g"));
    for (const OperatorReport& op : fused.operators) {
      EXPECT_TRUE(op.fused) << op.path;
    }
  }
}

// ---------------------------------------------------------------------------
// Runner demotions: fusion must silently fall back where it cannot apply
// ---------------------------------------------------------------------------

TEST(FusionDemotionTest, EmptyFusedSelectYieldsEmptyJoin) {
  const Tables t = MakeTables(Shape::kAllDuplicate);
  plan::Predicate pred;  // key == 12345 matches nothing (all keys are 7)
  pred.op = plan::CompareOp::kEq;
  pred.operand = 12345;

  for (BackendKind backend : {BackendKind::kSim, BackendKind::kThreadPool}) {
    SCOPED_TRACE(exec::BackendKindName(backend));
    PlanSpec plan;
    const int b = plan.graph.AddScan(&t.build);
    const int sel = plan.graph.AddSelect(b, pred);
    const int p = plan.graph.AddScan(&t.probe);
    const int j = plan.graph.AddHashJoin(sel, p);
    plan.graph.AddGroupBy(j, plan::AggFn::kCount);
    plan.exec = MakeSpec(backend, HashLayout::kChained, Algorithm::kSHJ, 0,
                         FuseMode::kAuto);
    plan.expected_matches = 0;

    const JoinReport report = MustRun(plan);
    EXPECT_EQ(report.matches, 0u);
    EXPECT_TRUE(report.groups.empty());
    const OperatorReport* sel_op = FindOperator(report, "select");
    ASSERT_NE(sel_op, nullptr);
    EXPECT_EQ(sel_op->output_rows, 0u);
  }
}

// ---------------------------------------------------------------------------
// Key values never demote fusion: the aggregate table takes every int32 key
// ---------------------------------------------------------------------------

TEST(FusionKeyTest, Int32MinKeyMatchesUnderEveryAggregate) {
  // INT32_MIN marks the aggregate table's empty probed slots, so the key
  // itself lives in a reserved slot. It matches here (twice per probe, with
  // its neighbours in key space alongside) and must group exactly, fused
  // or not, on both backends.
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  Tables t;
  t.build.Append(kMin, 0);
  t.build.Append(kMin, 1);
  t.build.Append(kMin + 1, 2);
  t.build.Append(kMax, 3);
  for (int32_t i = 0; i < 60; ++i) t.build.Append(i - 30, 4 + i);
  const int32_t probe_keys[] = {kMin, kMin + 1, kMax, -1, 0, 7, 12345};
  for (int32_t i = 0; i < 256; ++i) {
    t.probe.Append(probe_keys[i % 7], 1000 + i);
  }

  // Scalar oracle over the join's (key, probe rid) matches.
  std::map<int32_t, uint64_t> build_counts = FilteredKeyCounts(t.build,
                                                               nullptr);
  std::map<int32_t, std::vector<int64_t>> matched;
  for (uint64_t i = 0; i < t.probe.size(); ++i) {
    const auto it = build_counts.find(t.probe.keys[i]);
    if (it == build_counts.end()) continue;
    for (uint64_t c = 0; c < it->second; ++c) {
      matched[it->first].push_back(t.probe.rids[i]);
    }
  }
  ASSERT_EQ(matched.begin()->first, kMin);
  const uint64_t matches = OracleJoinMatches(build_counts, t.probe);

  for (plan::AggFn agg : {plan::AggFn::kCount, plan::AggFn::kSum,
                          plan::AggFn::kMin, plan::AggFn::kMax}) {
    std::vector<join::GroupRow> oracle;
    for (const auto& [key, vals] : matched) {
      join::GroupRow g;
      g.key = key;
      g.count = vals.size();
      switch (agg) {
        case plan::AggFn::kCount:
          g.value = static_cast<int64_t>(vals.size());
          break;
        case plan::AggFn::kSum:
          for (int64_t v : vals) g.value += v;
          break;
        case plan::AggFn::kMin:
          g.value = *std::min_element(vals.begin(), vals.end());
          break;
        case plan::AggFn::kMax:
          g.value = *std::max_element(vals.begin(), vals.end());
          break;
      }
      oracle.push_back(g);
    }
    for (BackendKind backend : {BackendKind::kSim, BackendKind::kThreadPool}) {
      for (FuseMode fuse : {FuseMode::kOff, FuseMode::kAuto}) {
        SCOPED_TRACE(std::string(exec::BackendKindName(backend)) + "/" +
                     plan::AggFnName(agg) +
                     (fuse == FuseMode::kOff ? "/unfused" : "/fused"));
        PlanSpec plan;
        const int b = plan.graph.AddScan(&t.build);
        const int p = plan.graph.AddScan(&t.probe);
        const int j = plan.graph.AddHashJoin(b, p);
        plan.graph.AddGroupBy(j, agg);
        plan.exec =
            MakeSpec(backend, HashLayout::kChained, Algorithm::kSHJ, 0, fuse);
        plan.expected_matches = matches;

        const JoinReport report = MustRun(plan);
        EXPECT_EQ(report.matches, matches);
        ExpectSameGroups(report.groups, oracle);
        const OperatorReport* gb = FindOperator(report, "group-by");
        ASSERT_NE(gb, nullptr);
        EXPECT_EQ(gb->fused, fuse == FuseMode::kAuto);
        EXPECT_EQ(HasStep(report, "p4g"), fuse == FuseMode::kAuto);
        EXPECT_EQ(HasStep(report, "g1"), fuse == FuseMode::kOff);
      }
    }
  }
}

}  // namespace
}  // namespace apujoin::coproc
