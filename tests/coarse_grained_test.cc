#include <gtest/gtest.h>

#include "coproc/pipeline_runner.h"
#include "coproc/coarse_grained.h"
#include "exec/backend_kind.h"
#include "fan_out.h"
#include "join/reference_join.h"

namespace apujoin::coproc {
namespace {

data::Workload MakeWorkload(uint64_t n,
                            data::KeySchema schema = data::KeySchema::kU32,
                            double selectivity = 1.0) {
  data::WorkloadSpec spec;
  spec.build_tuples = n;
  spec.probe_tuples = n;
  spec.selectivity = selectivity;
  spec.key_schema = schema;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

/// Runs the coarse-grained PHJ on both backends and checks each count
/// against the reference oracle.
void ExpectExactOnEveryBackend(const data::Workload& w) {
  const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
  for (exec::BackendKind backend :
       {exec::BackendKind::kSim, exec::BackendKind::kThreadPool}) {
    SCOPED_TRACE(exec::BackendKindName(backend));
    simcl::SimContext ctx;
    JoinSpec spec;
    spec.engine.partitions = 16;
    spec.engine.backend = backend;
    spec.engine.threads = 2;
    auto report = ExecuteCoarsePhj(&ctx, w, spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, reference);
  }
}

TEST(CoarseGrainedTest, MatchesReference) {
  const data::Workload w = MakeWorkload(1 << 12);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.engine.partitions = 16;
  auto report = ExecuteCoarsePhj(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, w.expected_matches);
}

TEST(CoarseGrainedTest, SlowerThanFineGrainedPl) {
  // Table 3: PHJ-PL' loses to PHJ-PL.
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.algorithm = Algorithm::kPHJ;
  spec.scheme = Scheme::kPipelined;
  auto fine = ExecutePlan(&ctx, MakeSingleJoinPlan(w, spec));
  auto coarse = ExecuteCoarsePhj(&ctx, w, spec);
  ASSERT_TRUE(fine.ok() && coarse.ok());
  EXPECT_GT(coarse->elapsed_ns, fine->elapsed_ns);
}

TEST(CoarseGrainedTest, MoreCacheMissesThanFineGrained) {
  // Table 3: the coarse definition's private tables and deep pair
  // concurrency roughly double the L2 misses. Needs pairs large enough
  // that the in-flight set exceeds the 4 MB L2.
  const data::Workload w = MakeWorkload(1 << 19);
  simcl::ContextOptions copts;
  copts.trace_cache = true;
  JoinSpec spec;
  spec.algorithm = Algorithm::kPHJ;
  spec.scheme = Scheme::kPipelined;
  spec.engine.partitions = 16;
  simcl::SimContext ctx_fine(copts);
  auto fine = ExecutePlan(&ctx_fine, MakeSingleJoinPlan(w, spec));
  simcl::SimContext ctx_coarse(copts);
  auto coarse = ExecuteCoarsePhj(&ctx_coarse, w, spec);
  ASSERT_TRUE(fine.ok() && coarse.ok());
  const double fine_ratio = static_cast<double>(fine->l2_misses) /
                            static_cast<double>(fine->l2_accesses);
  const double coarse_ratio = static_cast<double>(coarse->l2_misses) /
                              static_cast<double>(coarse->l2_accesses);
  EXPECT_GT(coarse_ratio, fine_ratio * 1.15);
}

TEST(CoarseGrainedTest, PairRatioReported) {
  const data::Workload w = MakeWorkload(1 << 12);
  simcl::SimContext ctx;
  JoinSpec spec;
  spec.engine.partitions = 32;
  auto report = ExecuteCoarsePhj(&ctx, w, spec);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->steps.size(), 1u);
  EXPECT_GT(report->steps[0].ratio, 0.0);
  EXPECT_LT(report->steps[0].ratio, 1.0);
}

TEST(CoarseGrainedTest, FanOutJoinIsExact) {
  // 256 matches per probe tuple while the workload only claims one: the
  // pair joins' shared result buffer grows past any guess.
  const data::Workload w = data::FanOutWorkload();
  const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
  for (exec::BackendKind backend :
       {exec::BackendKind::kSim, exec::BackendKind::kThreadPool}) {
    SCOPED_TRACE(exec::BackendKindName(backend));
    simcl::SimContext ctx;
    JoinSpec spec;
    spec.engine.partitions = 16;
    spec.engine.backend = backend;
    spec.engine.threads = 2;
    auto report = ExecuteCoarsePhj(&ctx, w, spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->matches, reference);
  }
}

TEST(CoarseGrainedTest, WideKeysCompareTheHiWord) {
  // Equal low words, different high words: no U64 key matches. A pair
  // join that hashed and compared only the low word would return every
  // probe row as a match.
  data::Workload w;
  w.build.key_schema = data::KeySchema::kU64;
  w.probe.key_schema = data::KeySchema::kU64;
  for (int32_t i = 0; i < 4096; ++i) {
    w.build.Append(i, /*hi=*/1, i);
    w.probe.Append(i, /*hi=*/2, i);
  }
  w.spec.build_tuples = 4096;
  w.spec.probe_tuples = 4096;
  w.spec.key_schema = data::KeySchema::kU64;
  w.expected_matches = 0;
  ASSERT_EQ(join::ReferenceMatchCount(w.build, w.probe), 0u);
  ExpectExactOnEveryBackend(w);
}

TEST(CoarseGrainedTest, GeneratedWideSchemasAreExact) {
  // The generator's wide build keys share low words past 1024 tuples, so
  // only the hi-word compare keeps these exact.
  for (data::KeySchema schema :
       {data::KeySchema::kU64, data::KeySchema::kComposite,
        data::KeySchema::kDictString}) {
    SCOPED_TRACE(data::KeySchemaName(schema));
    ExpectExactOnEveryBackend(MakeWorkload(1 << 13, schema, 0.5));
  }
}

}  // namespace
}  // namespace apujoin::coproc
