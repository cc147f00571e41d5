#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coproc/out_of_core.h"
#include "exec/backend.h"
#include "exec/backend_kind.h"

namespace apujoin::coproc {
namespace {

data::Workload MakeWorkload(uint64_t n) {
  data::WorkloadSpec spec;
  spec.build_tuples = n;
  spec.probe_tuples = n;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

TEST(OutOfCoreTest, SmallInputRunsInCore) {
  const data::Workload w = MakeWorkload(1 << 12);
  simcl::SimContext ctx;  // default 512 MB buffer
  OutOfCoreSpec spec;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->chunked);
  EXPECT_EQ(report->matches, w.expected_matches);
  EXPECT_DOUBLE_EQ(report->copy_ns, 0.0);
}

TEST(OutOfCoreTest, LargeInputChunksThroughBuffer) {
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 64.0 * 1024;  // tiny buffer forces chunking
  simcl::SimContext ctx(copts);
  OutOfCoreSpec spec;
  spec.chunk_tuples = 1 << 12;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->chunked);
  EXPECT_GT(report->partitions, 1u);
  EXPECT_EQ(report->matches, w.expected_matches);
  EXPECT_GT(report->copy_ns, 0.0);
  EXPECT_GT(report->partition_ns, 0.0);
  EXPECT_GT(report->join_ns, 0.0);
  EXPECT_NEAR(report->elapsed_ns,
              report->partition_ns + report->join_ns + report->copy_ns,
              1e-6);
}

TEST(OutOfCoreTest, ShjAndPhjInnerJoinsAgree) {
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 64.0 * 1024;
  OutOfCoreSpec shj_spec;
  shj_spec.inner.algorithm = Algorithm::kSHJ;
  shj_spec.chunk_tuples = 1 << 12;
  OutOfCoreSpec phj_spec = shj_spec;
  phj_spec.inner.algorithm = Algorithm::kPHJ;
  simcl::SimContext ctx1(copts), ctx2(copts);
  auto a = ExecuteOutOfCore(&ctx1, w, shj_spec);
  auto b = ExecuteOutOfCore(&ctx2, w, phj_spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->matches, w.expected_matches);
  EXPECT_EQ(b->matches, w.expected_matches);
}

TEST(OutOfCoreTest, ThreadsBackendRunsInCore) {
  // Real execution end-to-end: the in-core fallback path on the pool.
  const data::Workload w = MakeWorkload(1 << 12);
  simcl::SimContext ctx;
  OutOfCoreSpec spec;
  spec.inner.engine.backend = exec::BackendKind::kThreadPool;
  spec.inner.engine.threads = 3;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->chunked);
  EXPECT_EQ(report->matches, w.expected_matches);
}

TEST(OutOfCoreTest, ThreadsBackendStreamsChunkMorsels) {
  // The chunked path on the thread-pool backend: every chunk morsel's
  // n1..n3 series and every pair join run on the shared pool, and the
  // result still matches the oracle exactly.
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 64.0 * 1024;
  simcl::SimContext ctx(copts);
  OutOfCoreSpec spec;
  spec.chunk_tuples = 1 << 12;
  spec.inner.engine.backend = exec::BackendKind::kThreadPool;
  spec.inner.engine.threads = 3;
  spec.inner.engine.morsel_items = 64;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->chunked);
  EXPECT_GT(report->partitions, 1u);
  EXPECT_EQ(report->matches, w.expected_matches);
  EXPECT_GT(report->partition_ns, 0.0);  // wall-clock of the chunk passes
  EXPECT_GT(report->join_ns, 0.0);
}

/// Forwards every span to a thread pool and keeps its own launch log: the
/// pool's own log is drained by each pair join inside ExecuteOutOfCore.
class LaneLog : public exec::Backend {
 public:
  explicit LaneLog(exec::Backend* pool)
      : Backend(pool->context()), pool_(pool) {}
  exec::BackendKind kind() const override { return pool_->kind(); }
  simcl::StepStats RunSpan(const join::StepDef& step, simcl::DeviceId dev,
                           uint64_t begin, uint64_t end) override {
    if (end > begin) events.push_back({step.name, dev, begin, end, 0.0});
    return pool_->RunSpan(step, dev, begin, end);
  }
  std::vector<exec::LaunchEvent> events;

 private:
  exec::Backend* pool_;
};

TEST(OutOfCoreTest, ThreadsBackendRunsEverySpanOnTheCpuLane) {
  // A real backend runs every chunk partition pass, staging copy and pair
  // join at ratio 1.0 (coproc/ratio_policy.h): nothing lands on the GPU
  // lane, in either streaming mode.
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 64.0 * 1024;
  for (exec::StreamMode stream :
       {exec::StreamMode::kSerial, exec::StreamMode::kPipelined}) {
    simcl::SimContext ctx(copts);
    const std::unique_ptr<exec::Backend> pool =
        exec::MakeBackend(exec::BackendKind::kThreadPool, &ctx, 3);
    LaneLog log(pool.get());
    OutOfCoreSpec spec;
    spec.chunk_tuples = 1 << 12;
    spec.inner.engine.backend = exec::BackendKind::kThreadPool;
    spec.inner.engine.stream = stream;
    auto report = ExecuteOutOfCore(&log, w, spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->chunked);
    EXPECT_EQ(report->matches, w.expected_matches);
    EXPECT_FALSE(log.events.empty());
    for (const exec::LaunchEvent& e : log.events) {
      EXPECT_EQ(e.device, simcl::DeviceId::kCpu) << e.step;
    }
  }
}

TEST(OutOfCoreTest, ThreadsAndSimBackendsAgreeOnMatches) {
  const data::Workload w = MakeWorkload(1 << 13);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 32.0 * 1024;
  uint64_t matches[2];
  int i = 0;
  for (exec::BackendKind kind :
       {exec::BackendKind::kSim, exec::BackendKind::kThreadPool}) {
    simcl::SimContext ctx(copts);
    OutOfCoreSpec spec;
    spec.chunk_tuples = 1 << 11;
    spec.inner.engine.backend = kind;
    spec.inner.engine.threads = 2;
    auto report = ExecuteOutOfCore(&ctx, w, spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->chunked);
    matches[i++] = report->matches;
  }
  EXPECT_EQ(matches[0], matches[1]);
  EXPECT_EQ(matches[0], w.expected_matches);
}

TEST(OutOfCoreTest, OverflowAggregatesAcrossAllChunkJoins) {
  // A small per-pair result capacity makes (nearly) every partition-pair
  // join drop matches. The aggregated report must carry the drops of every
  // pair — a later pair's join must not clobber an earlier pair's overflow
  // — and matches + dropped must still account for every expected match.
  const data::Workload w = MakeWorkload(1 << 13);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 32.0 * 1024;
  simcl::SimContext ctx(copts);
  OutOfCoreSpec spec;
  spec.chunk_tuples = 1 << 11;
  spec.inner.result_capacity = 1;  // honored per pair
  spec.inner.tolerate_overflow = true;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->chunked);
  EXPECT_GT(report->partitions, 1u);
  EXPECT_TRUE(report->overflowed);
  EXPECT_GT(report->dropped_matches, report->partitions / 2);  // many pairs
  EXPECT_EQ(report->matches + report->dropped_matches, w.expected_matches);
}

TEST(OutOfCoreTest, OverflowHonorsToleranceOnceAtTheEnd) {
  // Without tolerate_overflow the aggregated overflow fails the join — but
  // only after every pair ran, so the error reports the total drops.
  const data::Workload w = MakeWorkload(1 << 13);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 32.0 * 1024;
  simcl::SimContext ctx(copts);
  OutOfCoreSpec spec;
  spec.chunk_tuples = 1 << 11;
  spec.inner.result_capacity = 1;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(report.status().ToString().find("partition pairs"),
            std::string::npos);
}

TEST(OutOfCoreTest, PipelinedSimOverlapsCopyBehindCompute) {
  // Pipelined streaming on the sim backend: identical work (bit-identical
  // partition/join/copy components and matches), with the prefetched
  // staging copies priced as hidden behind the previous chunk's series —
  // so elapsed shrinks by exactly the reported overlap.
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 64.0 * 1024;
  OutOfCoreSpec serial_spec;
  serial_spec.chunk_tuples = 1 << 12;
  OutOfCoreSpec pipe_spec = serial_spec;
  pipe_spec.inner.engine.stream = exec::StreamMode::kPipelined;
  simcl::SimContext ctx1(copts), ctx2(copts);
  auto serial = ExecuteOutOfCore(&ctx1, w, serial_spec);
  auto pipe = ExecuteOutOfCore(&ctx2, w, pipe_spec);
  ASSERT_TRUE(serial.ok() && pipe.ok());
  EXPECT_EQ(serial->matches, w.expected_matches);
  EXPECT_EQ(pipe->matches, serial->matches);
  EXPECT_EQ(pipe->partition_ns, serial->partition_ns);
  EXPECT_EQ(pipe->join_ns, serial->join_ns);
  EXPECT_EQ(pipe->copy_ns, serial->copy_ns);
  EXPECT_EQ(serial->overlap_ns, 0.0);
  EXPECT_EQ(serial->prefetched_chunks, 0u);
  EXPECT_GT(pipe->prefetched_chunks, 0u);
  EXPECT_GT(pipe->overlap_ns, 0.0);
  EXPECT_LT(pipe->elapsed_ns, serial->elapsed_ns);
  EXPECT_NEAR(pipe->elapsed_ns,
              pipe->partition_ns + pipe->join_ns + pipe->copy_ns -
                  pipe->overlap_ns,
              1e-6);
}

TEST(OutOfCoreTest, PipelinedThreadsBackendAgreesWithOracle) {
  // Real async prefetch on the shared pool: every chunk still partitions
  // and joins correctly while staging copies run concurrently.
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 64.0 * 1024;
  simcl::SimContext ctx(copts);
  OutOfCoreSpec spec;
  spec.chunk_tuples = 1 << 12;
  spec.inner.engine.stream = exec::StreamMode::kPipelined;
  spec.inner.engine.backend = exec::BackendKind::kThreadPool;
  spec.inner.engine.threads = 3;
  spec.inner.engine.morsel_items = 64;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->chunked);
  EXPECT_EQ(report->matches, w.expected_matches);
  EXPECT_GT(report->prefetched_chunks, 0u);
  EXPECT_GT(report->wall_ns, 0.0);
  // Measured overlap is the claimed-before-barrier share of the prefetch
  // copies — never more than the prefetches themselves.
  EXPECT_LE(report->overlap_ns, report->prefetch_ns * (1.0 + 1e-9));
  EXPECT_GE(report->overlap_ns, 0.0);
}

TEST(OutOfCoreTest, StreamBudgetBackpressureDisablesPrefetch) {
  // A budget below two chunks' staging bytes vetoes every prefetch: the
  // pipelined executor degrades to serial staging (no prefetched chunks)
  // and still joins correctly.
  const data::Workload w = MakeWorkload(1 << 14);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 64.0 * 1024;
  simcl::SimContext ctx(copts);
  OutOfCoreSpec spec;
  spec.chunk_tuples = 1 << 12;
  spec.inner.engine.stream = exec::StreamMode::kPipelined;
  spec.inner.stream_budget_bytes = 1024;  // < one chunk, let alone two
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->chunked);
  EXPECT_EQ(report->prefetched_chunks, 0u);
  EXPECT_EQ(report->matches, w.expected_matches);
}

TEST(OutOfCoreTest, ExplicitPartitionOverride) {
  const data::Workload w = MakeWorkload(1 << 13);
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = 32.0 * 1024;
  simcl::SimContext ctx(copts);
  OutOfCoreSpec spec;
  spec.partitions = 64;
  spec.chunk_tuples = 1 << 11;
  auto report = ExecuteOutOfCore(&ctx, w, spec);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->partitions, 64u);
  EXPECT_EQ(report->matches, w.expected_matches);
}

}  // namespace
}  // namespace apujoin::coproc
