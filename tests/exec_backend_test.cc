// Unit tests for the exec layer: the SimBackend adapter must be
// arithmetically identical to driving simcl::Executor's historical
// per-item path directly (the morsel-ABI bit-identity gate), and the
// ThreadPoolBackend must execute every item exactly once with real
// wall-clock timing, morsel-driven balancing, and per-worker counters.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "exec/backend.h"
#include "exec/sim_backend.h"
#include "exec/thread_pool_backend.h"
#include "per_item_kernel.h"

namespace apujoin::exec {
namespace {

using simcl::DeviceId;

join::StepDef MakeStep(uint64_t items, std::atomic<uint64_t>* counter,
                       uint32_t work_per_item = 1) {
  join::StepDef step;
  step.name = "t1";
  step.profile.instr_per_unit = 25.0;
  step.profile.rand_accesses_per_unit = 0.5;
  step.profile.rand_working_set_bytes = 1 << 20;
  step.items = items;
  step.run = join::PerItemKernel(
      [counter, work_per_item](uint64_t, DeviceId) -> uint32_t {
        counter->fetch_add(1, std::memory_order_relaxed);
        return work_per_item;
      });
  return step;
}

TEST(BackendKindTest, ParsesFlagValues) {
  BackendKind kind = BackendKind::kSim;
  EXPECT_TRUE(ParseBackendKind("threads", &kind));
  EXPECT_EQ(kind, BackendKind::kThreadPool);
  EXPECT_TRUE(ParseBackendKind("sim", &kind));
  EXPECT_EQ(kind, BackendKind::kSim);
  EXPECT_FALSE(ParseBackendKind("opencl", &kind));
  EXPECT_FALSE(ParseBackendKind(nullptr, &kind));
  EXPECT_EQ(kind, BackendKind::kSim);  // untouched on failure
}

TEST(SimBackendTest, RunMatchesExecutorBitForBit) {
  simcl::SimContext ctx;
  std::atomic<uint64_t> c1{0};
  std::atomic<uint64_t> c2{0};
  join::StepDef step1 = MakeStep(10000, &c1, 3);
  const join::StepDef step2 = MakeStep(10000, &c2, 3);

  SimBackend backend(&ctx);
  const simcl::StepStats via_backend = backend.Run(step1, 0.37);
  // The historical per-item execution path, composed exactly like
  // Backend::Run splits the span — the morsel ABI must not move a ULP.
  simcl::Executor exec(&ctx);
  const uint64_t n_cpu = static_cast<uint64_t>(
      0.37 * static_cast<double>(step2.items) + 0.5);
  auto per_item = [&c2](uint64_t, DeviceId) -> uint32_t {
    c2.fetch_add(1, std::memory_order_relaxed);
    return 3;
  };
  const simcl::StepStats cpu_part =
      exec.RunSpan(DeviceId::kCpu, step2.profile, 0, n_cpu, per_item);
  const simcl::StepStats gpu_part = exec.RunSpan(
      DeviceId::kGpu, step2.profile, n_cpu, step2.items, per_item);
  simcl::StepStats direct;
  for (int d = 0; d < simcl::kNumDevices; ++d) {
    direct.items[d] = cpu_part.items[d] + gpu_part.items[d];
    direct.work[d] = cpu_part.work[d] + gpu_part.work[d];
    direct.time[d] += cpu_part.time[d];
    direct.time[d] += gpu_part.time[d];
  }
  direct.gpu_divergence = gpu_part.gpu_divergence;

  for (int d = 0; d < simcl::kNumDevices; ++d) {
    EXPECT_EQ(via_backend.items[d], direct.items[d]);
    EXPECT_EQ(via_backend.work[d], direct.work[d]);
    EXPECT_EQ(via_backend.time[d].compute_ns, direct.time[d].compute_ns);
    EXPECT_EQ(via_backend.time[d].memory_ns, direct.time[d].memory_ns);
    EXPECT_EQ(via_backend.time[d].atomic_ns, direct.time[d].atomic_ns);
    EXPECT_EQ(via_backend.time[d].lock_ns, direct.time[d].lock_ns);
  }
  EXPECT_EQ(via_backend.gpu_divergence, direct.gpu_divergence);
  EXPECT_EQ(c1.load(), 10000u);
}

TEST(SimBackendTest, TracingIsOffByDefault) {
  simcl::SimContext ctx;
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(1000, &c);
  SimBackend backend(&ctx);
  backend.Run(step, 0.5);
  EXPECT_TRUE(backend.DrainEvents().empty());
}

TEST(SimBackendTest, RecordsLaunchEvents) {
  simcl::SimContext ctx;
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(1000, &c);
  SimBackend backend(&ctx);
  backend.set_trace(true);
  backend.Run(step, 0.5);
  const std::vector<LaunchEvent> events = backend.DrainEvents();
  ASSERT_EQ(events.size(), 2u);  // one per device slice
  EXPECT_EQ(events[0].device, DeviceId::kCpu);
  EXPECT_EQ(events[0].begin, 0u);
  EXPECT_EQ(events[0].end, 500u);
  EXPECT_EQ(events[1].device, DeviceId::kGpu);
  EXPECT_EQ(events[1].end, 1000u);
  EXPECT_GT(events[0].elapsed_ns, 0.0);
  EXPECT_TRUE(backend.DrainEvents().empty());  // drained
}

TEST(SimBackendTest, EmptySliceRecordsNothing) {
  simcl::SimContext ctx;
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(1000, &c);
  SimBackend backend(&ctx);
  backend.set_trace(true);
  backend.Run(step, 1.0);  // CPU-only: GPU slice is empty
  EXPECT_EQ(backend.DrainEvents().size(), 1u);
}

TEST(ThreadPoolBackendTest, ExecutesEveryItemExactlyOnce) {
  simcl::SimContext ctx;
  ThreadPoolOptions opts;
  opts.threads = 4;
  opts.morsel_items = 64;
  ThreadPoolBackend backend(&ctx, opts);

  constexpr uint64_t kItems = 100000;
  std::vector<std::atomic<uint32_t>> hits(kItems);
  join::StepDef step;
  step.name = "count";
  step.items = kItems;
  step.run = join::PerItemKernel([&hits](uint64_t i, DeviceId) -> uint32_t {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return 2;
  });

  const simcl::StepStats stats = backend.Run(step, 0.5);
  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "item " << i;
  }
  EXPECT_EQ(stats.items[0] + stats.items[1], kItems);
  EXPECT_EQ(stats.work[0] + stats.work[1], 2 * kItems);
  EXPECT_GT(stats.time[0].compute_ns, 0.0);  // real wall clock
  EXPECT_GT(stats.time[1].compute_ns, 0.0);
  EXPECT_EQ(stats.time[0].memory_ns, 0.0);   // folded into wall time
  EXPECT_EQ(stats.gpu_divergence, 1.0);      // no SIMD emulation
}

TEST(ThreadPoolBackendTest, KernelsSeeTheLogicalDevice) {
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {2, 32});
  std::atomic<uint64_t> cpu_items{0};
  std::atomic<uint64_t> gpu_items{0};
  join::StepDef step;
  step.name = "dev";
  step.items = 10000;
  step.run = join::PerItemKernel([&](uint64_t, DeviceId dev) -> uint32_t {
    (dev == DeviceId::kCpu ? cpu_items : gpu_items)
        .fetch_add(1, std::memory_order_relaxed);
    return 1;
  });
  backend.Run(step, 0.25);
  EXPECT_EQ(cpu_items.load(), 2500u);
  EXPECT_EQ(gpu_items.load(), 7500u);
}

TEST(ThreadPoolBackendTest, WorkerCountersCoverAllItems) {
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {3, 16});
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(30000, &c, 5);
  backend.RunSpan(step, DeviceId::kCpu, 0, 30000);

  uint64_t items = 0;
  uint64_t work = 0;
  uint64_t morsels = 0;
  for (const WorkerCounters& wc : backend.TakeCounters()) {
    items += wc.items;
    work += wc.work;
    morsels += wc.morsels;
  }
  EXPECT_EQ(items, 30000u);
  EXPECT_EQ(work, 5 * 30000u);
  // Every item arrived via a shared-cursor morsel claim.
  EXPECT_EQ(morsels, (30000u + 15u) / 16u);
  // Drained: a second take is all zeros.
  for (const WorkerCounters& wc : backend.TakeCounters()) {
    EXPECT_EQ(wc.items, 0u);
  }
}

TEST(ThreadPoolBackendTest, SingleThreadPoolWorks) {
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {1});
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(5000, &c);
  const simcl::StepStats stats =
      backend.RunSpan(step, DeviceId::kGpu, 1000, 5000);
  EXPECT_EQ(c.load(), 4000u);
  EXPECT_EQ(stats.items[1], 4000u);
  EXPECT_EQ(stats.items[0], 0u);
}

TEST(ThreadPoolBackendTest, SkewedKernelGetsRebalanced) {
  // The first quarter of the range is heavy; morsel-driven distribution
  // (shared cursor, whoever is free pulls next) must still execute every
  // item exactly once with no worker pinned to the hot region.
  simcl::SimContext ctx;
  ThreadPoolOptions opts;
  opts.threads = 4;
  opts.morsel_items = 8;
  ThreadPoolBackend backend(&ctx, opts);
  std::atomic<uint64_t> c{0};
  join::StepDef step;
  step.name = "skew";
  step.items = 1 << 14;
  step.run = join::PerItemKernel([&c](uint64_t i, DeviceId) -> uint32_t {
    // Burn time on the first quarter of the range.
    if (i < (1u << 12)) {
      volatile uint64_t x = 0;
      for (int k = 0; k < 2000; ++k) x += k;
    }
    c.fetch_add(1, std::memory_order_relaxed);
    return 1;
  });
  backend.RunSpan(step, DeviceId::kCpu, 0, step.items);
  EXPECT_EQ(c.load(), step.items);
}

TEST(ThreadPoolBackendTest, NormalizesZeroAndNegativeThreadCounts) {
  simcl::SimContext ctx;
  // 0 = hardware concurrency; never less than one worker.
  ThreadPoolBackend auto_pool(&ctx, {0});
  EXPECT_GE(auto_pool.threads(), 1);

  // Negative requests must not underflow into a threadless (or gigantic)
  // pool; they normalize exactly like 0 and still execute correctly.
  ThreadPoolBackend neg_pool(&ctx, {-7});
  EXPECT_GE(neg_pool.threads(), 1);
  EXPECT_EQ(neg_pool.threads(), auto_pool.threads());
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(10000, &c);
  const simcl::StepStats stats = neg_pool.Run(step, 0.5);
  EXPECT_EQ(c.load(), 10000u);
  EXPECT_EQ(stats.items[0] + stats.items[1], 10000u);
}

TEST(ThreadPoolBackendTest, OversizedMorselRunsMonolithicWithoutPoolTraffic) {
  // A span no larger than one morsel must not round-trip through the
  // shared-cursor path: it runs as one monolithic morsel on the submitting
  // thread (slot 0), with no pool hand-off.
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {4, 1 << 20});
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(1000, &c, 2);
  const simcl::StepStats stats =
      backend.RunSpan(step, DeviceId::kCpu, 0, 1000);
  EXPECT_EQ(c.load(), 1000u);
  EXPECT_EQ(stats.work[0], 2000u);
  const std::vector<WorkerCounters> wc = backend.TakeCounters();
  EXPECT_EQ(wc[0].items, 1000u);
  EXPECT_EQ(wc[0].morsels, 1u);
  for (size_t i = 1; i < wc.size(); ++i) {
    EXPECT_EQ(wc[i].items, 0u) << "worker " << i << " touched the span";
  }
}

TEST(ThreadPoolBackendTest, ClampsMorselOptionToParserBound) {
  simcl::SimContext ctx;
  ThreadPoolBackend backend(
      &ctx, {1, 1u << 30});  // beyond --morsel max
  EXPECT_EQ(backend.morsel_items(),
            static_cast<uint32_t>(kMaxMorselItems));
}

TEST(MorselFlagTest, RejectsValuesAboveDocumentedMax) {
  unsigned morsel = 7;
  EXPECT_EQ(ParseMorselFlag("--morsel=16777216", &morsel), FlagParse::kOk);
  EXPECT_EQ(morsel, static_cast<unsigned>(kMaxMorselItems));
  EXPECT_EQ(ParseMorselFlag("--morsel=16777217", &morsel),
            FlagParse::kInvalid);
  EXPECT_EQ(morsel, static_cast<unsigned>(kMaxMorselItems));  // untouched
}

TEST(ThreadPoolBackendTest, SubmitSpanOverlapsWithSubmitterSpans) {
  // Async submit: the prefetch span and the submitter's own span both
  // execute, every item exactly once, while potentially in flight together.
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {3, 64});
  constexpr uint64_t kItems = 20000;
  std::vector<std::atomic<uint32_t>> hits(kItems);
  join::StepDef async_step;
  async_step.name = "prefetch";
  async_step.items = kItems;
  async_step.run =
      join::PerItemKernel([&hits](uint64_t i, DeviceId) -> uint32_t {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        return 1;
      });
  std::atomic<uint64_t> fg{0};
  join::StepDef fg_step = MakeStep(30000, &fg, 1);

  auto handle =
      backend.SubmitSpan(async_step, DeviceId::kCpu, 0, kItems, 2);
  const simcl::StepStats fg_stats =
      backend.RunSpan(fg_step, DeviceId::kCpu, 0, 30000);
  const simcl::StepStats async_stats = backend.Wait(handle.get());

  EXPECT_EQ(fg.load(), 30000u);
  EXPECT_EQ(fg_stats.items[0], 30000u);
  EXPECT_EQ(async_stats.items[0], kItems);
  EXPECT_EQ(async_stats.work[0], kItems);
  EXPECT_GT(async_stats.time[0].compute_ns, 0.0);
  for (uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "item " << i;
  }
}

TEST(ThreadPoolBackendTest, SubmitSpanCompletesOnSingleThreadPool) {
  // No pool workers exist: Wait itself must drain the submitted span.
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {1, 32});
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(5000, &c, 3);
  auto handle = backend.SubmitSpan(step, DeviceId::kGpu, 0, 5000);
  const simcl::StepStats stats = backend.Wait(handle.get());
  EXPECT_EQ(c.load(), 5000u);
  EXPECT_EQ(stats.items[1], 5000u);
  EXPECT_EQ(stats.work[1], 3 * 5000u);
}

TEST(ThreadPoolBackendTest, DroppingHandleWithoutWaitCancelsSafely) {
  // A handle destroyed before Wait (exception unwind in a caller) must not
  // leave a dangling job in the pool; the backend stays fully serviceable.
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {3, 16});
  std::atomic<uint64_t> dropped_work{0};
  join::StepDef dropped_step = MakeStep(100000, &dropped_work);
  {
    auto handle = backend.SubmitSpan(dropped_step, DeviceId::kCpu, 0, 100000);
    (void)handle;  // destroyed without Wait
  }
  // Cancelled: whatever morsels were claimed finished; nothing dangles, so
  // a fresh span distributes and completes normally.
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(20000, &c, 1);
  const simcl::StepStats stats = backend.RunSpan(step, DeviceId::kCpu, 0,
                                                 20000);
  EXPECT_EQ(c.load(), 20000u);
  EXPECT_EQ(stats.items[0], 20000u);
  EXPECT_LE(dropped_work.load(), 100000u);
}

TEST(ThreadPoolBackendTest, SubmitSpanOnEmptyRangeIsANoOp) {
  simcl::SimContext ctx;
  ThreadPoolBackend backend(&ctx, {2});
  std::atomic<uint64_t> c{0};
  join::StepDef step = MakeStep(100, &c);
  auto handle = backend.SubmitSpan(step, DeviceId::kCpu, 50, 50);
  const simcl::StepStats stats = backend.Wait(handle.get());
  EXPECT_EQ(c.load(), 0u);
  EXPECT_EQ(stats.items[0], 0u);
}

TEST(SimBackendTest, SubmitSpanIsSynchronousAndPriced) {
  // The default (sim) submit runs at submit time; Wait hands back the same
  // virtual-ns stats RunSpan would have produced.
  simcl::SimContext ctx1, ctx2;
  std::atomic<uint64_t> c1{0}, c2{0};
  join::StepDef step1 = MakeStep(4000, &c1, 2);
  join::StepDef step2 = MakeStep(4000, &c2, 2);
  SimBackend a(&ctx1), b(&ctx2);
  auto handle = a.SubmitSpan(step1, DeviceId::kGpu, 0, 4000);
  EXPECT_EQ(c1.load(), 4000u);  // already executed
  const simcl::StepStats async_stats = a.Wait(handle.get());
  const simcl::StepStats sync_stats = b.RunSpan(step2, DeviceId::kGpu, 0, 4000);
  EXPECT_EQ(async_stats.items[1], sync_stats.items[1]);
  EXPECT_EQ(async_stats.work[1], sync_stats.work[1]);
  EXPECT_EQ(async_stats.time[1].TotalNs(), sync_stats.time[1].TotalNs());
}

TEST(MakeBackendTest, BuildsSelectedKind) {
  simcl::SimContext ctx;
  EXPECT_EQ(MakeBackend(BackendKind::kSim, &ctx)->kind(), BackendKind::kSim);
  EXPECT_EQ(MakeBackend(BackendKind::kThreadPool, &ctx, 2)->kind(),
            BackendKind::kThreadPool);
}

}  // namespace
}  // namespace apujoin::exec
