#include "coproc/step_series.h"

#include <algorithm>
#include <utility>

#include "alloc/latch_model.h"
#include "exec/sim_backend.h"
#include "util/status.h"

namespace apujoin::coproc {

using simcl::DeviceId;
using simcl::StepStats;

namespace {

/// Intermediate-result bytes per item crossing devices between steps of
/// unlike ratios (Eq. 6's communication term).
constexpr double kCommBytesPerItem = 8.0;

/// Under the sim backend, drains the allocator counts, prices them with the
/// latch model and adds them to the step's device times. Real-execution
/// backends already paid these costs inside the measured wall time and
/// never drain.
void ChargeAllocations(exec::Backend* backend,
                       const std::function<alloc::AllocCounts()>& drain,
                       StepStats* stats) {
  if (!drain || backend->kind() != exec::BackendKind::kSim) return;
  const alloc::AllocCounts counts = drain();
  simcl::DeviceTime extra[simcl::kNumDevices];
  alloc::ChargeAllocCounts(*backend->context(), counts, extra);
  for (int d = 0; d < simcl::kNumDevices; ++d) stats->time[d] += extra[d];
}

/// Runs one step series on one partition pair's item range [begin, end) and
/// accumulates timing into `result`.
void RunOnePairSeries(exec::Backend* backend,
                      std::vector<join::StepDef>& steps,
                      const std::vector<double>& ratios,
                      const std::function<alloc::AllocCounts()>& drain,
                      uint64_t begin, uint64_t end, SeriesResult* result) {
  std::vector<double> t_cpu(steps.size(), 0.0);
  std::vector<double> t_gpu(steps.size(), 0.0);
  for (size_t i = 0; i < steps.size(); ++i) {
    StepStats stats = backend->Run(steps[i], ratios[i], begin, end);
    ChargeAllocations(backend, drain, &stats);
    if (steps[i].after) {
      // GPU range of the next step within this pair, for grouping. The
      // hook's contract (steps.h) is a non-empty [begin, end): skip it when
      // the next step runs CPU-only, instead of handing every hook an empty
      // range.
      const uint64_t next_split =
          i + 1 < steps.size() ? exec::CpuSplit(ratios[i + 1], begin, end)
                               : end;
      if (next_split < end) steps[i].after(next_split, end);
    }
    t_cpu[i] = stats.time[0].TotalNs();
    t_gpu[i] = stats.time[1].TotalNs();
    result->lock_ns += stats.LockNs();
    // Aggregate per-step report across pairs.
    StepRun& run = result->steps[i];
    for (int d = 0; d < simcl::kNumDevices; ++d) {
      run.stats.items[d] += stats.items[d];
      run.stats.work[d] += stats.work[d];
      run.stats.time[d] += stats.time[d];
    }
    run.stats.gpu_divergence = stats.gpu_divergence;
  }
  if (backend->kind() != exec::BackendKind::kSim) {
    // Real execution runs the two logical-device lanes back-to-back on the
    // host pool, so this pair's wall time is the sum of all lane times; the
    // concurrent-overlap/pipelined-delay composition only describes the
    // simulated machine.
    for (size_t i = 0; i < steps.size(); ++i) {
      result->cpu_ns += t_cpu[i];
      result->gpu_ns += t_gpu[i];
      result->elapsed_ns += t_cpu[i] + t_gpu[i];
    }
    return;
  }
  cost::CommSpec comm;
  comm.bytes_per_item = kCommBytesPerItem;
  comm.bandwidth_gbps =
      backend->context()->memory().spec().total_bandwidth_gbps;
  const cost::SeriesEstimate pair =
      cost::ComposePipelinedTiming(t_cpu, t_gpu, ratios, end - begin, comm);
  result->cpu_ns += pair.cpu_ns;
  result->gpu_ns += pair.gpu_ns;
  result->comm_ns += pair.comm_ns;
  result->elapsed_ns += pair.elapsed_ns;
}

/// Reports each fused kernel (StepDef::parts) as the steps it ran: one
/// StepRun per part, carrying the kernel's items and its measured time
/// split in proportion to the parts' laps, so the parts sum to the kernel.
void SplitFusedSteps(const std::vector<join::StepDef>& steps,
                     SeriesResult* result) {
  std::vector<StepRun> runs;
  for (size_t i = 0; i < steps.size(); ++i) {
    StepRun& run = result->steps[i];
    if (steps[i].parts == nullptr) {
      runs.push_back(std::move(run));
      continue;
    }
    const std::vector<uint64_t> laps = steps[i].parts->Take();
    double total = 0.0;
    for (uint64_t ns : laps) total += static_cast<double>(ns);
    for (size_t k = 0; k < laps.size(); ++k) {
      const double share =
          total > 0.0 ? static_cast<double>(laps[k]) / total
                      : 1.0 / static_cast<double>(laps.size());
      StepRun part;
      part.name = steps[i].parts->names()[k];
      part.ratio = run.ratio;
      for (int d = 0; d < simcl::kNumDevices; ++d) {
        part.stats.items[d] = run.stats.items[d];
        part.stats.time[d].compute_ns = run.stats.time[d].TotalNs() * share;
      }
      runs.push_back(std::move(part));
    }
  }
  result->steps = std::move(runs);
}

void InitSeriesResult(const std::vector<join::StepDef>& steps,
                      const std::vector<double>& ratios,
                      SeriesResult* result) {
  // Size agreement is the callers' contract, validated with a real Status
  // by the join driver (ValidateRatioOverride) before execution reaches
  // this layer; a mismatch here is a bug, not bad user input.
  APU_CHECK(ratios.size() == steps.size() &&
            "one ratio per step (driver validates before this layer)");
  result->steps.resize(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    result->steps[i].name = steps[i].name;
    result->steps[i].ratio = std::clamp(ratios[i], 0.0, 1.0);
  }
}

}  // namespace

void RunSeriesPairBlockedGroups(
    exec::Backend* backend, std::vector<PairSeriesGroup>& groups,
    const std::function<alloc::AllocCounts()>& drain) {
  if (groups.empty()) return;
  const size_t pairs = groups.front().offsets->size() - 1;
  for (auto& g : groups) {
    APU_CHECK(g.offsets->size() == pairs + 1 &&
              "all groups must partition over the same pair boundaries");
    InitSeriesResult(*g.steps, g.ratios, &g.result);
  }
  for (size_t p = 0; p < pairs; ++p) {
    for (auto& g : groups) {
      const uint64_t begin = (*g.offsets)[p];
      const uint64_t end = (*g.offsets)[p + 1];
      if (end <= begin) continue;
      RunOnePairSeries(backend, *g.steps, g.ratios, drain, begin, end,
                       &g.result);
    }
  }
  for (auto& g : groups) SplitFusedSteps(*g.steps, &g.result);
}

SeriesResult RunSeries(exec::Backend* backend,
                       std::vector<join::StepDef>& steps,
                       const SeriesOptions& opts) {
  const std::vector<uint32_t> whole = {
      0, steps.empty() ? 0 : static_cast<uint32_t>(steps.front().items)};
  std::vector<PairSeriesGroup> one(1);
  one[0].steps = &steps;
  one[0].ratios = opts.ratios;
  one[0].offsets = &whole;
  RunSeriesPairBlockedGroups(backend, one, opts.drain_alloc);
  return std::move(one[0].result);
}

SeriesResult RunSeriesBasicUnit(exec::Backend* backend,
                                std::vector<join::StepDef>& steps,
                                const BasicUnitOptions& opts,
                                double* cpu_ratio_out) {
  SeriesResult result;
  result.steps.resize(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    result.steps[i].name = steps[i].name;
  }
  const uint64_t n = steps.empty() ? 0 : steps.front().items;
  double clock[simcl::kNumDevices] = {0.0, 0.0};
  uint64_t items[simcl::kNumDevices] = {0, 0};
  uint64_t next = 0;
  while (next < n) {
    const DeviceId dev =
        clock[0] <= clock[1] ? DeviceId::kCpu : DeviceId::kGpu;
    const int di = static_cast<int>(dev);
    const uint64_t chunk =
        dev == DeviceId::kCpu ? opts.cpu_chunk : opts.gpu_chunk;
    const uint64_t end = std::min(n, next + chunk);
    double chunk_ns = 0.0;
    for (size_t i = 0; i < steps.size(); ++i) {
      StepStats stats = backend->RunSpan(steps[i], dev, next, end);
      ChargeAllocations(backend, opts.drain_alloc, &stats);
      chunk_ns += stats.time[di].TotalNs();
      result.lock_ns += stats.LockNs();
      // Aggregate into the per-step report.
      result.steps[i].stats.items[di] += stats.items[di];
      result.steps[i].stats.work[di] += stats.work[di];
      result.steps[i].stats.time[di] += stats.time[di];
    }
    clock[di] += chunk_ns + opts.dispatch_overhead_ns;
    items[di] += end - next;
    backend->context()->log().Add(simcl::Phase::kSchedule,
                                  opts.dispatch_overhead_ns);
    next = end;
  }
  result.cpu_ns = clock[0];
  result.gpu_ns = clock[1];
  if (backend->kind() != exec::BackendKind::kSim) {
    // The per-device clocks drive chunk scheduling either way, but real
    // chunks executed one after another — wall time is the sum.
    result.elapsed_ns = clock[0] + clock[1];
  } else {
    result.elapsed_ns = std::max(clock[0], clock[1]);
  }
  if (cpu_ratio_out != nullptr) {
    *cpu_ratio_out =
        n == 0 ? 0.0
               : static_cast<double>(items[0]) / static_cast<double>(n);
  }
  SplitFusedSteps(steps, &result);
  return result;
}

// ---------------------------------------------------------------------------
// SimContext conveniences: wrap the context in a SimBackend on the spot.
// ---------------------------------------------------------------------------

SeriesResult RunSeries(simcl::SimContext* ctx,
                       std::vector<join::StepDef>& steps,
                       const SeriesOptions& opts) {
  exec::SimBackend backend(ctx);
  return RunSeries(&backend, steps, opts);
}

SeriesResult RunSeriesBasicUnit(simcl::SimContext* ctx,
                                std::vector<join::StepDef>& steps,
                                const BasicUnitOptions& opts,
                                double* cpu_ratio_out) {
  exec::SimBackend backend(ctx);
  return RunSeriesBasicUnit(&backend, steps, opts, cpu_ratio_out);
}

}  // namespace apujoin::coproc
