#include "coproc/out_of_core.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "coproc/pipeline_runner.h"
#include "coproc/ratio_policy.h"
#include "join/radix_partition.h"

namespace apujoin::coproc {

using apujoin::Status;
using apujoin::StatusOr;
using join::StepDef;
using simcl::Phase;

namespace {

using Clock = std::chrono::steady_clock;

inline double ElapsedNs(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Slices [0, items) into chunk-sized morsels — the unit the out-of-core
/// path streams through the zero-copy buffer, one Morsel per partition run.
/// chunk_tuples = 0 is treated as one whole-input chunk (nothing anywhere
/// validates the spec field, so it must not hang the slicing loop).
std::vector<join::Morsel> ChunkMorsels(uint64_t items, uint64_t chunk_tuples) {
  if (chunk_tuples == 0) chunk_tuples = items;
  std::vector<join::Morsel> morsels;
  morsels.reserve(items / std::max<uint64_t>(1, chunk_tuples) + 1);
  for (uint64_t base = 0; base < items; base += chunk_tuples) {
    morsels.push_back(
        join::Morsel{base, std::min(items, base + chunk_tuples)});
  }
  return morsels;
}

/// Staged bytes of one chunk morsel (keys + rids).
double ChunkBytes(const join::Morsel& cm) {
  return static_cast<double>(cm.size()) *
         static_cast<double>(sizeof(int32_t) * 2);
}

/// Stages rel[cm.begin, cm.end) into `dst` on the calling thread and
/// charges the zero-copy buffer transfer — the serial staging primitive of
/// both executors (and the pipelined executor's back-pressure fallback).
void StageChunkSerial(simcl::SimContext* ctx, const data::Relation& rel,
                      const join::Morsel& cm, data::Relation* dst,
                      OutOfCoreReport* report) {
  dst->keys.assign(rel.keys.begin() + static_cast<int64_t>(cm.begin),
                   rel.keys.begin() + static_cast<int64_t>(cm.end));
  dst->rids.assign(rel.rids.begin() + static_cast<int64_t>(cm.begin),
                   rel.rids.begin() + static_cast<int64_t>(cm.end));
  report->copy_ns += ctx->memory().BufferCopyNs(dst->bytes());
}

/// Runs all partition passes of one staged chunk through the shared n1..n3
/// series path and bulk-appends its partitions into `out`, charging
/// partition and copy-out time into `report`. Returns the summed series
/// elapsed time — the compute window a prefetch can hide behind.
StatusOr<double> PartitionOneChunk(exec::Backend* backend,
                                   const data::Relation& chunk,
                                   uint32_t parts,
                                   const join::EngineOptions& opts,
                                   std::vector<data::Relation>* out,
                                   OutOfCoreReport* report) {
  simcl::SimContext* ctx = backend->context();
  cost::CommSpec comm;
  comm.bandwidth_gbps = ctx->memory().spec().total_bandwidth_gbps;

  join::RadixPlan plan = join::RadixPlan::Make(
      chunk.size(), chunk.size(), ctx->memory().spec().l2_bytes, opts);
  join::RadixPartitioner part(ctx, &chunk, plan, opts);
  APU_RETURN_IF_ERROR(part.Prepare());
  cost::WorkloadStats stats;
  stats.build_tuples = chunk.size();
  stats.probe_tuples = chunk.size();
  stats.buckets = parts;
  stats.distinct_keys = static_cast<double>(chunk.size());
  double series_ns = 0.0;
  for (int pass = 0; pass < part.passes(); ++pass) {
    part.BeginPass(pass);
    std::vector<StepDef> steps = part.PassSteps(pass);
    // Chunk passes divide data (DD) on the sim; no overrides apply.
    auto nplan = PlanSeries(*backend, "partition", Scheme::kDataDivide,
                            steps, stats, chunk.size(), comm, {});
    if (!nplan.ok()) return nplan.status();
    SeriesOptions sopts;
    sopts.ratios = std::move(nplan->ratios);
    sopts.drain_alloc = [&part]() { return part.TakeCounts(); };
    const SeriesResult res = RunSeries(backend, steps, sopts);
    report->partition_ns += res.elapsed_ns;
    series_ns += res.elapsed_ns;
    part.EndPass(pass);
  }
  // Copy the intermediate partitions out to system memory: one bulk append
  // per contiguous partition range (they are contiguous in the
  // partitioner's output by construction).
  report->copy_ns += ctx->memory().BufferCopyNs(chunk.bytes());
  const auto& offsets = part.offsets();
  const data::Relation& pt = part.output();
  for (uint32_t p = 0; p < parts; ++p) {
    data::Relation& dst = (*out)[p];
    dst.keys.insert(dst.keys.end(), pt.keys.begin() + offsets[p],
                    pt.keys.begin() + offsets[p + 1]);
    dst.rids.insert(dst.rids.end(), pt.rids.begin() + offsets[p],
                    pt.rids.begin() + offsets[p + 1]);
  }
  return series_ns;
}

/// Radix-partitions `rel` morsel-by-morsel through the zero-copy buffer
/// into `parts` buckets, appending each morsel's partitions into `out` and
/// adding copy/partition time to `report`. Each chunk morsel runs the same
/// n1..n3 step series — and hence the same backend scheduling path — as an
/// in-core partition pass; there is no bespoke per-tuple loop here.
/// Staging is strictly serial: copy chunk k in, partition it, copy its
/// partitions out, only then touch chunk k+1.
Status PartitionChunked(exec::Backend* backend, const data::Relation& rel,
                        uint32_t parts, uint64_t chunk_tuples,
                        const JoinSpec& inner,
                        std::vector<data::Relation>* out,
                        OutOfCoreReport* report) {
  simcl::SimContext* ctx = backend->context();
  join::EngineOptions opts = inner.engine;
  opts.partitions = parts;

  for (const join::Morsel& cm : ChunkMorsels(rel.size(), chunk_tuples)) {
    data::Relation chunk;
    StageChunkSerial(ctx, rel, cm, &chunk, report);
    auto series = PartitionOneChunk(backend, chunk, parts, opts, out, report);
    if (!series.ok()) return series.status();
  }
  return Status::OK();
}

/// Batch kernel that stages one chunk morsel of `rel` into a staging
/// buffer: a plain range memcpy per morsel, so the thread-pool backend can
/// spread the copy across its workers while the submitter runs something
/// else. The profile prices it as a streamed read + write per tuple for
/// backends that model rather than measure.
StepDef MakeStageStep(const data::Relation& rel, const join::Morsel& cm,
                      data::Relation* dst) {
  StepDef step;
  step.name = "stage";
  step.profile.instr_per_unit = 2.0;
  step.profile.seq_bytes_per_item = 2.0 * sizeof(int32_t) * 2;  // read+write
  step.items = cm.size();
  const int32_t* src_keys = rel.keys.data() + cm.begin;
  const int32_t* src_rids = rel.rids.data() + cm.begin;
  int32_t* dst_keys = dst->keys.data();
  int32_t* dst_rids = dst->rids.data();
  step.run = [src_keys, src_rids, dst_keys, dst_rids](
                 const join::Morsel& m, simcl::DeviceId,
                 uint32_t* lane_work) -> uint64_t {
    const size_t n = static_cast<size_t>(m.size());
    std::memcpy(dst_keys + m.begin, src_keys + m.begin, n * sizeof(int32_t));
    std::memcpy(dst_rids + m.begin, src_rids + m.begin, n * sizeof(int32_t));
    return join::ConstantWork(lane_work, m);
  };
  return step;
}

/// Double-buffered pipelined staging: while chunk k runs its n1..n3
/// partition series on the backend, chunk k+1 is staged into the second
/// buffer by an async prefetch span (Backend::SubmitSpan). On the
/// thread-pool backend the overlap is real — pool workers memcpy the next
/// chunk while the submitting thread drives the series; on the sim backend
/// the copy executes at submit time and the overlap is priced analytically
/// (copy of chunk k+1 hides behind the series of chunk k, up to the
/// shorter of the two). JoinSpec::stream_budget_bytes bounds the bytes in
/// flight: when current + next chunk would exceed it, the prefetch is
/// skipped and that chunk stages serially (back-pressure).
Status PartitionChunkedPipelined(exec::Backend* backend,
                                 const data::Relation& rel, uint32_t parts,
                                 uint64_t chunk_tuples, const JoinSpec& inner,
                                 std::vector<data::Relation>* out,
                                 OutOfCoreReport* report) {
  if (rel.empty()) return Status::OK();  // the serial path loops zero times
  simcl::SimContext* ctx = backend->context();
  const bool sim = backend->kind() == exec::BackendKind::kSim;
  join::EngineOptions opts = inner.engine;
  opts.partitions = parts;
  const std::vector<join::Morsel> chunks =
      ChunkMorsels(rel.size(), chunk_tuples);

  // Stage chunk 0 on the calling thread — there is nothing to hide it
  // behind yet.
  data::Relation stage[2];
  StageChunkSerial(ctx, rel, chunks[0], &stage[0], report);

  StepDef stage_step;  // must outlive the in-flight handle
  std::unique_ptr<exec::Backend::JobHandle> prefetch;
  double prefetch_copy_ns = 0.0;  // analytic cost of the in-flight prefetch

  for (size_t k = 0; k < chunks.size(); ++k) {
    const size_t cur = k & 1;
    // Kick off the async staging of chunk k+1 under the in-flight budget.
    if (k + 1 < chunks.size()) {
      const join::Morsel& nm = chunks[k + 1];
      const double in_flight = ChunkBytes(chunks[k]) + ChunkBytes(nm);
      if (inner.stream_budget_bytes == 0 ||
          in_flight <= static_cast<double>(inner.stream_budget_bytes)) {
        data::Relation* nbuf = &stage[1 - cur];
        nbuf->keys.resize(nm.size());
        nbuf->rids.resize(nm.size());
        stage_step = MakeStageStep(rel, nm, nbuf);
        prefetch = backend->SubmitSpan(stage_step, simcl::DeviceId::kCpu, 0,
                                       nm.size());
        prefetch_copy_ns = ctx->memory().BufferCopyNs(ChunkBytes(nm));
        ++report->prefetched_chunks;
      }
    }

    auto series =
        PartitionOneChunk(backend, stage[cur], parts, opts, out, report);
    if (!series.ok()) {
      // Never abandon an in-flight prefetch: its job (and staging buffers)
      // live on this stack frame and pool workers may still be in it.
      if (prefetch != nullptr) backend->Wait(prefetch.get());
      return series.status();
    }

    if (prefetch != nullptr) {
      // Pipeline barrier: chunk k+1 must be fully staged before its series
      // starts. The waiting thread helps finish the copy if needed.
      double done_fraction = 1.0;
      backend->Wait(prefetch.get(), &done_fraction);
      prefetch.reset();
      report->copy_ns += prefetch_copy_ns;
      report->prefetch_ns += prefetch_copy_ns;
      if (sim) {
        // Analytic composition: the prefetched copy hides behind the
        // previous chunk's series, up to the shorter of the two.
        report->overlap_ns += std::min(prefetch_copy_ns, *series);
      } else {
        // Real backends measure how much of the span the pool had claimed
        // by the time the barrier was reached — that share overlapped the
        // series for real — and price it at the same copy rate as copy_ns,
        // keeping overlap_ns unit-consistent with what it is subtracted
        // from.
        report->overlap_ns += done_fraction * prefetch_copy_ns;
      }
    } else if (k + 1 < chunks.size()) {
      // Budget back-pressure: the current chunk has left the buffer, so
      // drop its staging allocation *before* serially staging the next —
      // otherwise both buffers keep chunk-sized capacity alive and the
      // budget would bound nothing.
      stage[cur] = data::Relation();
      StageChunkSerial(ctx, rel, chunks[k + 1], &stage[1 - cur], report);
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<OutOfCoreReport> ExecuteOutOfCore(exec::Backend* backend,
                                           const data::Workload& workload,
                                           const OutOfCoreSpec& spec) {
  const auto wall0 = Clock::now();
  simcl::SimContext* ctx = backend->context();
  OutOfCoreReport report;
  const double total_bytes = static_cast<double>(workload.build.bytes()) +
                             static_cast<double>(workload.probe.bytes());
  const double buffer = ctx->memory().spec().zero_copy_bytes;

  if (total_bytes * 1.25 <= buffer) {
    // Fits in the zero-copy buffer: plain in-core join.
    auto rep = ExecutePlan(backend, MakeSingleJoinPlan(workload, spec.inner));
    if (!rep.ok()) return rep.status();
    report.elapsed_ns = rep->elapsed_ns;
    report.partition_ns = rep->breakdown.Get(Phase::kPartition);
    report.join_ns = rep->elapsed_ns - report.partition_ns;
    report.matches = rep->matches;
    report.overflowed = rep->overflowed;
    report.dropped_matches = rep->dropped_matches;
    report.chunked = false;
    report.wall_ns = ElapsedNs(wall0);
    return report;
  }

  report.chunked = true;
  uint32_t parts = spec.partitions;
  if (parts == 0) {
    parts = 1;
    // One partition pair (plus join state, ~3x) must fit the buffer.
    while (parts < (1u << 16) &&
           total_bytes * 3.0 / static_cast<double>(parts) > buffer) {
      parts <<= 1;
    }
  }
  report.partitions = parts;

  const bool pipelined =
      spec.inner.engine.stream == exec::StreamMode::kPipelined;
  const bool sim = backend->kind() == exec::BackendKind::kSim;
  auto partition_fn = pipelined ? &PartitionChunkedPipelined
                                : &PartitionChunked;
  std::vector<data::Relation> r_parts(parts);
  std::vector<data::Relation> s_parts(parts);
  APU_RETURN_IF_ERROR(partition_fn(backend, workload.build, parts,
                                   spec.chunk_tuples, spec.inner, &r_parts,
                                   &report));
  APU_RETURN_IF_ERROR(partition_fn(backend, workload.probe, parts,
                                   spec.chunk_tuples, spec.inner, &s_parts,
                                   &report));

  // Join each linked partition pair inside the buffer. Overflow is
  // aggregated across every pair — a later pair's clean join must not
  // clobber an earlier pair's drops — and tolerate_overflow is honored
  // once, after all pairs ran.
  double prev_join_window_ns = 0.0;  // join time of the previously joined pair
  for (uint32_t p = 0; p < parts; ++p) {
    if (r_parts[p].empty() || s_parts[p].empty()) continue;
    data::Workload pair;
    pair.build = std::move(r_parts[p]);
    pair.probe = std::move(s_parts[p]);
    pair.spec = workload.spec;
    pair.expected_matches = pair.probe.size();  // FK-join upper bound
    const double pair_copy_ns = ctx->memory().BufferCopyNs(
        static_cast<double>(pair.build.bytes() + pair.probe.bytes()));
    report.copy_ns += pair_copy_ns;
    JoinSpec inner = spec.inner;
    // Per-pair overflow must not abort mid-stream: aggregate every pair's
    // counts and apply the caller's tolerance to the total below.
    inner.tolerate_overflow = true;
    auto rep = ExecutePlan(backend, MakeSingleJoinPlan(pair, inner));
    if (!rep.ok()) return rep.status();
    const double pair_join_ns =
        rep->elapsed_ns - rep->breakdown.Get(Phase::kPartition);
    report.join_ns += pair_join_ns;
    report.partition_ns += rep->breakdown.Get(Phase::kPartition);
    report.matches += rep->matches;
    report.overflowed |= rep->overflowed;
    report.dropped_matches += rep->dropped_matches;
    if (pipelined && sim) {
      // Pair staging pipelines the same way the chunk staging does: pair
      // p's copy into the buffer hides behind pair p-1's join window (the
      // first joined pair has nothing ahead of it to hide behind). Priced
      // on the sim backend only — real backends keep overlap_ns a pure
      // wall-clock measurement of the chunk prefetches.
      if (prev_join_window_ns > 0.0) {
        report.prefetch_ns += pair_copy_ns;  // hideable: a pair ran ahead
        report.overlap_ns += std::min(pair_copy_ns, prev_join_window_ns);
      }
      prev_join_window_ns = pair_join_ns;
    }
  }
  report.elapsed_ns = report.partition_ns + report.join_ns + report.copy_ns -
                      report.overlap_ns;
  report.wall_ns = ElapsedNs(wall0);
  if (report.overflowed && !spec.inner.tolerate_overflow) {
    return Status::ResourceExhausted(
        "out-of-core join overflowed: " +
        std::to_string(report.dropped_matches) + " of " +
        std::to_string(report.matches + report.dropped_matches) +
        " matches dropped across " + std::to_string(parts) +
        " partition pairs (raise JoinSpec::result_capacity or set "
        "tolerate_overflow)");
  }
  return report;
}

StatusOr<OutOfCoreReport> ExecuteOutOfCore(simcl::SimContext* ctx,
                                           const data::Workload& workload,
                                           const OutOfCoreSpec& spec) {
  const std::unique_ptr<exec::Backend> backend =
      exec::MakeBackend(spec.inner.engine.backend, ctx,
                        spec.inner.engine.threads,
                        spec.inner.engine.morsel_items);
  return ExecuteOutOfCore(backend.get(), workload, spec);
}

}  // namespace apujoin::coproc
