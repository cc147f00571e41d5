#include "coproc/coarse_grained.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "alloc/latch_model.h"
#include "coproc/ratio_policy.h"
#include "cost/calibration.h"
#include "join/key_words.h"
#include "join/partitioned_hash_join.h"
#include "join/result_writer.h"
#include "join/simple_hash_join.h"

namespace apujoin::coproc {

using apujoin::Status;
using apujoin::StatusOr;
using join::StepDef;
using simcl::DeviceId;
using simcl::Phase;

namespace {

/// Incremental per-pair SHJ: pairs advance in fixed tuple quanta so that a
/// device's concurrently-running pair joins interleave their memory
/// accesses — the concurrency pattern that thrashes the shared L2. One
/// PairJoin instance is one coarse work item. The tuple loop is written
/// once per key width (AdvanceAs<kWide>); the width is picked once, at
/// construction.
class PairJoin {
 public:
  PairJoin(const data::Relation& r, const data::Relation& s,
           uint32_t r_begin, uint32_t r_end, uint32_t s_begin,
           uint32_t s_end, join::NodePools* pools, join::ResultWriter* out,
           simcl::CacheSim* cache, uint32_t part_bits)
      : rk_{r.key_schema, r.keys.data(), r.key_hi.data()},
        r_rids_(r.rids.data()),
        sk_{s.key_schema, s.keys.data(), s.key_hi.data()},
        s_rids_(s.rids.data()),
        r_cur_(r_begin), r_end_(r_end), s_cur_(s_begin), s_end_(s_end),
        pools_(pools), out_(out), part_bits_(part_bits),
        advance_(data::KeyIsWide(r.key_schema) ? &PairJoin::AdvanceAs<true>
                                               : &PairJoin::AdvanceAs<false>) {
    const uint32_t n = std::max<uint32_t>(r_end - r_begin, 8);
    table_ = std::make_unique<join::HashTable>(join::NextPow2(n), pools_);
    table_->set_cache(cache);
  }

  bool done() const { return r_cur_ == r_end_ && s_cur_ == s_end_; }
  uint64_t work() const { return work_; }
  /// True when the build ran out of key or rid nodes.
  bool overflowed() const { return overflowed_; }
  void set_id(uint32_t id) { id_ = id; }
  uint32_t id() const { return id_; }

  /// Advances up to `quantum` tuples (build first, then probe).
  void Advance(uint32_t quantum, DeviceId dev, uint32_t wg) {
    (this->*advance_)(quantum, dev, wg);
  }

 private:
  template <bool kWide>
  void AdvanceAs(uint32_t quantum, DeviceId dev, uint32_t wg) {
    while (quantum > 0 && r_cur_ < r_end_) {
      const uint32_t h = join::HashKeyAt<kWide>(rk_, r_cur_);
      const uint32_t bucket = table_->BucketOf(h >> part_bits_);
      uint32_t w = 0;
      const int32_t node = table_->FindOrAdd<kWide>(
          bucket, rk_.lo[r_cur_], join::HiWordAt<kWide>(rk_, r_cur_), dev,
          wg, &w);
      if (node == join::kNil ||
          !table_->InsertRid(node, r_rids_[r_cur_], dev, wg)) {
        overflowed_ = true;
      }
      work_ += w + 1;
      ++r_cur_;
      --quantum;
    }
    while (quantum > 0 && s_cur_ < s_end_) {
      const uint32_t h = join::HashKeyAt<kWide>(sk_, s_cur_);
      const uint32_t bucket = table_->BucketOf(h >> part_bits_);
      uint32_t w = 0;
      const int32_t node = table_->Find<kWide>(
          bucket, sk_.lo[s_cur_], join::HiWordAt<kWide>(sk_, s_cur_), &w);
      if (node != join::kNil) {
        const int32_t srid = s_rids_[s_cur_];
        w += table_->ForEachRid(node, [this, srid, dev, wg](int32_t brid) {
          out_->Emit(brid, srid, dev, wg);
        });
      }
      work_ += w + 1;
      ++s_cur_;
      --quantum;
    }
  }

  data::KeyView rk_;
  const int32_t* r_rids_;
  data::KeyView sk_;
  const int32_t* s_rids_;
  uint32_t r_cur_, r_end_, s_cur_, s_end_;
  join::NodePools* pools_;
  join::ResultWriter* out_;
  std::unique_ptr<join::HashTable> table_;
  uint32_t part_bits_;
  void (PairJoin::*advance_)(uint32_t, DeviceId, uint32_t);
  uint32_t id_ = 0;
  uint64_t work_ = 0;
  bool overflowed_ = false;
};

}  // namespace

StatusOr<JoinReport> ExecuteCoarsePhj(exec::Backend* backend,
                                      const data::Workload& workload,
                                      const JoinSpec& spec) {
  simcl::SimContext* ctx = backend->context();
  const bool sim = backend->kind() == exec::BackendKind::kSim;
  const uint64_t nb = workload.build.size();
  const uint64_t np = workload.probe.size();
  ctx->log().Clear();
  backend->DrainEvents();  // discard records of previous joins
  const uint64_t cache_acc0 = ctx->cache() ? ctx->cache()->accesses() : 0;
  const uint64_t cache_miss0 = ctx->cache() ? ctx->cache()->misses() : 0;
  JoinReport report;

  cost::CommSpec comm;
  comm.bandwidth_gbps = ctx->memory().spec().total_bandwidth_gbps;

  // ---- partition both relations (same machinery as fine-grained PHJ) ----
  join::PhjEngine engine(ctx, &workload.build, &workload.probe, spec.engine);
  APU_RETURN_IF_ERROR(engine.Prepare());
  const uint32_t parts = engine.num_partitions();
  cost::WorkloadStats stats;
  stats.build_tuples = nb;
  stats.probe_tuples = np;
  stats.buckets = static_cast<double>(
      join::NextPow2(std::max<uint64_t>(nb / parts, 8)));
  stats.distinct_keys = static_cast<double>(nb) / parts;
  stats.match_rate = static_cast<double>(workload.expected_matches) /
                     static_cast<double>(np);

  for (int side = 0; side < 2; ++side) {
    join::RadixPartitioner* part = side == 0 ? engine.build_partitioner()
                                             : engine.probe_partitioner();
    const uint64_t n = side == 0 ? nb : np;
    for (int pass = 0; pass < part->passes(); ++pass) {
      part->BeginPass(pass);
      std::vector<StepDef> steps = part->PassSteps(pass);
      auto nplan = PlanSeries(*backend, "partition", Scheme::kDataDivide,
                              steps, stats, n, comm, {});
      if (!nplan.ok()) return nplan.status();
      SeriesOptions opts;
      opts.ratios = std::move(nplan->ratios);
      opts.drain_alloc = [part]() { return part->TakeCounts(); };
      const SeriesResult res = RunSeries(backend, steps, opts);
      ctx->log().Add(Phase::kPartition, res.elapsed_ns);
      report.lock_ns += res.lock_ns;
      part->EndPass(pass);
    }
  }

  // ---- coarse join phase: one work item per partition pair ----
  const auto& off_r = engine.build_partitioner()->offsets();
  const auto& off_s = engine.probe_partitioner()->offsets();
  const data::Relation& rp = engine.build_partitioner()->output();
  const data::Relation& sp = engine.probe_partitioner()->output();

  // Key nodes carry the hi word for wide schemas (16 B instead of 12 B).
  const bool wide = data::KeyIsWide(rp.key_schema);
  const uint32_t key_node_bytes = wide ? 16u : 12u;
  const uint64_t key_cap =
      nb + nb / 8 +
      join::PoolSlack(nb, spec.engine.block_bytes, key_node_bytes) +
      1024ull * spec.engine.block_bytes / key_node_bytes;
  const uint64_t rid_cap = nb + join::PoolSlack(nb, spec.engine.block_bytes, 8) +
                           1024ull * spec.engine.block_bytes / 8;
  join::NodePools pools(key_cap, rid_cap, spec.engine.allocator,
                        spec.engine.block_bytes, wide);
  join::ResultWriter writer(spec.engine.allocator, spec.engine.block_bytes);

  std::vector<std::unique_ptr<PairJoin>> pairs;
  pairs.reserve(parts);
  for (uint32_t p = 0; p < parts; ++p) {
    pairs.push_back(std::make_unique<PairJoin>(
        rp, sp, off_r[p], off_r[p + 1], off_s[p], off_s[p + 1], &pools,
        &writer, ctx->cache(), engine.radix_plan().partition_bits));
    pairs.back()->set_id(p);
  }

  // Pair-level ratio. A real backend puts every pair on the CPU lane, as
  // PlanSeries does every step. The sim balances total tuple work by the
  // per-tuple unit cost of a whole SHJ on each device (sum of the
  // calibrated fine-grained steps).
  double r_pairs = 1.0;
  if (sim) {
    join::ShjEngine probe_shape(ctx, &workload.build, &workload.probe,
                                spec.engine);
    APU_RETURN_IF_ERROR(probe_shape.Prepare());
    const cost::StepCosts shape_costs =
        cost::CalibrateSeries(*ctx, probe_shape.BuildSteps(), stats);
    double unit_cpu = 0.0;
    double unit_gpu = 0.0;
    for (const auto& c : shape_costs) {
      unit_cpu += c.cpu_ns_per_item;
      unit_gpu += c.gpu_ns_per_item;
    }
    r_pairs = unit_gpu / std::max(1e-9, unit_cpu + unit_gpu);
  }
  const uint32_t cpu_pairs =
      static_cast<uint32_t>(r_pairs * static_cast<double>(parts) + 0.5);

  // Execute pair joins: each device interleaves kInflight pairs in small
  // quanta (the concurrency that blows up the live working set).
  constexpr uint32_t kInflightCpu = 4;
  constexpr uint32_t kInflightGpu = 32;
  constexpr uint32_t kQuantum = 256;
  auto run_device = [&](DeviceId dev, uint32_t begin, uint32_t end,
                        uint32_t inflight) {
    uint32_t next = begin;
    std::vector<PairJoin*> live;
    while (next < end || !live.empty()) {
      while (live.size() < inflight && next < end) {
        live.push_back(pairs[next].get());
        ++next;
      }
      for (PairJoin* pj : live) {
        pj->Advance(kQuantum, dev, pj->id());
      }
      live.erase(std::remove_if(live.begin(), live.end(),
                                [](PairJoin* pj) { return pj->done(); }),
                 live.end());
    }
  };
  simcl::StepStats pair_stats_run;
  if (!sim) {
    // Real execution: wall-clock each device lane's pair sweep; allocator
    // costs are already inside the measured time (drain and discard).
    using SteadyClock = std::chrono::steady_clock;
    const auto t0 = SteadyClock::now();
    run_device(DeviceId::kCpu, 0, cpu_pairs, kInflightCpu);
    const auto t1 = SteadyClock::now();
    run_device(DeviceId::kGpu, cpu_pairs, parts, kInflightGpu);
    const auto t2 = SteadyClock::now();
    pair_stats_run.items[0] = cpu_pairs;
    pair_stats_run.items[1] = parts - cpu_pairs;
    for (uint32_t p = 0; p < parts; ++p) {
      pair_stats_run.work[p < cpu_pairs ? 0 : 1] += pairs[p]->work();
    }
    pair_stats_run.time[0].compute_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    pair_stats_run.time[1].compute_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count());
    pools.TakeCounts();
    writer.TakeCounts();
  } else {
    run_device(DeviceId::kCpu, 0, cpu_pairs, kInflightCpu);
    run_device(DeviceId::kGpu, cpu_pairs, parts, kInflightGpu);

    // Charge timing: a coarse work item's work units were measured above;
    // the executor re-walks pairs as charge-only items so SIMD divergence
    // across unequal pair sizes is priced in. The live working set is
    // inflight tables + tuple ranges, far beyond one partition (Table 3's
    // point).
    const double pair_bytes =
        (28.0 * static_cast<double>(nb) + 8.0 * static_cast<double>(np)) /
        static_cast<double>(parts);
    simcl::StepProfile coarse;
    coarse.instr_per_unit = 90.0;  // full SHJ per tuple (hash+visit+insert)
    coarse.rand_accesses_per_unit = 2.2;
    coarse.rand_working_set_bytes = pair_bytes * kInflightGpu;
    coarse.dependent_accesses = true;
    coarse.seq_bytes_per_unit = 8.0;
    simcl::Executor exec(ctx);
    pair_stats_run = exec.Run(
        coarse, parts, r_pairs,
        [&pairs](uint64_t i, DeviceId) -> uint32_t {
          return static_cast<uint32_t>(
              std::min<uint64_t>(pairs[i]->work(), 0xffffffffu));
        });
    alloc::AllocCounts counts = pools.TakeCounts();
    counts += writer.TakeCounts();
    simcl::DeviceTime extra[simcl::kNumDevices];
    alloc::ChargeAllocCounts(*ctx, counts, extra);
    for (int d = 0; d < simcl::kNumDevices; ++d) {
      pair_stats_run.time[d] += extra[d];
    }
  }
  // Under the sim the two device lanes are concurrent (max); under real
  // execution the sweeps above ran sequentially on the host, so the phase
  // really took their sum of wall time.
  const double pair_phase_ns =
      sim ? pair_stats_run.ElapsedNs()
          : pair_stats_run.time[0].TotalNs() + pair_stats_run.time[1].TotalNs();
  ctx->log().Add(Phase::kOther, pair_phase_ns);
  report.lock_ns += pair_stats_run.LockNs();

  StepReport sr;
  sr.phase = "pair-join";
  sr.name = "SHJ(pair)";
  sr.ratio = r_pairs;
  sr.cpu_ns = pair_stats_run.time[0].TotalNs();
  sr.gpu_ns = pair_stats_run.time[1].TotalNs();
  sr.lock_ns = pair_stats_run.LockNs();
  sr.gpu_divergence = pair_stats_run.gpu_divergence;
  report.steps.push_back(sr);

  for (const auto& pj : pairs) {
    if (pj->overflowed()) {
      return Status::ResourceExhausted(
          "coarse pair-join node pool exhausted during the build; rows are "
          "missing from the tables");
    }
  }
  report.matches = writer.count();
  report.breakdown = ctx->log();
  report.elapsed_ns = ctx->log().TotalNs();
  if (sim) report.estimated_ns = report.elapsed_ns - report.lock_ns;
  if (ctx->cache() != nullptr) {
    report.l2_accesses = ctx->cache()->accesses() - cache_acc0;
    report.l2_misses = ctx->cache()->misses() - cache_miss0;
  }
  return report;
}

StatusOr<JoinReport> ExecuteCoarsePhj(simcl::SimContext* ctx,
                                      const data::Workload& workload,
                                      const JoinSpec& spec) {
  const std::unique_ptr<exec::Backend> backend =
      exec::MakeBackend(spec.engine.backend, ctx, spec.engine.threads,
                        spec.engine.morsel_items);
  return ExecuteCoarsePhj(backend.get(), workload, spec);
}

}  // namespace apujoin::coproc
