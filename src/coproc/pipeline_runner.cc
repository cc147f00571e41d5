#include "coproc/pipeline_runner.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coproc/ratio_policy.h"
#include "cost/calibration.h"
#include "data/key_schema.h"
#include "join/groupby_engine.h"
#include "join/multiway_engine.h"
#include "join/partitioned_hash_join.h"
#include "join/result_writer.h"
#include "join/select_engine.h"
#include "join/simple_hash_join.h"
#include "plan/fusion.h"

namespace apujoin::coproc {

using apujoin::Status;
using apujoin::StatusOr;
using join::StepDef;
using simcl::DeviceId;
using simcl::Phase;

namespace {

// ---------------------------------------------------------------------------
// Driver state shared by every operator of a plan
// ---------------------------------------------------------------------------

struct Driver {
  exec::Backend* backend;
  simcl::SimContext* ctx;
  const JoinSpec& spec;
  join::ResultWriter* writer = nullptr;  ///< for per-phase dropped deltas
  JoinReport report;
  cost::CommSpec comm;
  double estimated_ns = 0.0;

  Driver(exec::Backend* b, const JoinSpec& s)
      : backend(b), ctx(b->context()), spec(s) {
    // U32 tuple width by default; the join runners override it from the
    // operator's key schema (data::TupleBytes) before resolving ratios.
    comm.bytes_per_item = 8.0;
    comm.bandwidth_gbps = ctx->memory().spec().total_bandwidth_gbps;
  }

  bool real_execution() const {
    return backend->kind() != exec::BackendKind::kSim;
  }

  /// The ratios of one series over `n` items under the plan's scheme
  /// (coproc/ratio_policy.h). On the sim, measured unit costs from previous
  /// runs overlay the analytic ones when the caller supplied a table — the
  /// feedback loop that lets the optimizers converge on measured costs.
  StatusOr<SeriesPlan> Plan(const char* which,
                            const std::vector<StepDef>& steps,
                            const cost::WorkloadStats& stats, uint64_t n,
                            const std::vector<double>& overrides = {}) const {
    return PlanSeries(*backend, which, spec.scheme, steps, stats, n, comm,
                      overrides, spec.measured_costs);
  }

  /// Transfer of the GPU's input share over PCI-e in discrete mode; returns
  /// the delay before the GPU can start this phase.
  double PhaseInputTransfer(const std::vector<double>& ratios,
                            uint64_t items, double bytes_per_item) {
    if (!ctx->discrete() || ratios.empty()) return 0.0;
    const double gpu_share = 1.0 - ratios.front();
    if (gpu_share <= 0.0) return 0.0;
    const double bytes = gpu_share * static_cast<double>(items) *
                         bytes_per_item;
    return ctx->TransferToDevice(bytes);
  }

  /// Runs one series at `plan`'s ratios (BasicUnit: by chunk dispatch),
  /// logs phase time, collects step reports and adds the plan's estimate
  /// plus `gpu_start_delay` to estimated_ns — unless `estimate` is false and
  /// the caller sums it itself. `gpu_start_delay` shifts the GPU (PCI-e
  /// input transfer in discrete mode).
  SeriesResult RunPhase(const std::string& phase_name, Phase phase,
                        std::vector<StepDef>& steps, const SeriesPlan& plan,
                        const std::function<alloc::AllocCounts()>& drain,
                        double gpu_start_delay,
                        const std::vector<uint32_t>* pair_offsets = nullptr,
                        bool estimate = true) {
    const uint64_t dropped0 = writer != nullptr ? writer->dropped() : 0;
    SeriesResult res;
    if (spec.scheme == Scheme::kBasicUnit) {
      BasicUnitOptions bu;
      const uint64_t n = steps.front().items;
      bu.cpu_chunk = spec.bu_cpu_chunk != 0
                         ? spec.bu_cpu_chunk
                         : std::max<uint64_t>(8192, n / 256);
      bu.gpu_chunk =
          spec.bu_gpu_chunk != 0 ? spec.bu_gpu_chunk : bu.cpu_chunk * 4;
      bu.drain_alloc = drain;
      double eff_ratio = 0.0;
      res = RunSeriesBasicUnit(backend, steps, bu, &eff_ratio);
      // Report the effective (scheduled) ratio on every step.
      for (auto& s : res.steps) {
        const double tot = static_cast<double>(s.stats.items[0]) +
                           static_cast<double>(s.stats.items[1]);
        s.ratio = tot > 0.0 ? static_cast<double>(s.stats.items[0]) / tot
                            : eff_ratio;
      }
    } else {
      SeriesOptions opts;
      opts.ratios = plan.ratios;
      opts.drain_alloc = drain;
      res = pair_offsets != nullptr
                ? RunSeriesPairBlocked(backend, steps, opts, *pair_offsets)
                : RunSeries(backend, steps, opts);
    }
    double elapsed = res.elapsed_ns;
    if (gpu_start_delay > 0.0) {
      // The modeled PCI-e transfer overlaps the CPU lane on the simulated
      // machine; under real execution the lanes ran sequentially, so the
      // (still modeled) transfer simply serializes in front.
      elapsed = real_execution()
                    ? res.elapsed_ns + gpu_start_delay
                    : std::max(res.cpu_ns, gpu_start_delay + res.gpu_ns) +
                          res.comm_ns;
    }
    ctx->log().Add(phase, elapsed);
    AbsorbStepReports(phase_name, res, plan.costs);
    if (writer != nullptr && !report.steps.empty()) {
      // Drops can only come from this phase's emitting step (the last one).
      report.steps.back().dropped += writer->dropped() - dropped0;
    }
    if (estimate) estimated_ns += plan.estimated_ns + gpu_start_delay;
    return res;
  }

  /// Logs a series result that was executed outside RunPhase (the joined
  /// pair-blocked PHJ join phase).
  void AbsorbSeries(const std::string& phase_name, Phase phase,
                    const SeriesResult& res, const cost::StepCosts& costs) {
    ctx->log().Add(phase, res.elapsed_ns);
    AbsorbStepReports(phase_name, res, costs);
  }

  void AbsorbStepReports(const std::string& phase_name,
                         const SeriesResult& res,
                         const cost::StepCosts& costs) {
    report.lock_ns += res.lock_ns;
    for (size_t i = 0; i < res.steps.size(); ++i) {
      StepReport sr;
      sr.phase = phase_name;
      sr.name = res.steps[i].name;
      sr.ratio = res.steps[i].ratio;
      sr.cpu_ns = res.steps[i].stats.time[0].TotalNs();
      sr.gpu_ns = res.steps[i].stats.time[1].TotalNs();
      sr.cpu_modeled_ns = res.steps[i].stats.time[0].ModeledNs();
      sr.gpu_modeled_ns = res.steps[i].stats.time[1].ModeledNs();
      sr.cpu_items = res.steps[i].stats.items[0];
      sr.gpu_items = res.steps[i].stats.items[1];
      sr.lock_ns = res.steps[i].stats.LockNs();
      sr.gpu_divergence = res.steps[i].stats.gpu_divergence;
      if (i < costs.size()) {
        sr.unit_cpu_ns = costs[i].cpu_ns_per_item;
        sr.unit_gpu_ns = costs[i].gpu_ns_per_item;
      }
      report.steps.push_back(std::move(sr));
    }
  }

  /// Merges separate per-device tables and returns the merge time: wall
  /// clock under real execution, the analytic per-node cost otherwise.
  template <typename Engine>
  double TimeMerge(Engine* engine, double table_bytes) {
    if (real_execution()) {
      const auto t0 = std::chrono::steady_clock::now();
      engine->MergeSeparateTables();
      return static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    const auto [keys, rids] = engine->MergeSeparateTables();
    return MergeCostNs(*ctx, keys + rids, table_bytes);
  }

  /// Per-node merge cost (separate tables): one dependent random access
  /// into the destination table plus the insertion atomic.
  static double MergeCostNs(const simcl::SimContext& ctx, uint64_t nodes,
                            double table_bytes) {
    simcl::StepProfile p;
    p.instr_per_unit = 20.0;
    p.rand_accesses_per_unit = 1.0;
    p.rand_working_set_bytes = table_bytes;
    p.dependent_accesses = true;
    p.global_atomics_per_unit = 1.0;
    p.atomic_addresses = table_bytes / 8.0;
    return simcl::ComputeDeviceTime(ctx.device(DeviceId::kCpu), ctx.memory(),
                                    p, nodes, nodes,
                                    static_cast<double>(nodes))
        .ModeledNs();
  }
};

/// "plan/<kind>[<index>]" — the path prefix the lowered operators report
/// under (matches the role paths plan::Graph::Validate uses).
std::string NodePath(const plan::Graph& g, int idx) {
  return std::string("plan/") + plan::NodeKindName(g.nodes[idx].kind) + "[" +
         std::to_string(idx) + "]";
}

alloc::AllocCounts NoAlloc() { return alloc::AllocCounts{}; }

// ---------------------------------------------------------------------------
// Operator runners. Each appends its step reports / phase times / operator
// entry to the shared Driver and its estimate to drv.estimated_ns.
// ---------------------------------------------------------------------------

/// The legacy single-join flow: calibration, ratio resolution,
/// build/partition/probe series, discrete transfers, separate-table merge.
/// `expected_matches` and `skew_fraction` play the roles the workload's
/// fields played before plans existed.
///
/// Fusion hooks: `build_filter`/`probe_filter` (null = none) are fused
/// Select selection vectors — SHJ kernels skip dead lanes positionally, PHJ
/// pushes them into pass 0 of the radix partitioners. `fused_agg` (null =
/// emit pairs) swaps the emitting probe step for the fused probe+aggregate
/// step p4g, which streams matches into the group-by accumulators. With all
/// three null the lowering is the PR 8 flow bit-for-bit.
Status RunHashJoinOp(Driver& drv, const data::Relation& build,
                     const data::Relation& probe, join::ResultWriter& writer,
                     const uint8_t* build_filter, const uint8_t* probe_filter,
                     uint64_t build_survivors, join::GroupByEngine* fused_agg,
                     uint64_t expected_matches, double skew_fraction,
                     const std::string& op_path) {
  simcl::SimContext* ctx = drv.ctx;
  const JoinSpec& spec = drv.spec;
  const uint64_t nb = build.size();
  const uint64_t np = probe.size();
  // Input tuples move at their schema's width (key + rid: 8 B for U32,
  // 12 B for wide pairs); the comm spec the ratio optimizers see prices
  // inter-device traffic the same way. Result pairs stay 8 B — they are
  // (build rid, probe rid) regardless of key schema.
  const double tuple_bytes = data::TupleBytes(build.key_schema);
  drv.comm.bytes_per_item = tuple_bytes;
  // Live build rows the engine will actually insert — the survivor count
  // when a fused select filters the build side. Sizing hash tables, radix
  // plans, and the cost model from it keeps the fused data structures
  // identical to what the unfused plan builds from the materialized copy.
  const uint64_t nb_live = build_filter != nullptr ? build_survivors : nb;
  const double elapsed0 = ctx->log().TotalNs();
  const uint64_t count0 = writer.count();

  cost::WorkloadStats stats;
  stats.build_tuples = nb;
  stats.probe_tuples = np;
  stats.match_rate = static_cast<double>(expected_matches) /
                     static_cast<double>(np);
  stats.skew_fraction = skew_fraction;

  if (spec.algorithm == Algorithm::kSHJ) {
    join::ShjEngine engine(ctx, &build, &probe, spec.engine);
    engine.set_build_cardinality(nb_live);
    APU_RETURN_IF_ERROR(engine.Prepare());
    engine.set_build_filter(build_filter);
    engine.set_probe_filter(probe_filter);
    // Chained bucket count, or total key slots under the open layout — the
    // calibration occupancy alpha divides distinct keys by this.
    stats.buckets = static_cast<double>(engine.CostModelBuckets());
    stats.distinct_keys = static_cast<double>(nb_live);

    auto drain = [&engine, &writer]() {
      alloc::AllocCounts c = engine.pools().TakeCounts();
      c += writer.TakeCounts();
      return c;
    };

    // ---- build ----
    std::vector<StepDef> bsteps = engine.BuildSteps();
    auto bplan = drv.Plan("build", bsteps, stats, nb, spec.build_ratios);
    if (!bplan.ok()) return bplan.status();
    drv.report.build_ratios = bplan->ratios;
    drv.RunPhase("build", Phase::kBuild, bsteps, *bplan, drain,
                 drv.PhaseInputTransfer(bplan->ratios, nb, tuple_bytes));

    // ---- merge (separate tables) ----
    if (!spec.engine.shared_table) {
      if (ctx->discrete()) {
        // Partial table comes back over PCI-e before merging.
        const double gpu_nodes =
            (1.0 - bplan->ratios[0]) * static_cast<double>(nb);
        ctx->TransferToDevice(gpu_nodes * 20.0);
        drv.estimated_ns += ctx->pcie().TransferNs(gpu_nodes * 20.0);
      }
      const double merge_ns =
          drv.TimeMerge(&engine, engine.TableWorkingSetBytes());
      ctx->log().Add(Phase::kMerge, merge_ns);
      drv.estimated_ns += merge_ns;
    }

    // ---- probe ----
    std::vector<StepDef> psteps = fused_agg != nullptr
                                      ? engine.ProbeStepsFused(fused_agg)
                                      : engine.ProbeSteps(&writer);
    auto pplan = drv.Plan("probe", psteps, stats, np, spec.probe_ratios);
    if (!pplan.ok()) return pplan.status();
    drv.report.probe_ratios = pplan->ratios;
    drv.RunPhase("probe", Phase::kProbe, psteps, *pplan, drain,
                 drv.PhaseInputTransfer(pplan->ratios, np, tuple_bytes));
    if (ctx->discrete()) {
      const double result_bytes =
          (1.0 - pplan->ratios[0]) * static_cast<double>(writer.count()) *
          8.0;
      const double back = ctx->TransferToDevice(result_bytes);
      drv.estimated_ns += back;
    }
    drv.report.overflowed = engine.overflowed();
  } else {
    // ---- PHJ ----
    join::PhjEngine engine(ctx, &build, &probe, spec.engine);
    engine.set_build_cardinality(nb_live);
    APU_RETURN_IF_ERROR(engine.Prepare());
    // Fused selections run inside pass 0 of the partitioners; every later
    // pass and the whole join phase see only the compacted survivors.
    engine.set_build_filter(build_filter);
    engine.set_probe_filter(probe_filter);
    const uint32_t parts = engine.num_partitions();
    stats.buckets = static_cast<double>(engine.CostModelBuckets());
    stats.distinct_keys =
        static_cast<double>(nb_live) / static_cast<double>(parts);

    // ---- partition passes (R then S) ----
    for (int side = 0; side < 2; ++side) {
      join::RadixPartitioner* part = side == 0 ? engine.build_partitioner()
                                               : engine.probe_partitioner();
      const uint64_t n = side == 0 ? nb : np;
      auto drain_part = [part]() { return part->TakeCounts(); };
      for (int pass = 0; pass < part->passes(); ++pass) {
        part->BeginPass(pass);
        std::vector<StepDef> nsteps = part->PassSteps(pass);
        auto nplan = drv.Plan("partition", nsteps, stats, n,
                              spec.partition_ratios);
        if (!nplan.ok()) return nplan.status();
        if (side == 0 && pass == 0) {
          drv.report.partition_ratios = nplan->ratios;
        }
        const double ntransfer =
            pass == 0 ? drv.PhaseInputTransfer(nplan->ratios, n, tuple_bytes)
                      : 0.0;
        const std::string label = std::string("partition-") +
                                  (side == 0 ? "R" : "S") + "." +
                                  std::to_string(pass);
        drv.RunPhase(label, Phase::kPartition, nsteps, *nplan, drain_part,
                     ntransfer);
        part->EndPass(pass);
      }
    }
    APU_RETURN_IF_ERROR(engine.PrepareJoinPhase());

    auto drain = [&engine, &writer]() {
      alloc::AllocCounts c = engine.pools().TakeCounts();
      c += writer.TakeCounts();
      return c;
    };

    // ---- join phase (build + probe) ----
    std::vector<StepDef> bsteps = engine.BuildSteps();
    auto bplan = drv.Plan("build", bsteps, stats, nb, spec.build_ratios);
    if (!bplan.ok()) return bplan.status();
    drv.report.build_ratios = bplan->ratios;
    std::vector<StepDef> psteps = fused_agg != nullptr
                                      ? engine.ProbeStepsFused(fused_agg)
                                      : engine.ProbeSteps(&writer);
    auto pplan = drv.Plan("probe", psteps, stats, np, spec.probe_ratios);
    if (!pplan.ok()) return pplan.status();
    drv.report.probe_ratios = pplan->ratios;

    if (spec.engine.shared_table && spec.scheme != Scheme::kBasicUnit) {
      // Algorithm 2: apply the whole SHJ to each partition pair before the
      // next one, so a pair's table stays L2-resident across build AND
      // probe — the fine-grained cache reuse of Table 3.
      std::vector<PairSeriesGroup> groups(2);
      groups[0].steps = &bsteps;
      groups[0].ratios = bplan->ratios;
      groups[0].offsets = &engine.build_partitioner()->offsets();
      groups[1].steps = &psteps;
      groups[1].ratios = pplan->ratios;
      groups[1].offsets = &engine.probe_partitioner()->offsets();
      SeriesOptions jopts;
      jopts.drain_alloc = drain;
      const uint64_t dropped0 = writer.dropped();
      RunSeriesPairBlockedGroups(drv.backend, groups, jopts);
      drv.AbsorbSeries("build", Phase::kBuild, groups[0].result,
                       bplan->costs);
      drv.AbsorbSeries("probe", Phase::kProbe, groups[1].result,
                       pplan->costs);
      if (!drv.report.steps.empty()) {
        // Only the probe's emitting step (absorbed last) can drop pairs.
        drv.report.steps.back().dropped += writer.dropped() - dropped0;
      }
    } else {
      // Separate tables (and BasicUnit) keep distinct build/probe phases
      // with an explicit merge in between. Their series estimates are
      // summed below, after the transfers.
      const double btransfer = drv.PhaseInputTransfer(bplan->ratios, nb,
                                                      tuple_bytes);
      drv.estimated_ns += btransfer;
      drv.RunPhase("build", Phase::kBuild, bsteps, *bplan, drain, btransfer,
                   &engine.build_partitioner()->offsets(),
                   /*estimate=*/false);

      if (!spec.engine.shared_table) {
        if (ctx->discrete()) {
          const double gpu_nodes =
              (1.0 - bplan->ratios[0]) * static_cast<double>(nb);
          ctx->TransferToDevice(gpu_nodes * 20.0);
          drv.estimated_ns += ctx->pcie().TransferNs(gpu_nodes * 20.0);
        }
        const double merge_ns =
            drv.TimeMerge(&engine, engine.PartitionWorkingSetBytes());
        ctx->log().Add(Phase::kMerge, merge_ns);
        drv.estimated_ns += merge_ns;
      }

      const double ptransfer = drv.PhaseInputTransfer(pplan->ratios, np,
                                                      tuple_bytes);
      drv.estimated_ns += ptransfer;
      drv.RunPhase("probe", Phase::kProbe, psteps, *pplan, drain, ptransfer,
                   &engine.probe_partitioner()->offsets(),
                   /*estimate=*/false);
      if (ctx->discrete()) {
        const double result_bytes =
            (1.0 - pplan->ratios[0]) * static_cast<double>(writer.count()) *
            8.0;
        const double back = ctx->TransferToDevice(result_bytes);
        drv.estimated_ns += back;
      }
    }
    drv.estimated_ns += bplan->estimated_ns + pplan->estimated_ns;
    drv.report.overflowed = engine.overflowed();
  }

  OperatorReport op;
  op.path = op_path;
  op.kind = plan::NodeKindName(plan::NodeKind::kHashJoin);
  op.elapsed_ns = ctx->log().TotalNs() - elapsed0;
  op.input_rows = nb + np;
  op.output_rows = fused_agg != nullptr ? fused_agg->total_count()
                                        : writer.count() - count0;
  op.fused = fused_agg != nullptr;
  drv.report.operators.push_back(std::move(op));
  return Status::OK();
}

/// Selection: runs the f1/f2 series and materializes the filtered relation
/// (owned by `eng`, which the caller keeps alive for the rest of the plan).
StatusOr<const data::Relation*> RunSelectOp(Driver& drv,
                                            join::SelectEngine& eng,
                                            const std::string& op_path) {
  APU_RETURN_IF_ERROR(eng.Prepare());
  std::vector<StepDef> steps = eng.Steps();
  const uint64_t n = steps.front().items;
  double elapsed = 0.0;
  if (n > 0) {
    cost::WorkloadStats stats;
    stats.build_tuples = n;
    stats.probe_tuples = n;
    auto fplan = drv.Plan("select", steps, stats, n);
    if (!fplan.ok()) return fplan.status();
    elapsed = drv.RunPhase(op_path, Phase::kSelect, steps, *fplan, NoAlloc,
                           0.0)
                  .elapsed_ns;
  }
  eng.Finish();

  OperatorReport op;
  op.path = op_path;
  op.kind = plan::NodeKindName(plan::NodeKind::kSelect);
  op.elapsed_ns = elapsed;
  op.input_rows = n;
  op.output_rows = eng.survivors();
  drv.report.operators.push_back(std::move(op));
  return &eng.output();
}

/// Fused selection (Select→HashJoin edge): runs the flag-only f1 series and
/// returns the selection vector for the join kernels to consume
/// positionally — no compaction pass, no filtered-relation copy.
StatusOr<const uint8_t*> RunSelectOpFused(Driver& drv,
                                          join::SelectEngine& eng,
                                          const std::string& op_path) {
  APU_RETURN_IF_ERROR(eng.PrepareFused());
  std::vector<StepDef> steps = eng.FusedSteps();
  const uint64_t n = steps.front().items;
  double elapsed = 0.0;
  if (n > 0) {
    cost::WorkloadStats stats;
    stats.build_tuples = n;
    stats.probe_tuples = n;
    auto fplan = drv.Plan("select", steps, stats, n);
    if (!fplan.ok()) return fplan.status();
    elapsed = drv.RunPhase(op_path, Phase::kSelect, steps, *fplan, NoAlloc,
                           0.0)
                  .elapsed_ns;
  }

  OperatorReport op;
  op.path = op_path;
  op.kind = plan::NodeKindName(plan::NodeKind::kSelect);
  op.elapsed_ns = elapsed;
  op.input_rows = n;
  op.output_rows = eng.survivors();
  op.fused = true;
  drv.report.operators.push_back(std::move(op));
  return eng.flags();
}

/// Multi-way probe chain: one shared-table build per relation, then the
/// m1..m4 chain series over the probe.
Status RunMultiwayOp(Driver& drv,
                     const std::vector<const data::Relation*>& inputs,
                     join::ResultWriter& writer, uint64_t expected_matches,
                     double skew_fraction, const std::string& op_path) {
  simcl::SimContext* ctx = drv.ctx;
  const JoinSpec& spec = drv.spec;
  std::vector<const data::Relation*> builds(inputs.begin(), inputs.end() - 1);
  const data::Relation& probe = *inputs.back();
  const uint64_t np = probe.size();
  // Wide chains move 12 B tuples; the comm spec prices them accordingly
  // (coupled-only, so this only reaches the ratio optimizers' estimates).
  drv.comm.bytes_per_item = data::TupleBytes(probe.key_schema);
  const double elapsed0 = ctx->log().TotalNs();

  join::MultiwayEngine engine(ctx, builds, &probe, spec.engine);
  APU_RETURN_IF_ERROR(engine.Prepare());

  uint64_t nb_total = 0;
  double buckets_total = 0.0;
  for (int k = 0; k < engine.num_tables(); ++k) {
    nb_total += builds[k]->size();
    buckets_total +=
        static_cast<double>(engine.build_engine(k)->CostModelBuckets());
  }

  // ---- per-table builds ----
  for (int k = 0; k < engine.num_tables(); ++k) {
    join::ShjEngine* beng = engine.build_engine(k);
    const uint64_t nbk = builds[k]->size();
    cost::WorkloadStats stats;
    stats.build_tuples = nbk;
    stats.probe_tuples = np;
    stats.buckets = static_cast<double>(beng->CostModelBuckets());
    stats.distinct_keys = static_cast<double>(nbk);
    stats.match_rate = static_cast<double>(expected_matches) /
                       static_cast<double>(np);
    stats.skew_fraction = skew_fraction;

    auto drain = [beng, &writer]() {
      alloc::AllocCounts c = beng->pools().TakeCounts();
      c += writer.TakeCounts();
      return c;
    };
    std::vector<StepDef> bsteps = beng->BuildSteps();
    auto bplan = drv.Plan("build", bsteps, stats, nbk, spec.build_ratios);
    if (!bplan.ok()) return bplan.status();
    if (k == 0) drv.report.build_ratios = bplan->ratios;
    drv.RunPhase("build[" + std::to_string(k) + "]", Phase::kBuild, bsteps,
                 *bplan, drain, 0.0);
  }

  // ---- probe chain ----
  cost::WorkloadStats stats;
  stats.build_tuples = nb_total;
  stats.probe_tuples = np;
  stats.buckets = buckets_total;
  stats.distinct_keys = static_cast<double>(nb_total);
  stats.match_rate = static_cast<double>(expected_matches) /
                     static_cast<double>(np);
  stats.skew_fraction = skew_fraction;

  auto drain = [&engine, &writer]() {
    alloc::AllocCounts c = writer.TakeCounts();
    for (int k = 0; k < engine.num_tables(); ++k) {
      c += engine.build_engine(k)->pools().TakeCounts();
    }
    return c;
  };
  std::vector<StepDef> psteps = engine.ChainSteps(&writer);
  auto pplan = drv.Plan("probe", psteps, stats, np, spec.probe_ratios);
  if (!pplan.ok()) return pplan.status();
  drv.report.probe_ratios = pplan->ratios;
  drv.RunPhase("probe-chain", Phase::kProbe, psteps, *pplan, drain, 0.0);
  drv.report.overflowed = engine.overflowed();

  OperatorReport op;
  op.path = op_path;
  op.kind = plan::NodeKindName(plan::NodeKind::kMultiwayJoin);
  op.elapsed_ns = ctx->log().TotalNs() - elapsed0;
  op.input_rows = nb_total + np;
  op.output_rows = writer.count();
  drv.report.operators.push_back(std::move(op));
  return Status::OK();
}

/// Group-by: aggregates the join's writer through the g1 series into
/// report.groups.
Status RunGroupByOp(Driver& drv, const join::ResultWriter& writer,
                    plan::AggFn agg, const std::string& op_path) {
  join::GroupByEngine eng(&writer, agg);
  eng.set_prefetch_dist(drv.spec.engine.prefetch_dist);
  APU_RETURN_IF_ERROR(eng.Prepare());
  std::vector<StepDef> steps = eng.Steps();
  const uint64_t n = steps.front().items;
  double elapsed = 0.0;
  if (n > 0) {
    cost::WorkloadStats stats;
    stats.build_tuples = n;
    stats.probe_tuples = n;
    auto gplan = drv.Plan("group-by", steps, stats, n);
    if (!gplan.ok()) return gplan.status();
    elapsed = drv.RunPhase(op_path, Phase::kGroupBy, steps, *gplan, NoAlloc,
                           0.0)
                  .elapsed_ns;
  }
  drv.report.groups = eng.Materialize();

  OperatorReport op;
  op.path = op_path;
  op.kind = plan::NodeKindName(plan::NodeKind::kGroupBy);
  op.elapsed_ns = elapsed;
  op.input_rows = writer.count();
  op.output_rows = drv.report.groups.size();
  drv.report.operators.push_back(std::move(op));
  return Status::OK();
}

}  // namespace

PlanSpec MakeSingleJoinPlan(const data::Workload& workload,
                            const JoinSpec& spec) {
  PlanSpec plan;
  const int b = plan.graph.AddScan(&workload.build);
  const int s = plan.graph.AddScan(&workload.probe);
  plan.graph.AddHashJoin(b, s);
  plan.exec = spec;
  plan.expected_matches = workload.expected_matches;
  plan.skew_fraction = data::SkewFraction(workload.spec.distribution);
  return plan;
}

StatusOr<JoinReport> ExecutePlan(exec::Backend* backend,
                                 const PlanSpec& plan) {
  simcl::SimContext* ctx = backend->context();
  APU_RETURN_IF_ERROR(plan.graph.Validate());
  JoinSpec spec = plan.exec;
  APU_RETURN_IF_ERROR(spec.engine.Validate());
  if (ctx->discrete()) {
    if (spec.scheme == Scheme::kPipelined) {
      return Status::InvalidArgument(
          "fine-grained PL is impractical on the discrete architecture "
          "(Section 5.1); run it on the coupled context");
    }
    // Separate device memories: a shared hash table does not exist.
    spec.engine.shared_table = false;
  }
  if (backend->kind() != exec::BackendKind::kSim && ctx->cache() != nullptr) {
    return Status::InvalidArgument(
        "cache tracing (trace_cache) requires the sim backend: the "
        "CacheSim is not thread-safe under concurrent kernels");
  }
  if (backend->kind() != exec::BackendKind::kSim && spec.engine.grouping) {
    return Status::InvalidArgument(
        "divergence grouping (grouping) requires the sim backend: a real "
        "backend runs every step at ratio 1.0, so there is no GPU lane to "
        "reorder");
  }
  // Skewed probes concentrate on hot keys, which stay cache-resident.
  if (spec.engine.locality_boost == 0.0) {
    spec.engine.locality_boost = plan.skew_fraction;
  }

  const plan::Graph& g = plan.graph;
  const plan::Node& root = g.nodes[g.root];
  const bool has_groupby = root.kind == plan::NodeKind::kGroupBy;
  const int join_idx = has_groupby ? root.children[0] : g.root;
  const plan::Node& join_node = g.nodes[join_idx];
  if (join_node.kind == plan::NodeKind::kMultiwayJoin && ctx->discrete()) {
    return Status::InvalidArgument(
        NodePath(g, join_idx) +
        ": multiway probe chains require the coupled architecture (every "
        "build table is shared by both devices; there is no merge/transfer "
        "formulation)");
  }

  Driver drv(backend, spec);
  ctx->log().Clear();
  backend->DrainEvents();  // discard records of previous joins
  const uint64_t cache_acc0 = ctx->cache() ? ctx->cache()->accesses() : 0;
  const uint64_t cache_miss0 = ctx->cache() ? ctx->cache()->misses() : 0;

  // ---- fusion decision ----
  // The structural pass marks fusible edges; the runner demotes what the
  // execution spec rules out. Discrete co-processing keeps every boundary
  // materialized: its phase transfers are sized from materialized
  // intermediates, and the shared aggregate table a fused probe streams
  // into does not exist across two memories.
  const plan::FusionPlan fusion = plan::Fuse(
      g, ctx->discrete() ? exec::FuseMode::kOff : spec.engine.fuse);

  // ---- resolve the join's inputs (scans and selections) ----
  std::vector<std::unique_ptr<join::SelectEngine>> select_engines;
  std::function<StatusOr<const data::Relation*>(int)> resolve =
      [&](int idx) -> StatusOr<const data::Relation*> {
    const plan::Node& n = g.nodes[idx];
    if (n.kind == plan::NodeKind::kScan) return n.relation;
    // Validation guarantees the only other relation producer is a Select
    // with one relation-producing child.
    auto in = resolve(n.children[0]);
    if (!in.ok()) return in.status();
    select_engines.push_back(std::make_unique<join::SelectEngine>(
        *in, n.predicate, spec.engine.prefetch_dist));
    return RunSelectOp(drv, *select_engines.back(), NodePath(g, idx));
  };
  std::vector<const data::Relation*> inputs(join_node.children.size());
  // Fused Select children: the join consumes the unfiltered input plus a
  // positional selection vector instead of a filtered copy.
  std::vector<const uint8_t*> filters(join_node.children.size(), nullptr);
  std::vector<uint64_t> filter_survivors(join_node.children.size(), 0);
  for (size_t c = 0; c < join_node.children.size(); ++c) {
    const int child = join_node.children[c];
    if (g.nodes[child].kind == plan::NodeKind::kSelect &&
        fusion.fused[child] != 0) {
      auto in = resolve(g.nodes[child].children[0]);
      if (!in.ok()) return in.status();
      select_engines.push_back(std::make_unique<join::SelectEngine>(
          *in, g.nodes[child].predicate, spec.engine.prefetch_dist));
      auto flags =
          RunSelectOpFused(drv, *select_engines.back(), NodePath(g, child));
      if (!flags.ok()) return flags.status();
      inputs[c] = *in;
      filters[c] = *flags;
      filter_survivors[c] = select_engines.back()->survivors();
      continue;
    }
    auto rel = resolve(child);
    if (!rel.ok()) return rel.status();
    inputs[c] = *rel;
  }

  // A selection that filters every tuple out legitimately empties a join
  // input: the join result is empty, not an error. The engines keep
  // rejecting empty *base* relations (an empty scan is a caller bug), so
  // the series is skipped rather than run on zero tuples. A fused
  // selection with zero survivors takes the same shortcut — the count was
  // taken from the flag series instead of a copy.
  bool select_emptied = false;
  for (size_t c = 0; c < join_node.children.size(); ++c) {
    select_emptied |=
        inputs[c]->empty() &&
        g.nodes[join_node.children[c]].kind == plan::NodeKind::kSelect;
    select_emptied |= filters[c] != nullptr && filter_survivors[c] == 0;
  }

  // ---- fused HashJoin→GroupBy? ----
  bool groupby_fused =
      has_groupby && fusion.fused[join_idx] != 0 && !select_emptied;
  if (groupby_fused) {
    // The aggregate table uses INT32_MIN as its empty-slot sentinel; a key
    // carrying it could never claim a slot. Surviving keys are a subset of
    // the build keys, so one build-side scan is a conservative guard.
    for (const int32_t k : inputs[0]->keys) {
      if (k == std::numeric_limits<int32_t>::min()) {
        groupby_fused = false;
        break;
      }
    }
  }

  // ---- result buffer ----
  uint64_t expected = plan.expected_matches;
  if (expected == PlanSpec::kAutoMatches) expected = inputs.back()->size();
  // Expected matches + slack for stranded block remainders. A fused
  // group-by never materializes pairs — its writer only backstops the
  // allocator-drain plumbing, so the big buffer is skipped entirely.
  uint64_t result_cap = spec.result_capacity;
  if (result_cap == 0) {
    const uint64_t block_elems =
        std::max<uint64_t>(1, spec.engine.block_bytes / 8);
    result_cap = groupby_fused ? 64 : expected + 2048 * block_elems + 4096;
  }
  join::ResultWriter writer(result_cap, spec.engine.allocator,
                            spec.engine.block_bytes);
  if (has_groupby && !groupby_fused) writer.CaptureKeys();
  drv.writer = &writer;

  std::unique_ptr<join::GroupByEngine> fused_agg;
  if (groupby_fused) {
    fused_agg = std::make_unique<join::GroupByEngine>(root.agg);
    const uint64_t nb_eff =
        filters[0] != nullptr ? filter_survivors[0] : inputs[0]->size();
    const uint64_t np_eff =
        filters[1] != nullptr ? filter_survivors[1] : inputs[1]->size();
    // Distinct group keys are bounded by the smaller side's survivors.
    APU_RETURN_IF_ERROR(fused_agg->PrepareFused(std::min(nb_eff, np_eff)));
  }

  // ---- the join ----
  if (select_emptied) {
    OperatorReport op;
    op.path = NodePath(g, join_idx);
    op.kind = plan::NodeKindName(join_node.kind);
    for (const data::Relation* r : inputs) op.input_rows += r->size();
    drv.report.operators.push_back(std::move(op));
  } else if (join_node.kind == plan::NodeKind::kHashJoin) {
    APU_RETURN_IF_ERROR(RunHashJoinOp(drv, *inputs[0], *inputs[1], writer,
                                      filters[0], filters[1],
                                      filter_survivors[0], fused_agg.get(),
                                      expected, plan.skew_fraction,
                                      NodePath(g, join_idx)));
  } else {
    APU_RETURN_IF_ERROR(RunMultiwayOp(drv, inputs, writer, expected,
                                      plan.skew_fraction,
                                      NodePath(g, join_idx)));
  }

  // ---- the aggregate ----
  if (has_groupby && fused_agg != nullptr) {
    // The aggregation ran inside the probe series (p4g). Attribute the
    // group-by's share of that fused step: what a standalone g1 pass over
    // the same matches would have cost, capped by the fused step's own
    // measured time. The join's operator entry gives that share up, so the
    // per-operator times still sum to the plan total.
    double p4g_ns = 0.0;
    for (const StepReport& s : drv.report.steps) {
      if (s.name == "p4g") p4g_ns += std::max(s.cpu_ns, s.gpu_ns);
    }
    const uint64_t matched = fused_agg->total_count();
    const simcl::StepProfile gp =
        join::GroupAggProfile(fused_agg->TableWorkingSetBytes());
    const double g1_ns =
        simcl::ComputeDeviceTime(ctx->device(DeviceId::kCpu), ctx->memory(),
                                 gp, matched, matched,
                                 static_cast<double>(matched))
            .ModeledNs();
    const double share = std::min(g1_ns, p4g_ns);
    OperatorReport& jop = drv.report.operators.back();
    jop.elapsed_ns = std::max(0.0, jop.elapsed_ns - share);
    drv.report.groups = fused_agg->Materialize();

    OperatorReport op;
    op.path = NodePath(g, g.root);
    op.kind = plan::NodeKindName(plan::NodeKind::kGroupBy);
    op.elapsed_ns = share;
    op.input_rows = matched;
    op.output_rows = drv.report.groups.size();
    op.fused = true;
    drv.report.operators.push_back(std::move(op));
  } else if (has_groupby) {
    APU_RETURN_IF_ERROR(RunGroupByOp(drv, writer, root.agg,
                                     NodePath(g, g.root)));
  }

  drv.report.matches =
      fused_agg != nullptr ? fused_agg->total_count() : writer.count();
  drv.report.dropped_matches = writer.dropped();
  drv.report.overflowed |= writer.dropped() > 0;
  drv.report.breakdown = ctx->log();
  drv.report.elapsed_ns = ctx->log().TotalNs();
  // The model prices the simulated APU; a real backend reports no estimate.
  if (!drv.real_execution()) drv.report.estimated_ns = drv.estimated_ns;
  if (ctx->cache() != nullptr) {
    drv.report.l2_accesses = ctx->cache()->accesses() - cache_acc0;
    drv.report.l2_misses = ctx->cache()->misses() - cache_miss0;
  }
  if (drv.report.overflowed && !spec.tolerate_overflow) {
    // A truncated result is data loss; callers used to have to notice the
    // `overflowed` flag themselves (and often didn't).
    if (writer.dropped() > 0) {
      return Status::ResourceExhausted(
          "join result buffer exhausted: " +
          std::to_string(writer.dropped()) + " of " +
          std::to_string(writer.count() + writer.dropped()) +
          " matches dropped (capacity " + std::to_string(writer.capacity()) +
          "; raise JoinSpec::result_capacity or set tolerate_overflow)");
    }
    return Status::ResourceExhausted(
        "hash-table node pool exhausted during the build; rows are missing "
        "from the table (set JoinSpec::tolerate_overflow to accept a "
        "truncated result)");
  }
  return drv.report;
}

StatusOr<JoinReport> ExecutePlan(simcl::SimContext* ctx,
                                 const PlanSpec& plan) {
  const std::unique_ptr<exec::Backend> backend =
      exec::MakeBackend(plan.exec.engine, ctx);
  return ExecutePlan(backend.get(), plan);
}

}  // namespace apujoin::coproc
