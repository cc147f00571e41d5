#include "core/coupled_joiner.h"

namespace apujoin::core {

CoupledJoiner::CoupledJoiner(JoinConfig config)
    : config_(std::move(config)), tuner_(config_.tune) {
  ctx_ = std::make_unique<simcl::SimContext>(config_.context);
  backend_ =
      exec::MakeBackend(config_.spec.engine.backend, ctx_.get(),
                        config_.spec.engine.threads,
                        config_.spec.engine.morsel_items);
}

CoupledJoiner::CoupledJoiner(JoinConfig config, exec::Backend* substrate,
                             int slots)
    : config_(std::move(config)), tuner_(config_.tune) {
  // Planning must describe the substrate that actually executes; a spec
  // asking for a different backend kind would mis-plan the lease.
  config_.spec.engine.backend = substrate->kind();
  ctx_ = std::make_unique<simcl::SimContext>(config_.context);
  backend_ = substrate->Lease(ctx_.get(), slots);
}

apujoin::StatusOr<coproc::JoinReport> CoupledJoiner::RunTuned(
    const data::Workload& workload) {
  coproc::JoinSpec spec = config_.spec;
  APU_RETURN_IF_ERROR(tuner_.Prepare(&spec));
  auto report =
      coproc::ExecutePlan(backend_.get(),
                          coproc::MakeSingleJoinPlan(workload, spec));
  if (report.ok()) tuner_.Absorb(*report);
  return report;
}

apujoin::StatusOr<coproc::JoinReport> CoupledJoiner::RunPlan(
    const coproc::PlanSpec& plan) {
  coproc::PlanSpec run = plan;
  // Planning must describe the substrate that actually executes (same rule
  // as the leased constructor).
  run.exec.engine.backend = backend_->kind();
  APU_RETURN_IF_ERROR(tuner_.Prepare(&run.exec));
  auto report = coproc::ExecutePlan(backend_.get(), run);
  if (report.ok()) tuner_.Absorb(*report);
  return report;
}

apujoin::StatusOr<coproc::JoinReport> CoupledJoiner::Join(
    const data::Workload& workload) {
  return RunTuned(workload);
}

apujoin::StatusOr<coproc::JoinReport> CoupledJoiner::Join(
    const data::Relation& build, const data::Relation& probe) {
  data::Workload workload;
  workload.build = build;
  workload.probe = probe;
  workload.spec.build_tuples = build.size();
  workload.spec.probe_tuples = probe.size();
  // Unknown selectivity: assume every probe tuple may match once (the FK
  // upper bound); the result buffer grows from this estimate.
  workload.expected_matches = probe.size();
  return RunTuned(workload);
}

apujoin::StatusOr<coproc::JoinReport> CoupledJoiner::JoinCoarse(
    const data::Workload& workload) {
  // The coarse path reports one aggregate pair-join step, not the
  // fine-grained series the tuner's table is keyed by; run it untuned.
  return coproc::ExecuteCoarsePhj(backend_.get(), workload, config_.spec);
}

apujoin::StatusOr<coproc::OutOfCoreReport> CoupledJoiner::JoinOutOfCore(
    const data::Workload& workload) {
  coproc::OutOfCoreSpec spec;
  spec.inner = config_.spec;
  return coproc::ExecuteOutOfCore(backend_.get(), workload, spec);
}

}  // namespace apujoin::core
