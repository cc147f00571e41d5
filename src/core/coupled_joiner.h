// CoupledJoiner — the library's public facade.
//
// Wraps platform construction (SimContext), workload handling and the join
// driver behind one object, so applications can run co-processed hash joins
// in a few lines:
//
//   apujoin::core::CoupledJoiner joiner;                  // default APU
//   auto workload = apujoin::data::GenerateWorkload({...});
//   auto report = joiner.Join(*workload);                 // PHJ-PL
//   std::printf("%.3f s\n", report->elapsed_sec());
//
// Everything the paper evaluates is reachable through JoinConfig: SHJ/PHJ,
// CPU-only/GPU-only/OL/DD/PL/BasicUnit, coupled vs emulated-discrete,
// shared vs separate hash tables, allocator kind and block size, divergence
// grouping, explicit workload ratios, cache tracing, out-of-core execution.

#ifndef APUJOIN_CORE_COUPLED_JOINER_H_
#define APUJOIN_CORE_COUPLED_JOINER_H_

#include <memory>

#include "coproc/coarse_grained.h"
#include "coproc/join_driver.h"
#include "coproc/out_of_core.h"
#include "coproc/pipeline_runner.h"
#include "coproc/ratio_tuner.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "simcl/context.h"
#include "util/status.h"

namespace apujoin::core {

/// Full configuration of a CoupledJoiner. The execution backend (analytic
/// simulator vs real thread pool) is selected by `spec.engine.backend`.
struct JoinConfig {
  simcl::ContextOptions context;  ///< platform (devices, memory, arch mode)
  coproc::JoinSpec spec;          ///< algorithm, scheme, engine, backend
  /// Measurement feedback into calibration across this joiner's runs
  /// (--tune=off|once|online). Sim backend only: Join and RunPlan return
  /// InvalidArgument when it is on and the backend is a real one.
  cost::TuneMode tune = cost::TuneMode::kOff;
};

/// High-level join runner. Not thread-safe; one instance per stream of
/// joins (the simulated platform carries state such as the cache).
///
/// A CoupledJoiner is also the per-session facade of the join service:
/// constructed over a shared substrate it schedules through a
/// partial-capacity lease (its worker-slot quota) instead of an
/// exclusively-owned backend, while keeping everything per-session — the
/// machine model and the calibration state. Many leased joiners may run
/// concurrently on one substrate; each individual joiner stays
/// single-caller.
class CoupledJoiner {
 public:
  CoupledJoiner() : CoupledJoiner(JoinConfig()) {}
  explicit CoupledJoiner(JoinConfig config);

  /// Leased-session construction: schedules through `substrate->Lease(...)`
  /// with a quota of `slots` worker slots rather than owning a backend.
  /// `spec.engine.backend` is overridden to the substrate's kind (the two
  /// must agree for planning); `substrate` must outlive this joiner.
  CoupledJoiner(JoinConfig config, exec::Backend* substrate, int slots);

  /// Runs the configured join on a generated workload.
  apujoin::StatusOr<coproc::JoinReport> Join(const data::Workload& workload);

  /// Runs the configured join on raw relations (match count unknown up
  /// front; the result buffer is sized from the probe cardinality).
  apujoin::StatusOr<coproc::JoinReport> Join(const data::Relation& build,
                                             const data::Relation& probe);

  /// Runs an operator-plan tree (selections, hash/multi-way join, group-by)
  /// on this joiner's backend. The plan's own execution knobs apply, except
  /// the backend kind, which is overridden to this joiner's substrate; the
  /// session's ratio tuner wraps the run exactly as it wraps Join().
  /// Join and RunPlan return InvalidArgument when tuning is on and the
  /// backend is not the simulator.
  apujoin::StatusOr<coproc::JoinReport> RunPlan(const coproc::PlanSpec& plan);

  /// Runs the coarse-grained PHJ-PL' variant (Section 3.3 / Table 3).
  apujoin::StatusOr<coproc::JoinReport> JoinCoarse(
      const data::Workload& workload);

  /// Runs the out-of-core path for inputs larger than the zero-copy buffer.
  apujoin::StatusOr<coproc::OutOfCoreReport> JoinOutOfCore(
      const data::Workload& workload);

  simcl::SimContext& context() { return *ctx_; }
  /// The execution backend all joins of this instance schedule through
  /// (owned; exclusive instance or substrate lease depending on the
  /// constructor).
  exec::Backend& backend() { return *backend_; }
  const exec::Backend& backend() const { return *backend_; }
  /// The session's measurement-feedback loop (active when `config.tune` !=
  /// kOff, sim backend only): each Join absorbs measured step timings and
  /// the next Join runs with ratios re-optimized on them.
  const coproc::RatioTuner& tuner() const { return tuner_; }
  const JoinConfig& config() const { return config_; }
  coproc::JoinSpec& spec() { return config_.spec; }

 private:
  /// Applies tuning feedback around one driver invocation.
  apujoin::StatusOr<coproc::JoinReport> RunTuned(
      const data::Workload& workload);

  JoinConfig config_;
  std::unique_ptr<simcl::SimContext> ctx_;
  std::unique_ptr<exec::Backend> backend_;
  coproc::RatioTuner tuner_;
};

}  // namespace apujoin::core

#endif  // APUJOIN_CORE_COUPLED_JOINER_H_
