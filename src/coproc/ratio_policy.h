// The one ratio policy: how every runner (the pipeline runner's operators,
// the out-of-core and coarse-grained partition passes) picks the per-step
// CPU ratios of a step series.
//
// The paper's ratios, and the cost model that picks them (Sections 3.2 and
// 4), price two devices that run at the same time. That is the machine the
// sim backend executes. A real backend runs a step's two lanes one after
// the other on the same workers, so a ratio only splits one span into two:
// there, every step runs at ratio 1.0 — one CPU-lane span, an empty GPU
// lane — and the cost model is never consulted. Ratio overrides are the
// exception on both backends: they are validated and applied verbatim.

#ifndef APUJOIN_COPROC_RATIO_POLICY_H_
#define APUJOIN_COPROC_RATIO_POLICY_H_

#include <cstdint>
#include <vector>

#include "coproc/schemes.h"
#include "cost/abstract_model.h"
#include "cost/calibration.h"
#include "cost/online_calibration.h"
#include "exec/backend.h"
#include "join/steps.h"
#include "util/status.h"

namespace apujoin::coproc {

/// The ratios one step series runs at, with what the model says of them.
struct SeriesPlan {
  std::vector<double> ratios;  ///< one CPU share per step
  /// Calibrated per-step unit costs and the model's estimate of the series
  /// at `ratios`. Sim backend only: empty and 0 on real backends.
  cost::StepCosts costs;
  double estimated_ns = 0.0;
};

/// Picks the ratios of `steps`, a series over `n` input items. `overrides`
/// (1 value broadcasts, else one per step, each a finite share in [0,1]) win
/// on every backend; a bad override is InvalidArgument naming `which`.
/// Without overrides a real backend gets 1.0 for every step, and the sim
/// calibrates the series at `stats` (overlaying `measured` when non-null)
/// and runs `scheme`'s optimizer (BasicUnit: DD's).
apujoin::StatusOr<SeriesPlan> PlanSeries(
    const exec::Backend& backend, const char* which, Scheme scheme,
    const std::vector<join::StepDef>& steps, const cost::WorkloadStats& stats,
    uint64_t n, const cost::CommSpec& comm,
    const std::vector<double>& overrides,
    const cost::OnlineCalibrator* measured = nullptr);

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_RATIO_POLICY_H_
