#include "coproc/ratio_policy.h"

#include <cmath>
#include <string>
#include <utility>

#include "cost/optimizer.h"

namespace apujoin::coproc {

using apujoin::Status;
using apujoin::StatusOr;

namespace {

/// Validates a user-supplied ratio override: sizes must broadcast (1) or
/// match the series, and every value must be a finite CPU share in [0,1].
Status ValidateRatioOverride(const char* which,
                             const std::vector<double>& ratios,
                             size_t steps) {
  if (ratios.empty()) return Status::OK();
  if (ratios.size() != 1 && ratios.size() != steps) {
    return Status::InvalidArgument(
        std::string(which) + " ratio override has " +
        std::to_string(ratios.size()) + " entries; want 1 or " +
        std::to_string(steps));
  }
  for (size_t i = 0; i < ratios.size(); ++i) {
    const double r = ratios[i];
    if (!std::isfinite(r) || r < 0.0 || r > 1.0) {
      return Status::InvalidArgument(
          std::string(which) + " ratio override [" + std::to_string(i) +
          "] = " + std::to_string(r) + " is not a CPU share in [0,1]");
    }
  }
  return Status::OK();
}

/// The sim's scheme optimizers over calibrated `costs`.
StatusOr<std::vector<double>> OptimizeRatios(Scheme scheme,
                                             const cost::StepCosts& costs,
                                             uint64_t n,
                                             const cost::CommSpec& comm) {
  switch (scheme) {
    case Scheme::kCpuOnly:
      return std::vector<double>(costs.size(), 1.0);
    case Scheme::kGpuOnly:
      return std::vector<double>(costs.size(), 0.0);
    case Scheme::kOffload:
      return cost::OptimizeOffloading(costs, n, comm).ratios;
    case Scheme::kDataDivide:
    case Scheme::kBasicUnit:  // BasicUnit schedules dynamically; no ratios
      return cost::OptimizeDataDividing(costs, n, comm).ratios;
    case Scheme::kPipelined:
      return cost::OptimizePipelined(costs, n, comm).ratios;
  }
  return Status::Internal("unknown scheme");
}

}  // namespace

StatusOr<SeriesPlan> PlanSeries(const exec::Backend& backend,
                                const char* which, Scheme scheme,
                                const std::vector<join::StepDef>& steps,
                                const cost::WorkloadStats& stats, uint64_t n,
                                const cost::CommSpec& comm,
                                const std::vector<double>& overrides,
                                const cost::OnlineCalibrator* measured) {
  SeriesPlan plan;
  if (backend.kind() != exec::BackendKind::kSim) {
    if (!overrides.empty()) {
      return Status::InvalidArgument(
          std::string(which) +
          " ratio override requires the sim backend: a real backend runs "
          "on one lane, with each join phase as one fused kernel");
    }
    plan.ratios.assign(steps.size(), 1.0);
    return plan;
  }
  APU_RETURN_IF_ERROR(ValidateRatioOverride(which, overrides, steps.size()));
  if (overrides.size() == 1) {
    plan.ratios.assign(steps.size(), overrides[0]);
  } else if (!overrides.empty()) {
    plan.ratios = overrides;
  }
  plan.costs = cost::CalibrateSeries(*backend.context(), steps, stats);
  if (measured != nullptr) plan.costs = measured->Refine(plan.costs);
  if (plan.ratios.empty()) {
    auto optimized = OptimizeRatios(scheme, plan.costs, n, comm);
    if (!optimized.ok()) return optimized.status();
    plan.ratios = std::move(optimized).value();
  }
  plan.estimated_ns =
      cost::EstimateSeries(plan.costs, n, plan.ratios, comm).elapsed_ns;
  return plan;
}

}  // namespace apujoin::coproc
