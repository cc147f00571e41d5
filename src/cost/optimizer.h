// Ratio optimization over the abstract cost model (Section 3.2).
//
// The paper enumerates candidate ratios at a granularity of delta = 0.02 and
// picks the best model estimate. DD constrains all steps of a series to one
// ratio; OL constrains each ratio to {0, 1}; PL searches per-step ratios
// (exhaustive for short series, coordinate descent with restarts for longer
// ones — the model is cheap, the space is smooth).
//
// Every optimizer prices a series with EstimateSeries: both devices run at
// the same time and unlike neighbouring steps pay the pipelined delay. That
// is the machine the simulator executes, so the plans (and measured-cost
// re-plans, see coproc/ratio_tuner.h) are meaningful there — and only
// there: coproc::PlanSeries (coproc/ratio_policy.h) calls them on the sim
// backend only.

#ifndef APUJOIN_COST_OPTIMIZER_H_
#define APUJOIN_COST_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "cost/abstract_model.h"

namespace apujoin::cost {

/// An optimized ratio assignment and its predicted time.
struct RatioPlan {
  std::vector<double> ratios;
  double predicted_ns = 0.0;
};

/// The paper's search granularity.
inline constexpr double kDefaultDelta = 0.02;

/// DD: one ratio for the whole series.
RatioPlan OptimizeDataDividing(const StepCosts& costs, uint64_t n,
                               const CommSpec& comm = CommSpec(),
                               double delta = kDefaultDelta);

/// OL: each step entirely on the cheaper device (ratios in {0,1}),
/// accounting for pipelined-delay serialisation between unlike steps.
RatioPlan OptimizeOffloading(const StepCosts& costs, uint64_t n,
                             const CommSpec& comm = CommSpec());

/// PL: per-step ratios at granularity delta. Exhaustive for series of up to
/// 3 steps; coordinate descent seeded from the DD and OL optima otherwise.
RatioPlan OptimizePipelined(const StepCosts& costs, uint64_t n,
                            const CommSpec& comm = CommSpec(),
                            double delta = kDefaultDelta);

}  // namespace apujoin::cost

#endif  // APUJOIN_COST_OPTIMIZER_H_
