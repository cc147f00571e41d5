#include "cost/optimizer.h"

#include <algorithm>
#include <cmath>

namespace apujoin::cost {

namespace {

double Evaluate(const StepCosts& costs, uint64_t n,
                const std::vector<double>& ratios, const CommSpec& comm) {
  return EstimateSeries(costs, n, ratios, comm).elapsed_ns;
}

std::vector<double> RatioGrid(double delta) {
  std::vector<double> grid;
  for (double r = 0.0; r < 1.0 + 1e-9; r += delta) {
    grid.push_back(std::min(r, 1.0));
  }
  if (grid.back() < 1.0) grid.push_back(1.0);
  return grid;
}

RatioPlan CoordinateDescent(const StepCosts& costs, uint64_t n,
                            const CommSpec& comm, double delta,
                            std::vector<double> start) {
  const std::vector<double> grid = RatioGrid(delta);
  RatioPlan best{start, Evaluate(costs, n, start, comm)};
  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < 32) {
    improved = false;
    for (size_t i = 0; i < best.ratios.size(); ++i) {
      std::vector<double> trial = best.ratios;
      for (double r : grid) {
        trial[i] = r;
        const double t = Evaluate(costs, n, trial, comm);
        if (t < best.predicted_ns - 1e-9) {
          best.predicted_ns = t;
          best.ratios = trial;
          improved = true;
        }
      }
    }
  }
  return best;
}

}  // namespace

RatioPlan OptimizeDataDividing(const StepCosts& costs, uint64_t n,
                               const CommSpec& comm, double delta) {
  RatioPlan best;
  best.ratios.assign(costs.size(), 0.0);
  best.predicted_ns = Evaluate(costs, n, best.ratios, comm);
  for (double r : RatioGrid(delta)) {
    std::vector<double> ratios(costs.size(), r);
    const double t = Evaluate(costs, n, ratios, comm);
    if (t < best.predicted_ns) {
      best.predicted_ns = t;
      best.ratios = ratios;
    }
  }
  return best;
}

RatioPlan OptimizeOffloading(const StepCosts& costs, uint64_t n,
                             const CommSpec& comm) {
  // 2^n assignments; series have <= 4 steps, so enumerate exactly as the
  // paper describes for the discrete architecture.
  const size_t steps = costs.size();
  RatioPlan best;
  best.ratios.assign(steps, 0.0);
  best.predicted_ns = Evaluate(costs, n, best.ratios, comm);
  for (uint32_t mask = 1; mask < (1u << steps); ++mask) {
    std::vector<double> ratios(steps, 0.0);
    for (size_t i = 0; i < steps; ++i) {
      ratios[i] = (mask >> i) & 1u ? 1.0 : 0.0;
    }
    const double t = Evaluate(costs, n, ratios, comm);
    if (t < best.predicted_ns) {
      best.predicted_ns = t;
      best.ratios = ratios;
    }
  }
  return best;
}

RatioPlan OptimizePipelined(const StepCosts& costs, uint64_t n,
                            const CommSpec& comm, double delta) {
  const size_t steps = costs.size();
  if (steps <= 3) {
    const std::vector<double> grid = RatioGrid(delta);
    RatioPlan best;
    best.ratios.assign(steps, 0.0);
    best.predicted_ns = Evaluate(costs, n, best.ratios, comm);
    std::vector<double> ratios(steps, 0.0);
    const size_t g = grid.size();
    std::vector<size_t> idx(steps, 0);
    while (true) {
      for (size_t i = 0; i < steps; ++i) ratios[i] = grid[idx[i]];
      const double t = Evaluate(costs, n, ratios, comm);
      if (t < best.predicted_ns) {
        best.predicted_ns = t;
        best.ratios = ratios;
      }
      size_t k = 0;
      while (k < steps && ++idx[k] == g) idx[k++] = 0;
      if (k == steps) break;
    }
    return best;
  }
  // Longer series: coordinate descent from three seeds.
  RatioPlan best = CoordinateDescent(costs, n, comm, delta,
                                     OptimizeDataDividing(costs, n, comm,
                                                          delta).ratios);
  const RatioPlan from_ol = CoordinateDescent(
      costs, n, comm, delta, OptimizeOffloading(costs, n, comm).ratios);
  if (from_ol.predicted_ns < best.predicted_ns) best = from_ol;
  const RatioPlan from_mid = CoordinateDescent(
      costs, n, comm, delta, std::vector<double>(costs.size(), 0.5));
  if (from_mid.predicted_ns < best.predicted_ns) best = from_mid;
  return best;
}

}  // namespace apujoin::cost
