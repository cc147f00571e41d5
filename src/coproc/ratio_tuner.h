// RatioTuner — the session-level feedback loop between executed joins and
// the ratio optimizer, on the simulator.
//
// The paper picks per-step CPU/GPU ratios from an analytically instantiated
// cost model (Section 4.2). That is the only option for the first run, but
// a session of repeated (identical or similar) joins can do better: after
// each run the tuner folds the measured per-step, per-device timings into
// an OnlineCalibrator, and before the next run it attaches the measured
// table to the JoinSpec so the driver's optimizers re-run on it. Ratios
// thereby converge from analytic guesses to measured-cost optima.
//
// Tuning is a sim-backend feature. The optimizers assume two devices
// running concurrently, which is what the simulator executes; a real
// backend runs both logical-device lanes back to back on the same cores,
// where a ratio only splits the same work differently. Prepare rejects a
// tuned spec on any other backend.

#ifndef APUJOIN_COPROC_RATIO_TUNER_H_
#define APUJOIN_COPROC_RATIO_TUNER_H_

#include "coproc/join_driver.h"
#include "cost/online_calibration.h"
#include "util/status.h"

namespace apujoin::coproc {

/// Per-session ratio tuner. Not thread-safe; one instance per stream of
/// joins (mirrors core::CoupledJoiner).
class RatioTuner {
 public:
  explicit RatioTuner(cost::TuneMode mode) : mode_(mode) {}

  /// Prepares `spec` for the next run: attaches the measured table once at
  /// least one run has been absorbed. No-op while mode is kOff. Returns
  /// InvalidArgument when tuning is on and `spec` targets a backend other
  /// than the simulator.
  apujoin::Status Prepare(JoinSpec* spec) const;

  /// Folds a finished run's measured step timings into the table (kOnce:
  /// first run only).
  void Absorb(const JoinReport& report);

  cost::TuneMode mode() const { return mode_; }
  int runs() const { return runs_; }
  const cost::OnlineCalibrator& calibrator() const { return calib_; }

 private:
  cost::TuneMode mode_;
  cost::OnlineCalibrator calib_;
  int runs_ = 0;
};

}  // namespace apujoin::coproc

#endif  // APUJOIN_COPROC_RATIO_TUNER_H_
