// Online (measurement-driven) calibration — closing the feedback loop of
// Section 4.2 against executed runs.
//
// CalibrateSeries instantiates the cost model analytically: it evaluates the
// device model at expected workload statistics. That is the only option
// before a join has run, but once the simulator has executed a step series
// the measured per-step, per-device timings are better information — they
// fold in what the analytic table only guesses at (divergence, skew,
// allocator traffic). The OnlineCalibrator turns those measurements into
// per-item unit costs, keeps an EWMA over repeated runs, and can overlay
// ("refine") an analytic StepCosts table so the paper's ratio optimizers
// re-run on measured numbers. coproc::RatioTuner drives it; tuning is a
// sim-backend feature (see coproc/ratio_tuner.h).

#ifndef APUJOIN_COST_ONLINE_CALIBRATION_H_
#define APUJOIN_COST_ONLINE_CALIBRATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "cost/abstract_model.h"
#include "simcl/device.h"

namespace apujoin::cost {

/// When (if ever) a session folds measured timings back into the tables the
/// ratio optimizers run on.
enum class TuneMode {
  kOff,     ///< analytic calibration only (the paper's default)
  kOnce,    ///< calibrate from the first run, then freeze
  kOnline,  ///< EWMA-update the measured table after every run
};

inline const char* TuneModeName(TuneMode m) {
  switch (m) {
    case TuneMode::kOff:    return "off";
    case TuneMode::kOnce:   return "once";
    case TuneMode::kOnline: return "online";
  }
  return "?";
}

/// Parses "off" / "once" / "online" (the --tune flag values). Returns false
/// and leaves `*out` untouched on anything else.
bool ParseTuneMode(const char* text, TuneMode* out);

/// Per-step, per-device measured unit costs (EWMA over runs).
///
/// Keys are step names ("b1".."b4", "p1".."p4", "n1".."n3") — the same
/// granularity as the analytic calibration table, so a measured entry can
/// replace its analytic counterpart one-for-one.
class OnlineCalibrator {
 public:
  /// EWMA weight of the newest sample.
  static constexpr double kAlpha = 0.5;
  /// Device slices smaller than this are ignored: their measured time is
  /// dominated by per-launch overhead, not per-item cost.
  static constexpr uint64_t kMinSliceItems = 64;

  /// Folds one measured device slice of `step` into the table: `items`
  /// executed in `elapsed_ns`. Slices below kMinSliceItems (or with
  /// non-positive time) are ignored.
  void Observe(const std::string& step, simcl::DeviceId dev, uint64_t items,
               double elapsed_ns);

  /// True if `step` has at least one accepted observation on `dev`.
  bool Has(const std::string& step, simcl::DeviceId dev) const;

  /// Current EWMA unit cost (ns/item); 0.0 when unobserved.
  double UnitCostNs(const std::string& step, simcl::DeviceId dev) const;

  /// Accepted observation count for one step/device.
  uint64_t observations(const std::string& step, simcl::DeviceId dev) const;

  /// Steps with at least one measured device.
  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }

  /// Overlays measurements onto an analytic table: every entry with a
  /// measured unit cost on a device has that device's analytic cost
  /// replaced; unmeasured slots keep the analytic value. Optimizers
  /// consuming the result run on measured numbers wherever a run has
  /// measured them.
  StepCosts Refine(const StepCosts& analytic) const;

 private:
  struct Entry {
    double unit_ns[simcl::kNumDevices] = {0.0, 0.0};
    uint64_t samples[simcl::kNumDevices] = {0, 0};
  };

  std::map<std::string, Entry> table_;
};

}  // namespace apujoin::cost

#endif  // APUJOIN_COST_ONLINE_CALIBRATION_H_
