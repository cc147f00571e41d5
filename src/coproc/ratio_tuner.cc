#include "coproc/ratio_tuner.h"

#include <string>

namespace apujoin::coproc {

using simcl::DeviceId;

void RatioTuner::Absorb(const JoinReport& report) {
  if (mode_ == cost::TuneMode::kOff) return;
  // kOnce freezes the table after the first run; later runs only count.
  const bool frozen = mode_ == cost::TuneMode::kOnce && runs_ > 0;
  if (!frozen) {
    for (const StepReport& s : report.steps) {
      // The modelled share: the cost model excludes lock contention by
      // construction, so the table must too.
      calib_.Observe(s.name, DeviceId::kCpu, s.cpu_items, s.cpu_modeled_ns);
      calib_.Observe(s.name, DeviceId::kGpu, s.gpu_items, s.gpu_modeled_ns);
    }
  }
  ++runs_;
}

apujoin::Status RatioTuner::Prepare(JoinSpec* spec) const {
  if (mode_ == cost::TuneMode::kOff) return apujoin::Status::OK();
  if (spec->engine.backend != exec::BackendKind::kSim) {
    return apujoin::Status::InvalidArgument(
        std::string("ratio tuning (tune=") + cost::TuneModeName(mode_) +
        ") runs on the sim backend only, not on " +
        exec::BackendKindName(spec->engine.backend));
  }
  if (runs_ > 0) spec->measured_costs = &calib_;
  return apujoin::Status::OK();
}

}  // namespace apujoin::coproc
