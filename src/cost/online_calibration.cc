#include "cost/online_calibration.h"

#include <cstring>

namespace apujoin::cost {

bool ParseTuneMode(const char* text, TuneMode* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "off") == 0) {
    *out = TuneMode::kOff;
    return true;
  }
  if (std::strcmp(text, "once") == 0) {
    *out = TuneMode::kOnce;
    return true;
  }
  if (std::strcmp(text, "online") == 0) {
    *out = TuneMode::kOnline;
    return true;
  }
  return false;
}

void OnlineCalibrator::Observe(const std::string& step, simcl::DeviceId dev,
                               uint64_t items, double elapsed_ns) {
  if (items < kMinSliceItems || elapsed_ns <= 0.0) return;
  const double sample = elapsed_ns / static_cast<double>(items);
  Entry& e = table_[step];
  const int d = static_cast<int>(dev);
  if (e.samples[d] == 0) {
    e.unit_ns[d] = sample;
  } else {
    e.unit_ns[d] = kAlpha * sample + (1.0 - kAlpha) * e.unit_ns[d];
  }
  ++e.samples[d];
}

bool OnlineCalibrator::Has(const std::string& step,
                           simcl::DeviceId dev) const {
  const auto it = table_.find(step);
  return it != table_.end() && it->second.samples[static_cast<int>(dev)] > 0;
}

double OnlineCalibrator::UnitCostNs(const std::string& step,
                                    simcl::DeviceId dev) const {
  const auto it = table_.find(step);
  if (it == table_.end()) return 0.0;
  return it->second.unit_ns[static_cast<int>(dev)];
}

uint64_t OnlineCalibrator::observations(const std::string& step,
                                        simcl::DeviceId dev) const {
  const auto it = table_.find(step);
  if (it == table_.end()) return 0;
  return it->second.samples[static_cast<int>(dev)];
}

StepCosts OnlineCalibrator::Refine(const StepCosts& analytic) const {
  StepCosts out = analytic;
  for (StepCost& c : out) {
    const auto it = table_.find(c.name);
    if (it == table_.end()) continue;
    const Entry& e = it->second;
    if (e.samples[0] > 0) c.cpu_ns_per_item = e.unit_ns[0];
    if (e.samples[1] > 0) c.gpu_ns_per_item = e.unit_ns[1];
  }
  return out;
}

}  // namespace apujoin::cost
