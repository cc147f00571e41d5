// Unit tests for the measurement-driven calibration math: EWMA behaviour,
// noise filtering, and the measured-over-analytic table overlay.

#include <gtest/gtest.h>

#include "cost/online_calibration.h"

namespace apujoin::cost {
namespace {

using simcl::DeviceId;

TEST(ParseTuneModeTest, ParsesFlagValues) {
  TuneMode m = TuneMode::kOff;
  EXPECT_TRUE(ParseTuneMode("online", &m));
  EXPECT_EQ(m, TuneMode::kOnline);
  EXPECT_TRUE(ParseTuneMode("once", &m));
  EXPECT_EQ(m, TuneMode::kOnce);
  EXPECT_TRUE(ParseTuneMode("off", &m));
  EXPECT_EQ(m, TuneMode::kOff);
  EXPECT_FALSE(ParseTuneMode("sometimes", &m));
  EXPECT_FALSE(ParseTuneMode(nullptr, &m));
  EXPECT_EQ(m, TuneMode::kOff);  // untouched on failure
}

TEST(OnlineCalibratorTest, FirstObservationSetsUnitCost) {
  OnlineCalibrator calib;
  EXPECT_FALSE(calib.Has("p4", DeviceId::kCpu));
  EXPECT_DOUBLE_EQ(calib.UnitCostNs("p4", DeviceId::kCpu), 0.0);

  calib.Observe("p4", DeviceId::kCpu, 1000, 5000.0);
  EXPECT_TRUE(calib.Has("p4", DeviceId::kCpu));
  EXPECT_FALSE(calib.Has("p4", DeviceId::kGpu));  // per-device
  EXPECT_DOUBLE_EQ(calib.UnitCostNs("p4", DeviceId::kCpu), 5.0);
  EXPECT_EQ(calib.observations("p4", DeviceId::kCpu), 1u);
}

TEST(OnlineCalibratorTest, EwmaConvergesToStableSignal) {
  OnlineCalibrator calib;  // alpha 0.5
  // Start far off (100 ns/item), then feed a stable 2 ns/item signal: the
  // EWMA closes the 98 ns gap geometrically — within 98 * 0.5^k after k
  // runs — and lands within 1% of the signal in 14 runs.
  calib.Observe("b3", DeviceId::kGpu, 1000, 100000.0);
  double prev_err = 98.0;
  for (int i = 0; i < 14; ++i) {
    calib.Observe("b3", DeviceId::kGpu, 1000, 2000.0);
    const double err = calib.UnitCostNs("b3", DeviceId::kGpu) - 2.0;
    EXPECT_LT(err, prev_err);  // monotone convergence on a stable signal
    prev_err = err;
  }
  EXPECT_NEAR(calib.UnitCostNs("b3", DeviceId::kGpu), 2.0, 2.0 * 0.01);
}

TEST(OnlineCalibratorTest, EwmaWeighsNewestSample) {
  OnlineCalibrator calib;
  calib.Observe("p1", DeviceId::kCpu, 100, 400.0);   // 4 ns/item
  calib.Observe("p1", DeviceId::kCpu, 100, 800.0);   // 8 ns/item sample
  // 0.5 * 8 + 0.5 * 4 = 6.
  EXPECT_DOUBLE_EQ(calib.UnitCostNs("p1", DeviceId::kCpu), 6.0);
  calib.Observe("p1", DeviceId::kCpu, 100, 1000.0);  // 10 ns/item sample
  // 0.5 * 10 + 0.5 * 6 = 8: each older sample's weight halves per run.
  EXPECT_DOUBLE_EQ(calib.UnitCostNs("p1", DeviceId::kCpu), 8.0);
}

TEST(OnlineCalibratorTest, IgnoresTinyAndDegenerateSlices) {
  OnlineCalibrator calib;
  constexpr uint64_t kTiny = OnlineCalibrator::kMinSliceItems - 1;
  calib.Observe("p2", DeviceId::kCpu, kTiny, 1e6);  // below the floor
  calib.Observe("p2", DeviceId::kCpu, 1000, 0.0);  // no measured time
  calib.Observe("p2", DeviceId::kCpu, 0, 100.0);
  EXPECT_FALSE(calib.Has("p2", DeviceId::kCpu));
  EXPECT_TRUE(calib.empty());
}

TEST(OnlineCalibratorTest, RefineReplacesOnlyMeasuredSlots) {
  OnlineCalibrator calib;
  calib.Observe("p3", DeviceId::kCpu, 1000, 3000.0);  // 3 ns/item, CPU only
  calib.Observe("p4", DeviceId::kCpu, 1000, 7000.0);
  calib.Observe("p4", DeviceId::kGpu, 1000, 9000.0);

  StepCosts analytic;
  for (const char* name : {"p1", "p3", "p4"}) {
    StepCost c;
    c.name = name;
    c.cpu_ns_per_item = 100.0;
    c.gpu_ns_per_item = 200.0;
    analytic.push_back(c);
  }
  const StepCosts refined = calib.Refine(analytic);
  ASSERT_EQ(refined.size(), 3u);
  // p1: unmeasured, analytic survives on both devices.
  EXPECT_DOUBLE_EQ(refined[0].cpu_ns_per_item, 100.0);
  EXPECT_DOUBLE_EQ(refined[0].gpu_ns_per_item, 200.0);
  // p3: CPU measured, GPU analytic.
  EXPECT_DOUBLE_EQ(refined[1].cpu_ns_per_item, 3.0);
  EXPECT_DOUBLE_EQ(refined[1].gpu_ns_per_item, 200.0);
  // p4: fully measured — the analytic table is fully swapped out.
  EXPECT_DOUBLE_EQ(refined[2].cpu_ns_per_item, 7.0);
  EXPECT_DOUBLE_EQ(refined[2].gpu_ns_per_item, 9.0);
}

}  // namespace
}  // namespace apujoin::cost
