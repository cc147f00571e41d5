#include <gtest/gtest.h>

#include "core/coupled_joiner.h"
#include "fan_out.h"
#include "join/reference_join.h"

namespace apujoin::core {
namespace {

data::Workload MakeWorkload(uint64_t n, double sel = 1.0) {
  data::WorkloadSpec spec;
  spec.build_tuples = n;
  spec.probe_tuples = n * 2;
  spec.selectivity = sel;
  auto w = data::GenerateWorkload(spec);
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

TEST(CoupledJoinerTest, DefaultConfigJoins) {
  CoupledJoiner joiner;
  const data::Workload w = MakeWorkload(1 << 11);
  auto report = joiner.Join(w);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, w.expected_matches);
  EXPECT_GT(report->elapsed_sec(), 0.0);
}

TEST(CoupledJoinerTest, JoinRawRelations) {
  CoupledJoiner joiner;
  data::Relation build, probe;
  for (int32_t i = 0; i < 1000; ++i) build.Append(2 * i + 1, i);
  for (int32_t i = 0; i < 3000; ++i) probe.Append(2 * (i % 1000) + 1, i);
  auto report = joiner.Join(build, probe);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->matches, 3000u);

  // Fan-out: 256 matches per probe tuple, with nothing telling the joiner.
  const data::Workload fan = data::FanOutWorkload();
  auto fanned = joiner.Join(fan.build, fan.probe);
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  EXPECT_EQ(fanned->matches, join::ReferenceMatchCount(fan.build, fan.probe));
}

TEST(CoupledJoinerTest, ConfigSelectsSchemeAndAlgorithm) {
  JoinConfig config;
  config.spec.algorithm = coproc::Algorithm::kSHJ;
  config.spec.scheme = coproc::Scheme::kCpuOnly;
  CoupledJoiner joiner(config);
  const data::Workload w = MakeWorkload(1 << 10);
  auto report = joiner.Join(w);
  ASSERT_TRUE(report.ok());
  for (double r : report->build_ratios) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(CoupledJoinerTest, DiscreteEmulationThroughConfig) {
  JoinConfig config;
  config.context.arch = simcl::ArchMode::kDiscreteEmulated;
  config.spec.scheme = coproc::Scheme::kDataDivide;
  CoupledJoiner joiner(config);
  const data::Workload w = MakeWorkload(1 << 10);
  auto report = joiner.Join(w);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->breakdown.Get(simcl::Phase::kDataTransfer), 0.0);
}

TEST(CoupledJoinerTest, CoarseVariantAccessible) {
  CoupledJoiner joiner;
  joiner.spec().engine.partitions = 16;
  const data::Workload w = MakeWorkload(1 << 10);
  auto report = joiner.JoinCoarse(w);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->matches, w.expected_matches);
}

TEST(CoupledJoinerTest, OutOfCoreAccessible) {
  JoinConfig config;
  config.context.memory.zero_copy_bytes = 64.0 * 1024;
  CoupledJoiner joiner(config);
  const data::Workload w = MakeWorkload(1 << 12);
  auto report = joiner.JoinOutOfCore(w);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->chunked);
  EXPECT_EQ(report->matches, w.expected_matches);
}

TEST(CoupledJoinerTest, FasterThanCpuOnly) {
  // The paper's bottom line, at miniature scale: co-processing beats a
  // single device.
  const data::Workload w = MakeWorkload(1 << 13);
  JoinConfig cpu_cfg;
  cpu_cfg.spec.scheme = coproc::Scheme::kCpuOnly;
  JoinConfig pl_cfg;
  pl_cfg.spec.scheme = coproc::Scheme::kPipelined;
  CoupledJoiner cpu_joiner(cpu_cfg), pl_joiner(pl_cfg);
  auto cpu = cpu_joiner.Join(w);
  auto pl = pl_joiner.Join(w);
  ASSERT_TRUE(cpu.ok() && pl.ok());
  EXPECT_LT(pl->elapsed_ns, cpu->elapsed_ns);
}

}  // namespace
}  // namespace apujoin::core
