// Figure 4: per-tuple unit cost of each fine-grained step (n1..n3 of the
// partitioning pass, b1..b4 of the build, p1..p4 of the probe) on the CPU
// vs the GPU, for PHJ at default scale.
//
// Shape targets: hash-computation steps (n1, b1, p1) >= 15x faster on the
// GPU; key-list traversal (b3, p3) roughly at parity.

#include "cost/calibration.h"
#include "join/partitioned_hash_join.h"

#include "bench_common.h"

namespace apujoin::bench {
namespace {

void Run() {
  PrintBanner("Figure 4", "per-step unit costs on CPU and GPU (PHJ)");
  const uint64_t n = Scaled(16ull << 20);
  const data::Workload w = MakeWorkload(n, n);
  simcl::SimContext ctx = MakeContext();

  join::PhjEngine engine(&ctx, &w.build, &w.probe, join::EngineOptions());
  APU_CHECK_OK(engine.Prepare());
  const uint32_t parts = engine.num_partitions();

  cost::WorkloadStats stats;
  stats.build_tuples = n;
  stats.probe_tuples = n;
  stats.buckets = join::NextPow2(std::max<uint64_t>(n / parts, 8));
  stats.distinct_keys = static_cast<double>(n) / parts;
  stats.match_rate = 1.0;

  TablePrinter table({"step", "CPU(ns/tuple)", "GPU(ns/tuple)", "GPU speedup"});
  auto add_series = [&](std::vector<join::StepDef> steps) {
    const cost::StepCosts costs = cost::CalibrateSeries(ctx, steps, stats);
    for (const auto& c : costs) {
      table.AddRow({c.name, TablePrinter::Fmt(c.cpu_ns_per_item, 2),
                    TablePrinter::Fmt(c.gpu_ns_per_item, 2),
                    TablePrinter::Fmt(c.cpu_ns_per_item / c.gpu_ns_per_item,
                                      1) +
                        "x"});
    }
  };

  engine.build_partitioner()->BeginPass(0);
  add_series(engine.build_partitioner()->PassSteps(0));
  // The join-phase series need partition offsets; run the partitioners
  // silently (all-CPU, we only need the structure).
  for (int side = 0; side < 2; ++side) {
    join::RadixPartitioner* part = side == 0 ? engine.build_partitioner()
                                             : engine.probe_partitioner();
    for (int pass = 0; pass < part->passes(); ++pass) {
      part->BeginPass(pass);
      auto steps = part->PassSteps(pass);
      for (auto& step : steps) {
        step.run(join::Morsel{0, step.items}, simcl::DeviceId::kCpu,
                 nullptr);
      }
      part->EndPass(pass);
    }
  }
  APU_CHECK_OK(engine.PrepareJoinPhase());
  add_series(engine.BuildSteps());
  join::ResultWriter writer(w.expected_matches + (1 << 20),
                            alloc::AllocatorKind::kOptimized, 2048);
  add_series(engine.ProbeSteps(&writer));
  table.Print();
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::RequireSimBackend(
      "Figure 4 prints the cost model's per-step unit costs");
  apujoin::bench::Run();
}
