// Quickstart: run one co-processed hash join through the public facade.
//
//   $ ./build/examples/quickstart
//
// Generates a 1M x 4M foreign-key workload, joins it with the default
// configuration (PHJ + fine-grained pipelined co-processing on the coupled
// APU), and prints the result count, the time breakdown and the per-step
// schedule the cost model chose. On --backend=threads there is no model:
// every step runs at ratio 1.0 on the CPU lane.

#include <cstdio>

#include "core/coupled_joiner.h"
#include "example_common.h"

int main(int argc, char** argv) {
  using namespace apujoin;

  // 1. Describe and generate a workload (or bring your own Relations).
  data::WorkloadSpec wspec;
  wspec.build_tuples = 1 << 20;   // R: 1M tuples, unique keys
  wspec.probe_tuples = 4 << 20;   // S: 4M tuples, every tuple matches
  auto workload = data::GenerateWorkload(wspec);
  APU_CHECK_OK(workload.status());

  // 2. Create a joiner. Defaults: coupled APU platform, PHJ, PL scheme,
  //    shared hash table, optimized allocator with 2KB blocks, analytic
  //    sim backend (--backend=threads executes on a real thread pool).
  core::JoinConfig config;
  examples::ApplyBackendFlags(argc, argv, &config.spec.engine);
  core::CoupledJoiner joiner(config);

  // 3. Join.
  auto report = joiner.Join(*workload);
  APU_CHECK_OK(report.status());

  // 4. Inspect the outcome.
  const bool sim = config.spec.engine.backend == exec::BackendKind::kSim;
  std::printf("matches:        %llu\n",
              static_cast<unsigned long long>(report->matches));
  std::printf("elapsed:        %.3f s (%s)\n", report->elapsed_sec(),
              sim ? "simulated APU time" : "wall-clock on the thread pool");
  if (sim) {
    std::printf("model estimate: %.3f s\n", report->estimated_ns * 1e-9);
  }
  std::printf("lock overhead:  %.3f s\n", report->lock_ns * 1e-9);
  std::printf("\nphase breakdown:\n");
  for (int p = 0; p < simcl::kNumPhases; ++p) {
    const auto phase = static_cast<simcl::Phase>(p);
    const double ns = report->breakdown.Get(phase);
    if (ns > 0.0) {
      std::printf("  %-13s %.3f s\n", simcl::PhaseName(phase), ns * 1e-9);
    }
  }
  std::printf("\nper-step schedule (CPU share %s):\n",
              sim ? "chosen by the cost model" : "1.0 on a real backend");
  for (const auto& s : report->steps) {
    std::printf("  %-14s %-3s CPU %3.0f%% / GPU %3.0f%%\n", s.phase.c_str(),
                s.name.c_str(), s.ratio * 100.0, (1.0 - s.ratio) * 100.0);
  }
  return 0;
}
