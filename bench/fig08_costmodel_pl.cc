// Figure 8: estimated vs measured time for the paper's special case of PL:
// offload b1 and p1 entirely to the GPU, apply one data-dividing ratio r to
// all the other steps; sweep r.
//
// Shape target: prediction tracks measurement across r and identifies the
// suitable r.

#include "bench_common.h"

namespace apujoin::bench {
namespace {

using coproc::JoinSpec;
using simcl::Phase;

void Run() {
  PrintBanner("Figure 8",
              "cost model vs measurement, special-case PL (b1/p1 on GPU)");
  const uint64_t n = Scaled(16ull << 20);
  const data::Workload w = MakeWorkload(n, n);

  for (bool build_phase : {true, false}) {
    std::printf("\n-- %s phase (b1/p1 pinned to GPU, other steps at r) --\n",
                build_phase ? "build" : "probe");
    TablePrinter table({"r", "measured(s)", "estimated(s)"});
    for (int pct = 0; pct <= 100; pct += 10) {
      const double r = pct / 100.0;
      simcl::SimContext ctx = MakeContext();
      JoinSpec spec;
      spec.algorithm = coproc::Algorithm::kSHJ;
      spec.scheme = coproc::Scheme::kPipelined;
      if (build_phase) {
        spec.build_ratios = {0.0, r, r, r};
        spec.probe_ratios = {0.0, 0.42, 0.42, 0.42};
      } else {
        spec.build_ratios = {0.0, 0.25, 0.25, 0.25};
        spec.probe_ratios = {0.0, r, r, r};
      }
      const coproc::JoinReport rep = MustJoin(&ctx, w, spec);
      const double measured = rep.breakdown.Get(
          build_phase ? Phase::kBuild : Phase::kProbe);
      const double estimated =
          rep.estimated_ns * (measured / std::max(rep.elapsed_ns, 1.0));
      table.AddRow({TablePrinter::FmtPercent(r, 0), Secs(measured),
                    Secs(estimated)});
    }
    table.Print();
  }
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::RequireSimBackend(
      "Figure 8 compares the cost model's estimate with the simulated time");
  apujoin::bench::Run();
}
