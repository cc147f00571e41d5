// Section 5.4 "Workload divergence": the grouping-based divergence
// reduction, evaluated on skewed probes.
//
// Shape targets: grouping improves the overall join by ~5-10%, with a
// larger effect on GPU-heavy schedules (lock-step wavefronts have no
// branch prediction to hide divergence behind).

#include "bench_common.h"

namespace apujoin::bench {
namespace {

using coproc::JoinSpec;

void Run() {
  PrintBanner("Section 5.4", "grouping-based workload-divergence reduction");
  const uint64_t n = Scaled(16ull << 20);

  TablePrinter table({"distribution", "scheme", "no grouping(s)",
                      "grouping(s)", "gain", "p4 divergence w/o", "with"});
  for (data::Distribution dist :
       {data::Distribution::kLowSkew, data::Distribution::kHighSkew}) {
    const data::Workload w = MakeWorkload(n, n, dist);
    for (coproc::Scheme scheme :
         {coproc::Scheme::kGpuOnly, coproc::Scheme::kPipelined}) {
      double times[2];
      double divergence[2] = {1.0, 1.0};
      for (int g = 0; g < 2; ++g) {
        simcl::SimContext ctx = MakeContext();
        JoinSpec spec;
        spec.algorithm = coproc::Algorithm::kSHJ;
        spec.scheme = scheme;
        spec.engine.grouping = g == 1;
        const coproc::JoinReport rep = MustJoin(&ctx, w, spec);
        times[g] = rep.elapsed_ns;
        for (const auto& s : rep.steps) {
          if (s.name == "p4") divergence[g] = s.gpu_divergence;
        }
      }
      table.AddRow({DistributionName(dist), SchemeName(scheme),
                    Secs(times[0]), Secs(times[1]),
                    TablePrinter::FmtPercent(1.0 - times[1] / times[0]),
                    TablePrinter::Fmt(divergence[0], 2),
                    TablePrinter::Fmt(divergence[1], 2)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::RequireSimBackend(
      "divergence grouping reorders the GPU lane");
  apujoin::bench::Run();
}
