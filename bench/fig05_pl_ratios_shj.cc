// Figure 5: optimal per-step workload ratios of SHJ-PL on the coupled
// architecture (build b1..b4 and probe p1..p4).
//
// Shape targets: ratios vary widely across steps; the hash steps (b1/p1)
// lean almost entirely GPU; the key-list steps (b3/p3) carry a large CPU
// share; consecutive unlike ratios imply intermediate results (the grey
// areas of the paper's figure), printed as "crossing%".

#include "bench_common.h"

namespace apujoin::bench {
namespace {

void Run() {
  PrintBanner("Figure 5", "optimal per-step ratios, SHJ-PL (coupled)");
  const uint64_t n = Scaled(16ull << 20);
  const data::Workload w = MakeWorkload(n, n);
  simcl::SimContext ctx = MakeContext();
  coproc::JoinSpec spec;
  spec.algorithm = coproc::Algorithm::kSHJ;
  spec.scheme = coproc::Scheme::kPipelined;
  const coproc::JoinReport rep = MustJoin(&ctx, w, spec);

  TablePrinter table({"phase", "step", "CPU%", "GPU%", "crossing%"});
  double prev = -1.0;
  std::string prev_phase;
  for (const auto& s : rep.steps) {
    const double crossing =
        (prev < 0.0 || s.phase != prev_phase) ? 0.0 : std::abs(s.ratio - prev);
    table.AddRow({s.phase, s.name, TablePrinter::FmtPercent(s.ratio, 0),
                  TablePrinter::FmtPercent(1.0 - s.ratio, 0),
                  TablePrinter::FmtPercent(crossing, 0)});
    prev = s.ratio;
    prev_phase = s.phase;
  }
  table.Print();
  std::printf("\ntotal elapsed: %s s (matches=%llu)\n",
              Secs(rep.elapsed_ns).c_str(),
              static_cast<unsigned long long>(rep.matches));
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::RequireSimBackend(
      "Figure 5 prints the cost model's per-step PL ratios");
  apujoin::bench::Run();
}
