// Figure 6: optimal per-step workload ratios of PHJ-PL on the coupled
// architecture (partition n1..n3, build b1..b4, probe p1..p4).
//
// Shape targets: n1 leans almost entirely GPU (hash computation); the
// pointer-chasing steps carry much larger CPU shares; ratios differ across
// steps — the fine-grained schedule OL/DD cannot express.

#include "bench_common.h"

namespace apujoin::bench {
namespace {

void Run() {
  PrintBanner("Figure 6", "optimal per-step ratios, PHJ-PL (coupled)");
  const uint64_t n = Scaled(16ull << 20);
  const data::Workload w = MakeWorkload(n, n);
  simcl::SimContext ctx = MakeContext();
  coproc::JoinSpec spec;
  spec.algorithm = coproc::Algorithm::kPHJ;
  spec.scheme = coproc::Scheme::kPipelined;
  const coproc::JoinReport rep = MustJoin(&ctx, w, spec);

  TablePrinter table({"phase", "step", "CPU%", "GPU%"});
  for (const auto& s : rep.steps) {
    table.AddRow({s.phase, s.name, TablePrinter::FmtPercent(s.ratio, 0),
                  TablePrinter::FmtPercent(1.0 - s.ratio, 0)});
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
      "Figure 6 prints the cost model's per-step PL ratios");
  apujoin::bench::Run();
}
