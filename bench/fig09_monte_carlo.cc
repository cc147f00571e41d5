// Figure 9: CDF of elapsed time over Monte Carlo samples of the PL ratio
// space (build phase of SHJ-PL; probe phase of PHJ-PL), with the cost-model
// pick highlighted, plus the model-vs-measured error distribution.
//
// Shape targets: the model's pick lands in the best few percent of the CDF;
// the relative estimation error stays below ~15% for most runs.

#include "cost/monte_carlo.h"
#include "util/random.h"
#include "util/stats.h"

#include "bench_common.h"

namespace apujoin::bench {
namespace {

using coproc::JoinSpec;
using simcl::Phase;

void RunOne(const data::Workload& w, coproc::Algorithm algo,
            bool build_phase, int runs) {
  std::printf("\n-- %s of %s-PL: %d Monte Carlo ratio settings --\n",
              build_phase ? "build" : "probe", AlgorithmName(algo), runs);
  // Model pick for reference.
  simcl::SimContext opt_ctx = MakeContext();
  JoinSpec base;
  base.algorithm = algo;
  base.scheme = coproc::Scheme::kPipelined;
  const coproc::JoinReport opt = MustJoin(&opt_ctx, w, base);
  const double picked =
      opt.breakdown.Get(build_phase ? Phase::kBuild : Phase::kProbe);

  apujoin::Random rng(17);
  std::vector<double> samples;
  apujoin::SummaryStats err;
  for (int i = 0; i < runs; ++i) {
    std::vector<double> ratios(4);
    for (auto& r : ratios) r = static_cast<double>(rng.Uniform(51)) * 0.02;
    simcl::SimContext ctx = MakeContext();
    JoinSpec spec = base;
    if (build_phase) {
      spec.build_ratios = ratios;
    } else {
      spec.probe_ratios = ratios;
    }
    const coproc::JoinReport rep = MustJoin(&ctx, w, spec);
    const double measured =
        rep.breakdown.Get(build_phase ? Phase::kBuild : Phase::kProbe);
    samples.push_back(measured);
    const double estimated =
        rep.estimated_ns * (measured / std::max(rep.elapsed_ns, 1.0));
    err.Add(std::abs(measured - estimated) / std::max(measured, 1.0));
  }
  apujoin::EmpiricalCdf cdf(samples);
  TablePrinter table({"CDF", "elapsed(s)"});
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    table.AddRow({TablePrinter::FmtPercent(q, 0), Secs(cdf.Quantile(q))});
  }
  table.Print();
  std::printf("model pick: %s s -> CDF position %s\n", Secs(picked).c_str(),
              TablePrinter::FmtPercent(cdf.Cdf(picked)).c_str());
  std::printf("relative model error: mean %s, max %s\n",
              TablePrinter::FmtPercent(err.mean()).c_str(),
              TablePrinter::FmtPercent(err.max()).c_str());
}

void Run() {
  PrintBanner("Figure 9", "Monte Carlo CDF over PL ratio settings");
  const int runs = GetEnvFlag("REPRO_FULL") ? 1000 : 150;
  const uint64_t n = Scaled(2ull << 20);
  const data::Workload w = MakeWorkload(n, n);
  RunOne(w, coproc::Algorithm::kSHJ, /*build_phase=*/true, runs);
  RunOne(w, coproc::Algorithm::kPHJ, /*build_phase=*/false, runs);
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::RequireSimBackend(
      "Figure 9 ranks the cost model's pick among sampled ratios");
  apujoin::bench::Run();
}
