// Figure 7: estimated vs measured time for SHJ-DD with the workload ratio
// varied 0..100% (left: build phase sweep, right: probe phase sweep).
//
// Shape targets: U-shaped curves; the estimate tracks the measurement
// (estimate slightly below — it excludes latch contention); the model's
// optimum (marked *) sits at/near the measured minimum.

#include "bench_common.h"

namespace apujoin::bench {
namespace {

using coproc::JoinSpec;
using simcl::Phase;

void Sweep(const data::Workload& w, bool sweep_build) {
  // The non-swept phase stays at the model's optimum.
  simcl::SimContext probe_ctx = MakeContext();
  JoinSpec base;
  base.algorithm = coproc::Algorithm::kSHJ;
  base.scheme = coproc::Scheme::kDataDivide;
  const coproc::JoinReport opt = MustJoin(&probe_ctx, w, base);
  const double opt_build = opt.build_ratios[0];
  const double opt_probe = opt.probe_ratios[0];

  std::printf("\n-- %s phase sweep (other phase at optimum %.0f%%) --\n",
              sweep_build ? "build" : "probe",
              (sweep_build ? opt_probe : opt_build) * 100.0);
  TablePrinter table({"ratio", "measured(s)", "estimated(s)", "opt"});
  double best_measured = 1e300;
  double best_r = 0.0;
  std::vector<std::array<double, 3>> rows;
  for (int pct = 0; pct <= 100; pct += 10) {
    const double r = pct / 100.0;
    simcl::SimContext ctx = MakeContext();
    JoinSpec spec = base;
    spec.build_ratios = {sweep_build ? r : opt_build};
    spec.probe_ratios = {sweep_build ? opt_probe : r};
    const coproc::JoinReport rep = MustJoin(&ctx, w, spec);
    const double measured =
        rep.breakdown.Get(sweep_build ? Phase::kBuild : Phase::kProbe);
    // The per-phase estimate: scale total estimate by the phase share.
    const double estimated = rep.estimated_ns *
                             (measured / std::max(rep.elapsed_ns, 1.0));
    rows.push_back({r, measured, estimated});
    if (measured < best_measured) {
      best_measured = measured;
      best_r = r;
    }
  }
  const double model_opt = sweep_build ? opt_build : opt_probe;
  for (const auto& row : rows) {
    std::string mark;
    if (std::abs(row[0] - best_r) < 1e-9) mark += "measured-min ";
    if (std::abs(row[0] - model_opt) < 0.05) mark += "*model-pick";
    table.AddRow({TablePrinter::FmtPercent(row[0], 0), Secs(row[1]),
                  Secs(row[2]), mark});
  }
  table.Print();
}

void Run() {
  PrintBanner("Figure 7", "cost model vs measurement, SHJ-DD ratio sweep");
  const uint64_t n = Scaled(16ull << 20);
  const data::Workload w = MakeWorkload(n, n);
  Sweep(w, /*sweep_build=*/true);
  Sweep(w, /*sweep_build=*/false);
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::RequireSimBackend(
      "Figure 7 compares the cost model's estimate with the simulated time");
  apujoin::bench::Run();
}
