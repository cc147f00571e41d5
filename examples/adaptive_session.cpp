// Adaptive join session: the same query arriving over and over — the
// serving shape every multi-query deployment has — converges from
// analytic-guess CPU/GPU ratios to measured-cost ones on the simulator.
//
// A CoupledJoiner with tune != off closes the loop automatically: each
// Join() folds its measured per-step timings into the session's
// OnlineCalibrator, and the next Join() re-optimizes its ratios on the
// measured table. --tune=off restores the static baseline; --tune is this
// example's own flag. Tuning is a sim-backend feature: --backend=threads
// exits 2, whatever --tune says.

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/coupled_joiner.h"
#include "example_common.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace apujoin;

  // Extract the example's own --tune flag (online tuning is its point);
  // hand everything else to the shared parser.
  cost::TuneMode tune = cost::TuneMode::kOnline;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tune=", 7) != 0) {
      rest.push_back(argv[i]);
    } else if (!cost::ParseTuneMode(argv[i] + 7, &tune)) {
      std::fprintf(stderr,
                   "invalid value in '%s' (want --tune=off|once|online)\n",
                   argv[i]);
      return 2;
    }
  }
  join::EngineOptions engine;
  examples::ApplyBackendFlags(static_cast<int>(rest.size()), rest.data(),
                              &engine);
  examples::RequireSimBackend(engine,
                              "adaptive_session tunes ratios on the "
                              "simulated APU");
  // Positional sizes: adaptive_session [R] [S].
  uint64_t sizes[2] = {1ull << 20, 4ull << 20};
  int pos = 0;
  for (size_t i = 1; i < rest.size() && pos < 2; ++i) {
    if (std::strncmp(rest[i], "--", 2) != 0) {
      sizes[pos++] = std::strtoull(rest[i], nullptr, 10);
    }
  }

  data::WorkloadSpec wspec;
  wspec.build_tuples = sizes[0];
  wspec.probe_tuples = sizes[1];
  wspec.distribution = data::Distribution::kHighSkew;
  auto workload = data::GenerateWorkload(wspec);
  APU_CHECK_OK(workload.status());

  core::JoinConfig config;
  config.spec.algorithm = coproc::Algorithm::kSHJ;
  config.spec.scheme = coproc::Scheme::kPipelined;
  config.spec.engine = engine;
  config.tune = tune;
  core::CoupledJoiner joiner(config);

  std::printf("session of 8 identical skewed joins, backend=%s tune=%s\n\n",
              exec::BackendKindName(engine.backend),
              cost::TuneModeName(tune));
  TablePrinter table({"query", "time(s)", "estimate(s)", "p1 cpu%",
                      "p3 cpu%", "p4 cpu%"});
  double first_ns = 0.0;
  double last_ns = 0.0;
  for (int q = 1; q <= 8; ++q) {
    auto report = joiner.Join(*workload);
    APU_CHECK_OK(report.status());
    APU_CHECK(report->matches == workload->expected_matches);
    const auto& pr = report->probe_ratios;
    table.AddRow({std::to_string(q), TablePrinter::Fmt(report->elapsed_sec(), 3),
                  TablePrinter::Fmt(report->estimated_ns * 1e-9, 3),
                  TablePrinter::FmtPercent(pr.empty() ? 0.0 : pr[0], 0),
                  TablePrinter::FmtPercent(pr.size() > 2 ? pr[2] : 0.0, 0),
                  TablePrinter::FmtPercent(pr.size() > 3 ? pr[3] : 0.0, 0)});
    if (q == 1) first_ns = report->elapsed_ns;
    last_ns = report->elapsed_ns;
  }
  table.Print();

  const auto& calib = joiner.tuner().calibrator();
  std::printf("\nmeasured table covers %zu step kinds after %d runs\n",
              calib.size(), joiner.tuner().runs());
  if (calib.Has("p4", simcl::DeviceId::kCpu)) {
    std::printf("p4 (emit) measured: cpu %.2f ns/item, gpu %.2f ns/item\n",
                calib.UnitCostNs("p4", simcl::DeviceId::kCpu),
                calib.UnitCostNs("p4", simcl::DeviceId::kGpu));
  }
  std::printf("query 8 vs query 1: %.2fx\n", first_ns / last_ns);
  return 0;
}
