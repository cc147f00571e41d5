// Tuning advisor: uses the cost model to *plan* a join before running it —
// which algorithm, which scheme, which per-step ratios — then validates the
// recommendation by executing. This is the workflow the paper's Section 4
// enables: the model turns the co-processing design space into an
// automatically tunable knob set.

#include <cstdio>
#include <cstdlib>

#include "core/coupled_joiner.h"
#include "example_common.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace apujoin;

  join::EngineOptions engine;
  examples::ApplyBackendFlags(argc, argv, &engine);
  examples::RequireSimBackend(engine,
                              "tuning_advisor ranks plans by the cost "
                              "model's estimate");
  // Positional sizes (flags are consumed above): tuning_advisor [R] [S].
  uint64_t sizes[2] = {1ull << 20, 4ull << 20};
  int pos = 0;
  for (int i = 1; i < argc && pos < 2; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      sizes[pos++] = std::strtoull(argv[i], nullptr, 10);
    }
  }
  const uint64_t build = sizes[0];
  const uint64_t probe = sizes[1];
  std::printf("planning |R|=%llu ⋈ |S|=%llu ...\n\n",
              static_cast<unsigned long long>(build),
              static_cast<unsigned long long>(probe));

  data::WorkloadSpec wspec;
  wspec.build_tuples = build;
  wspec.probe_tuples = probe;
  auto workload = data::GenerateWorkload(wspec);
  APU_CHECK_OK(workload.status());

  // Trial-run each candidate plan; the cost-model estimate orders them,
  // the measurement validates the pick.
  struct Candidate {
    coproc::Algorithm algo;
    coproc::Scheme scheme;
    double estimated = 0.0;
    double measured = 0.0;
  };
  std::vector<Candidate> candidates;
  for (coproc::Algorithm algo :
       {coproc::Algorithm::kSHJ, coproc::Algorithm::kPHJ}) {
    for (coproc::Scheme scheme :
         {coproc::Scheme::kDataDivide, coproc::Scheme::kOffload,
          coproc::Scheme::kPipelined}) {
      core::JoinConfig config;
      config.spec.algorithm = algo;
      config.spec.scheme = scheme;
      config.spec.engine = engine;
      core::CoupledJoiner joiner(config);
      auto report = joiner.Join(*workload);
      APU_CHECK_OK(report.status());
      candidates.push_back(
          {algo, scheme, report->estimated_ns, report->elapsed_ns});
    }
  }

  TablePrinter table({"plan", "model estimate(s)", "measured(s)"});
  const Candidate* best_est = &candidates[0];
  const Candidate* best_meas = &candidates[0];
  for (const auto& c : candidates) {
    if (c.estimated < best_est->estimated) best_est = &c;
    if (c.measured < best_meas->measured) best_meas = &c;
    table.AddRow({std::string(AlgorithmName(c.algo)) + "-" +
                      SchemeName(c.scheme),
                  TablePrinter::Fmt(c.estimated * 1e-9, 3),
                  TablePrinter::Fmt(c.measured * 1e-9, 3)});
  }
  table.Print();
  std::printf("\nmodel recommends: %s-%s\n", AlgorithmName(best_est->algo),
              SchemeName(best_est->scheme));
  std::printf("measured best:    %s-%s\n", AlgorithmName(best_meas->algo),
              SchemeName(best_meas->scheme));
  std::printf("recommendation is within %.1f%% of the measured best\n",
              (best_est->measured / best_meas->measured - 1.0) * 100.0);
  return 0;
}
