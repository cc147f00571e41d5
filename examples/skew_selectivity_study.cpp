// Robustness study: how does the co-processed join behave across key-value
// distributions (uniform / low-skew / high-skew) and join selectivities —
// the workload dimensions of Section 5.5 — including the divergence
// grouping optimization that matters under skew (sim backend only: a real
// backend has no GPU lane to group).

#include <cstdio>

#include "core/coupled_joiner.h"
#include "example_common.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace apujoin;

  join::EngineOptions engine;
  examples::ApplyBackendFlags(argc, argv, &engine);

  std::printf("PHJ-PL across distributions and selectivities (2M ⋈ 4M)\n\n");
  TablePrinter table({"distribution", "selectivity", "grouping",
                      "elapsed(s)", "matches"});
  for (data::Distribution dist :
       {data::Distribution::kUniform, data::Distribution::kLowSkew,
        data::Distribution::kHighSkew}) {
    for (double sel : {0.125, 1.0}) {
      data::WorkloadSpec wspec;
      wspec.build_tuples = 2 << 20;
      wspec.probe_tuples = 4 << 20;
      wspec.distribution = dist;
      wspec.selectivity = sel;
      auto workload = data::GenerateWorkload(wspec);
      APU_CHECK_OK(workload.status());
      for (bool grouping : {false, true}) {
        // Grouping reorders the GPU lane, which only the sim backend runs.
        if (grouping && engine.backend != exec::BackendKind::kSim) continue;
        core::JoinConfig config;
        config.spec.algorithm = coproc::Algorithm::kPHJ;
        config.spec.scheme = coproc::Scheme::kPipelined;
        config.spec.engine = engine;
        config.spec.engine.grouping = grouping;
        core::CoupledJoiner joiner(config);
        auto report = joiner.Join(*workload);
        APU_CHECK_OK(report.status());
        APU_CHECK(report->matches == workload->expected_matches);
        table.AddRow({DistributionName(dist), TablePrinter::FmtPercent(sel),
                      grouping ? "on" : "off",
                      TablePrinter::Fmt(report->elapsed_ns * 1e-9, 3),
                      TablePrinter::FmtCount(report->matches)});
      }
    }
  }
  table.Print();
  std::printf(
      "\nNote how skewed runs stay competitive with uniform ones — hot-key\n"
      "locality compensates the latch contention (Section 5.5) — and how\n"
      "grouping trims the divergent probe steps under skew.\n");
  return 0;
}
