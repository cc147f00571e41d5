// Figure 19 (appendix): joins larger than the zero-copy buffer, with the
// elapsed time split into partition / join / data-copy, comparing SHJ-PL
// and PHJ-PL on each partition pair.
//
// Shape targets: no copy/partition cost when the input fits the buffer;
// beyond it, partition time is significant, data copy stays ~4% of total,
// scaling is near-linear in the input, and PHJ-PL is slightly (<~9%)
// faster than SHJ-PL.
//
// --stream, this bench's own flag: --stream=serial (default) reproduces
// the historical figure — the sim numbers are bit-identical to the
// pre-streaming executor.
// --stream=pipelined switches to a serial-vs-pipelined comparison: each
// configuration runs both streaming modes (interleaved best-of-3 trials on
// the threads backend, whose times are wall-clock on a shared host) and the
// table reports throughput, speedup, and how much staging copy time the
// async prefetcher hid behind computation (overlap efficiency).

#include "coproc/out_of_core.h"

#include <algorithm>

#include "bench_common.h"

namespace apujoin::bench {
namespace {

exec::StreamMode g_stream = exec::StreamMode::kSerial;  ///< --stream

coproc::OutOfCoreSpec MakeSpec(coproc::Algorithm algo,
                               exec::StreamMode stream) {
  coproc::OutOfCoreSpec spec;
  spec.inner.algorithm = algo;
  spec.inner.scheme = coproc::Scheme::kPipelined;
  ApplyBackend(&spec.inner);
  spec.inner.engine.stream = stream;
  spec.chunk_tuples = Scaled(16ull << 20);
  return spec;
}

/// One out-of-core run; returns the report and the mode's comparable time:
/// end-to-end wall clock under real execution, virtual elapsed on sim.
coproc::OutOfCoreReport RunOnce(const data::Workload& w, double buffer_bytes,
                                const coproc::OutOfCoreSpec& spec,
                                double* time_ns) {
  simcl::ContextOptions copts;
  copts.memory.zero_copy_bytes = buffer_bytes;
  simcl::SimContext ctx(copts);
  auto rep = coproc::ExecuteOutOfCore(CachedBackend(&ctx), w, spec);
  APU_CHECK_OK(rep.status());
  APU_CHECK(rep->matches == w.expected_matches);
  *time_ns = BenchBackend() == exec::BackendKind::kThreadPool ? rep->wall_ns
                                                              : rep->elapsed_ns;
  return std::move(rep).value();
}

void RunSerialFigure(const std::vector<uint64_t>& sizes,
                     double buffer_bytes) {
  TablePrinter table({"|R|=|S|", "inner", "partition(s)", "join(s)",
                      "copy(s)", "total(s)", "copy%"});
  for (uint64_t paper_n : sizes) {
    const uint64_t n = Scaled(paper_n);
    const data::Workload w = MakeWorkload(n, n);
    for (coproc::Algorithm algo :
         {coproc::Algorithm::kSHJ, coproc::Algorithm::kPHJ}) {
      double time_ns = 0.0;
      const coproc::OutOfCoreReport rep = RunOnce(
          w, buffer_bytes, MakeSpec(algo, exec::StreamMode::kSerial),
          &time_ns);
      table.AddRow({TablePrinter::FmtCount(n),
                    std::string(AlgorithmName(algo)) + "-PL",
                    Secs(rep.partition_ns), Secs(rep.join_ns),
                    Secs(rep.copy_ns), Secs(rep.elapsed_ns),
                    TablePrinter::FmtPercent(rep.copy_ns / rep.elapsed_ns)});
    }
  }
  table.Print();
}

void RunStreamComparison(const std::vector<uint64_t>& sizes,
                         double buffer_bytes) {
  std::printf("serial vs pipelined out-of-core streaming "
              "(async chunk prefetch, double-buffered staging)\n");
  TablePrinter table({"|R|=|S|", "inner", "serial(s)", "pipelined(s)",
                      "speedup", "overlap(s)", "overlap%"});
  // Wall clocks on a shared host need interleaved best-of-N; the sim is
  // deterministic and one trial suffices.
  const bool threads = BenchBackend() == exec::BackendKind::kThreadPool;
  const int trials = threads ? 3 : 1;
  double total_tuples = 0.0;
  double total_serial_ns = 0.0;
  double total_pipe_ns = 0.0;
  double total_overlap_ns = 0.0;
  double total_copy_ns = 0.0;
  for (uint64_t paper_n : sizes) {
    const uint64_t n = Scaled(paper_n);
    const data::Workload w = MakeWorkload(n, n);
    for (coproc::Algorithm algo :
         {coproc::Algorithm::kSHJ, coproc::Algorithm::kPHJ}) {
      double best_serial = 0.0;
      double best_pipe = 0.0;
      coproc::OutOfCoreReport best_rep;
      for (int t = 0; t < trials; ++t) {
        double serial_ns = 0.0;
        double pipe_ns = 0.0;
        RunOnce(w, buffer_bytes, MakeSpec(algo, exec::StreamMode::kSerial),
                &serial_ns);
        const coproc::OutOfCoreReport rep = RunOnce(
            w, buffer_bytes, MakeSpec(algo, exec::StreamMode::kPipelined),
            &pipe_ns);
        if (t == 0 || serial_ns < best_serial) best_serial = serial_ns;
        if (t == 0 || pipe_ns < best_pipe) {
          best_pipe = pipe_ns;
          best_rep = rep;
        }
      }
      // Efficiency over the *hideable* staging copies only (prefetch_ns);
      // chunk copy-outs can never overlap and would just dilute the ratio.
      const double hideable = best_rep.prefetch_ns;
      total_tuples += 2.0 * static_cast<double>(n);
      total_serial_ns += best_serial;
      total_pipe_ns += best_pipe;
      total_overlap_ns += best_rep.overlap_ns;
      total_copy_ns += hideable;
      table.AddRow(
          {TablePrinter::FmtCount(n),
           std::string(AlgorithmName(algo)) + "-PL", Secs(best_serial),
           Secs(best_pipe), TablePrinter::Fmt(best_serial / best_pipe, 3),
           Secs(best_rep.overlap_ns),
           TablePrinter::FmtPercent(
               hideable > 0.0 ? best_rep.overlap_ns / hideable : 0.0)});
    }
  }
  table.Print();
  const double serial_tps = total_tuples / (total_serial_ns * 1e-9);
  const double pipe_tps = total_tuples / (total_pipe_ns * 1e-9);
  std::printf("throughput: serial %.3g tuples/s, pipelined %.3g tuples/s "
              "(%.2fx)\n",
              serial_tps, pipe_tps, serial_tps > 0.0 ? pipe_tps / serial_tps
                                                     : 0.0);
  g_json.AddMetric("serial_tuples_per_sec", serial_tps);
  g_json.AddMetric("pipelined_tuples_per_sec", pipe_tps);
  g_json.AddMetric("overlap_efficiency",
                   total_copy_ns > 0.0 ? total_overlap_ns / total_copy_ns
                                       : 0.0);
}

void Run() {
  PrintBanner("Figure 19", "out-of-core joins beyond the zero-copy buffer");
  // Scale the buffer with the data so the chunking threshold appears at
  // the same relative point as in the paper (512 MB vs 16M..128M tuples).
  const double buffer_bytes = 512.0 * 1024 * 1024 * BenchScale();
  std::vector<uint64_t> sizes = {16ull << 20, 32ull << 20, 64ull << 20};
  if (GetEnvFlag("REPRO_FULL")) sizes.push_back(128ull << 20);

  if (g_stream == exec::StreamMode::kPipelined) {
    RunStreamComparison(sizes, buffer_bytes);
  } else {
    RunSerialFigure(sizes, buffer_bytes);
  }
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  using namespace apujoin;
  // Extract the bench-specific --stream flag; hand everything else to the
  // shared harness parser.
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    switch (exec::ParseStreamFlag(argv[i], &bench::g_stream)) {
      case exec::FlagParse::kOk:
        break;
      case exec::FlagParse::kInvalid:
        std::fprintf(stderr,
                     "invalid value in '%s' (want --stream=serial|pipelined)\n",
                     argv[i]);
        return 2;
      case exec::FlagParse::kNotMatched:
        rest.push_back(argv[i]);
        break;
    }
  }
  bench::InitBench(static_cast<int>(rest.size()), rest.data());
  bench::Run();
}
