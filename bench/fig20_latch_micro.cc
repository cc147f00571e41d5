// Figure 20 (appendix): the latch micro-benchmark — K threads performing
// X = 16M atomic increments over an array of N integers, for uniform,
// low-skew and high-skew address distributions, on the CPU (K=256) and the
// GPU (K=8192).
//
// Shape targets: locking time falls as N grows (contention dilutes) until
// the array outgrows the 4 MB L2, after which memory misses push it back
// up; beyond that point high-skew is slightly *cheaper* than uniform (the
// hot line stays resident).

#include "alloc/latch_model.h"

#include "bench_common.h"

namespace apujoin::bench {
namespace {

void Run() {
  PrintBanner("Figure 20", "latch overhead micro-benchmark");
  simcl::SimContext ctx = MakeContext();

  for (simcl::DeviceId dev : {simcl::DeviceId::kCpu, simcl::DeviceId::kGpu}) {
    const int threads = dev == simcl::DeviceId::kGpu ? 8192 : 256;
    std::printf("\n-- %s (K=%d threads, X=16M increments) --\n",
                simcl::DeviceName(dev), threads);
    TablePrinter table(
        {"N (ints)", "uniform(s)", "low-skew(s)", "high-skew(s)"});
    for (uint64_t n : {1ull, 4ull, 16ull, 64ull, 256ull, 1024ull, 4096ull,
                       16ull << 10, 64ull << 10, 256ull << 10, 1ull << 20,
                       4ull << 20, 16ull << 20}) {
      std::vector<std::string> row = {TablePrinter::FmtCount(n)};
      for (double skew : {0.0, 0.10, 0.25}) {
        alloc::LatchMicroConfig cfg;
        cfg.array_ints = n;
        cfg.total_ops = 16ull << 20;
        cfg.threads = threads;
        cfg.skew_fraction = skew;
        row.push_back(Secs(alloc::SimulateLatchMicro(ctx, dev, cfg).TotalNs()));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
}

}  // namespace
}  // namespace apujoin::bench

int main(int argc, char** argv) {
  apujoin::bench::InitBench(argc, argv);
  apujoin::bench::RequireSimBackend("Figure 20 prints the latch model");
  apujoin::bench::Run();
}
