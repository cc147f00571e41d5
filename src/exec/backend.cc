#include "exec/backend.h"

#include <cstdlib>
#include <cstring>

#include "exec/sim_backend.h"
#include "exec/thread_pool_backend.h"

namespace apujoin::exec {

bool ParseBackendKind(const char* text, BackendKind* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "sim") == 0) {
    *out = BackendKind::kSim;
    return true;
  }
  if (std::strcmp(text, "threads") == 0) {
    *out = BackendKind::kThreadPool;
    return true;
  }
  return false;
}

FlagParse ParseBackendFlag(const char* arg, BackendKind* kind,
                           int* threads) {
  if (std::strncmp(arg, "--backend=", 10) == 0) {
    return ParseBackendKind(arg + 10, kind) ? FlagParse::kOk
                                            : FlagParse::kInvalid;
  }
  if (std::strncmp(arg, "--threads=", 10) == 0) {
    char* end = nullptr;
    const long parsed = std::strtol(arg + 10, &end, 10);
    if (end == arg + 10 || *end != '\0' || parsed < 0 ||
        parsed > kMaxThreads) {
      return FlagParse::kInvalid;
    }
    *threads = static_cast<int>(parsed);
    return FlagParse::kOk;
  }
  return FlagParse::kNotMatched;
}

bool ParseStreamMode(const char* text, StreamMode* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "serial") == 0) {
    *out = StreamMode::kSerial;
    return true;
  }
  if (std::strcmp(text, "pipelined") == 0) {
    *out = StreamMode::kPipelined;
    return true;
  }
  return false;
}

FlagParse ParseStreamFlag(const char* arg, StreamMode* out) {
  if (std::strncmp(arg, "--stream=", 9) != 0) return FlagParse::kNotMatched;
  return ParseStreamMode(arg + 9, out) ? FlagParse::kOk : FlagParse::kInvalid;
}

bool ParseHashLayout(const char* text, HashLayout* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "chained") == 0) {
    *out = HashLayout::kChained;
    return true;
  }
  if (std::strcmp(text, "open") == 0) {
    *out = HashLayout::kOpenAddressing;
    return true;
  }
  return false;
}

FlagParse ParseLayoutFlag(const char* arg, HashLayout* out) {
  if (std::strncmp(arg, "--layout=", 9) != 0) return FlagParse::kNotMatched;
  return ParseHashLayout(arg + 9, out) ? FlagParse::kOk : FlagParse::kInvalid;
}

bool ParseFuseMode(const char* text, FuseMode* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "off") == 0) {
    *out = FuseMode::kOff;
    return true;
  }
  if (std::strcmp(text, "auto") == 0) {
    *out = FuseMode::kAuto;
    return true;
  }
  return false;
}

FlagParse ParseFuseFlag(const char* arg, FuseMode* out) {
  if (std::strncmp(arg, "--fuse=", 7) != 0) return FlagParse::kNotMatched;
  return ParseFuseMode(arg + 7, out) ? FlagParse::kOk : FlagParse::kInvalid;
}

FlagParse ParsePrefetchFlag(const char* arg, unsigned* dist) {
  if (std::strncmp(arg, "--prefetch-dist=", 16) != 0) {
    return FlagParse::kNotMatched;
  }
  char* end = nullptr;
  const long parsed = std::strtol(arg + 16, &end, 10);
  if (end == arg + 16 || *end != '\0' || parsed < 0 ||
      parsed > kMaxPrefetchDist) {
    return FlagParse::kInvalid;
  }
  *dist = static_cast<unsigned>(parsed);
  return FlagParse::kOk;
}

FlagParse ParseMorselFlag(const char* arg, unsigned* morsel_items) {
  if (std::strncmp(arg, "--morsel=", 9) != 0) return FlagParse::kNotMatched;
  char* end = nullptr;
  const long parsed = std::strtol(arg + 9, &end, 10);
  if (end == arg + 9 || *end != '\0' || parsed < 1 ||
      parsed > kMaxMorselItems) {
    return FlagParse::kInvalid;
  }
  *morsel_items = static_cast<unsigned>(parsed);
  return FlagParse::kOk;
}

simcl::StepStats Backend::Run(const join::StepDef& step, double cpu_ratio,
                              uint64_t begin, uint64_t end) {
  const uint64_t split = CpuSplit(cpu_ratio, begin, end);
  const simcl::StepStats cpu = RunSpan(step, simcl::DeviceId::kCpu, begin,
                                       split);
  const simcl::StepStats gpu = RunSpan(step, simcl::DeviceId::kGpu, split,
                                       end);
  simcl::StepStats out;
  for (int d = 0; d < simcl::kNumDevices; ++d) {
    out.items[d] = cpu.items[d] + gpu.items[d];
    out.work[d] = cpu.work[d] + gpu.work[d];
    out.time[d] += cpu.time[d];
    out.time[d] += gpu.time[d];
  }
  out.gpu_divergence = gpu.gpu_divergence;
  return out;
}

namespace {

/// Handle of the default (synchronous) SubmitSpan: the span already ran at
/// submit time; Wait just hands the stats over.
struct SyncJobHandle : Backend::JobHandle {
  simcl::StepStats stats;
};

}  // namespace

std::unique_ptr<Backend::JobHandle> Backend::SubmitSpan(
    const join::StepDef& step, simcl::DeviceId dev, uint64_t begin,
    uint64_t end, int /*slots*/) {
  auto handle = std::make_unique<SyncJobHandle>();
  handle->stats = RunSpan(step, dev, begin, end);
  return handle;
}

simcl::StepStats Backend::Wait(JobHandle* handle, double* done_fraction) {
  // Handles never cross backends (the SubmitSpan contract), so this is the
  // sync handle whenever the default SubmitSpan produced it — and the span
  // fully ran at submit time.
  if (done_fraction != nullptr) *done_fraction = 1.0;
  return static_cast<SyncJobHandle*>(handle)->stats;
}

std::vector<LaunchEvent> Backend::DrainEvents() {
  std::vector<LaunchEvent> out;
  out.swap(events_);
  return out;
}

void Backend::Record(const join::StepDef& step, simcl::DeviceId dev,
                     uint64_t begin, uint64_t end, double elapsed_ns) {
  if (!trace_ || end <= begin) return;
  LaunchEvent e;
  e.step = step.name;
  e.device = dev;
  e.begin = begin;
  e.end = end;
  e.elapsed_ns = elapsed_ns;
  events_.push_back(std::move(e));
}

std::unique_ptr<Backend> Backend::Lease(simcl::SimContext* ctx, int slots) {
  // Without a shared physical substrate an independent instance is the
  // lease (see the header). `slots` caps nothing here but is still passed
  // through so a future multi-client substrate gets a meaningful bound.
  return MakeBackend(kind(), ctx, slots);
}

std::unique_ptr<Backend> MakeBackend(BackendKind kind, simcl::SimContext* ctx,
                                     int threads, uint32_t morsel_items) {
  if (kind == BackendKind::kThreadPool) {
    ThreadPoolOptions opts;
    opts.threads = threads;
    opts.morsel_items = morsel_items;
    return std::make_unique<ThreadPoolBackend>(ctx, opts);
  }
  return std::make_unique<SimBackend>(ctx);
}

std::unique_ptr<Backend> MakeBackend(const PoolOptions& pool,
                                     simcl::SimContext* ctx) {
  if (pool.backend == BackendKind::kThreadPool) {
    return std::make_unique<ThreadPoolBackend>(ctx, ThreadPoolOptions(pool));
  }
  return std::make_unique<SimBackend>(ctx);
}

}  // namespace apujoin::exec
