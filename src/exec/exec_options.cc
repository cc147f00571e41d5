#include "exec/exec_options.h"

#include <string>

#include "exec/thread_pool_backend.h"

namespace apujoin::exec {

apujoin::Status ExecOptions::Validate() const {
  switch (backend) {
    case BackendKind::kSim:
    case BackendKind::kThreadPool:
      break;
    default:
      return Status::InvalidArgument(
          "ExecOptions::backend is not a known BackendKind (" +
          std::to_string(static_cast<int>(backend)) + ")");
  }
  if (threads > kMaxThreads) {
    return Status::InvalidArgument(
        "ExecOptions::threads = " + std::to_string(threads) +
        " exceeds kMaxThreads (" + std::to_string(kMaxThreads) + ")");
  }
  if (morsel_items > static_cast<uint32_t>(kMaxMorselItems)) {
    return Status::InvalidArgument(
        "ExecOptions::morsel_items = " + std::to_string(morsel_items) +
        " exceeds kMaxMorselItems (" + std::to_string(kMaxMorselItems) + ")");
  }
  switch (layout) {
    case HashLayout::kChained:
    case HashLayout::kOpenAddressing:
      break;
    default:
      return Status::InvalidArgument(
          "ExecOptions::layout is not a known HashLayout (" +
          std::to_string(static_cast<int>(layout)) + ")");
  }
  if (prefetch_dist > static_cast<uint32_t>(kMaxPrefetchDist)) {
    return Status::InvalidArgument(
        "ExecOptions::prefetch_dist = " + std::to_string(prefetch_dist) +
        " exceeds kMaxPrefetchDist (" + std::to_string(kMaxPrefetchDist) +
        ")");
  }
  switch (stream) {
    case StreamMode::kSerial:
    case StreamMode::kPipelined:
      break;
    default:
      return Status::InvalidArgument(
          "ExecOptions::stream is not a known StreamMode (" +
          std::to_string(static_cast<int>(stream)) + ")");
  }
  switch (fuse) {
    case FuseMode::kOff:
    case FuseMode::kAuto:
      break;
    default:
      return Status::InvalidArgument(
          "ExecOptions::fuse is not a known FuseMode (" +
          std::to_string(static_cast<int>(fuse)) + ")");
  }
  return Status::OK();
}

}  // namespace apujoin::exec
