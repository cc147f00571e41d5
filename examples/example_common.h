// Shared flag parsing for the examples: every example accepts the common
// harness flags (core/harness_flags.h, listed in core::kHarnessUsage),
// mirroring the bench harness, and passes positional arguments through for
// the example to consume. The parsing itself lives in
// core::ParseHarnessArg; this wrapper only adds the examples' pass-through
// policy.

#ifndef APUJOIN_EXAMPLES_EXAMPLE_COMMON_H_
#define APUJOIN_EXAMPLES_EXAMPLE_COMMON_H_

#include <cstdio>
#include <cstdlib>

#include "core/harness_flags.h"
#include "join/options.h"

namespace apujoin::examples {

/// Parses the shared harness flags; leaves positional arguments for the
/// example to consume. Exits on an unknown --flag.
inline core::HarnessFlags ParseFlags(int argc, char** argv) {
  core::HarnessFlags flags;
  for (int i = 1; i < argc; ++i) {
    switch (core::ParseHarnessArg(argv[i], &flags)) {
      case core::HarnessArg::kConsumed:
      case core::HarnessArg::kPositional:  // the example consumes it
        break;
      case core::HarnessArg::kInvalid:
        std::exit(2);
      case core::HarnessArg::kUnknownFlag:
        std::fprintf(stderr, "usage: %s %s\n", argv[0], core::kHarnessUsage);
        std::exit(2);
    }
  }
  if (!flags.json_path.empty()) {
    // Only the bench harness has a JSON emitter; refusing beats silently
    // never writing the file the caller asked for.
    std::fprintf(stderr, "%s: --json is supported by the bench binaries "
                 "only\n", argv[0]);
    std::exit(2);
  }
  return flags;
}

/// Applies the shared flags to `engine`, preserving the examples' historic
/// one-call surface.
inline void ApplyBackendFlags(int argc, char** argv,
                              join::EngineOptions* engine) {
  // An example may pre-set its own defaults (e.g. join_server defaults to
  // the threads backend); flags only override what was given explicitly.
  const join::EngineOptions defaults = *engine;
  const core::HarnessFlags flags = ParseFlags(argc, argv);
  core::ApplyHarnessFlags(flags, engine);
  if (!flags.backend_set) engine->backend = defaults.backend;
  if (!flags.threads_set) engine->threads = defaults.threads;
  if (!flags.morsel_set) engine->morsel_items = defaults.morsel_items;
}

/// Exits 2 with a message unless `engine` runs on the sim backend — for the
/// examples built on the cost model's estimates or on ratio tuning, which a
/// real backend (every step at ratio 1.0) does not have. `what` says what
/// the example shows.
inline void RequireSimBackend(const join::EngineOptions& engine,
                              const char* what) {
  if (engine.backend == exec::BackendKind::kSim) return;
  std::fprintf(stderr, "%s: only the sim backend has it, not --backend=%s\n",
               what, exec::BackendKindName(engine.backend));
  std::exit(2);
}

}  // namespace apujoin::examples

#endif  // APUJOIN_EXAMPLES_EXAMPLE_COMMON_H_
