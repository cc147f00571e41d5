// Backend — the seam between join/scheduling logic and the execution
// substrate.
//
// Everything above this interface (step series, co-processing schemes, the
// join driver) decides *what* to run where: it slices a step's item range
// between the two logical devices and composes per-step device times with
// the paper's pipelined-delay equations. Everything below it decides *how*
// a slice runs and what its execution costs: the analytic simulator prices
// a slice in virtual nanoseconds (SimBackend), the thread-pool backend
// executes it on host threads and reports wall-clock (ThreadPoolBackend).
// Future substrates (OpenCL devices, NUMA pools, remote shards) slot in
// behind the same three capabilities: launch a StepDef slice on a logical
// device, query device specs, drain launch events.
//
// The analytic SimContext stays present under every backend: the
// phase-breakdown log and the machine's specs live there. Cost-model
// calibration and ratio optimization use it on the sim backend only; a
// real backend runs every step at ratio 1.0 (coproc/ratio_policy.h).

#ifndef APUJOIN_EXEC_BACKEND_H_
#define APUJOIN_EXEC_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/backend_kind.h"
#include "exec/exec_options.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "simcl/executor.h"

namespace apujoin::exec {

/// Execution statistics of one capacity lease (see Backend::Lease).
struct LeaseStats {
  uint64_t spans = 0;  ///< spans executed through the lease
  uint64_t items = 0;  ///< items executed through the lease
  /// Max worker slots any single span actually occupied (calling thread
  /// plus attached pool workers) — the observable the fair-share quota
  /// bounds.
  int peak_workers = 0;
};

/// One step launch, recorded when tracing is enabled (set_trace). Drained
/// between phases by whoever wants a trace (tests, debugging, future
/// profiling hooks); recording is off by default to keep span launches
/// allocation-free on the hot path.
struct LaunchEvent {
  std::string step;                             ///< StepDef name
  simcl::DeviceId device = simcl::DeviceId::kCpu;
  uint64_t begin = 0;                           ///< item range [begin, end)
  uint64_t end = 0;
  double elapsed_ns = 0.0;  ///< virtual ns (sim) or wall-clock ns (threads)
};

/// Abstract execution backend over the two logical devices.
class Backend {
 public:
  explicit Backend(simcl::SimContext* ctx) : ctx_(ctx) {}
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  virtual BackendKind kind() const = 0;
  const char* name() const { return BackendKindName(kind()); }

  /// Executes items [begin, end) of `step` on logical device `dev`. Only
  /// `dev`'s slots of the returned stats are populated.
  virtual simcl::StepStats RunSpan(const join::StepDef& step,
                                   simcl::DeviceId dev, uint64_t begin,
                                   uint64_t end) = 0;

  /// Opaque handle to a span submitted with SubmitSpan. Single-owner; must
  /// be passed to Wait on the backend that created it, exactly once, before
  /// that backend is destroyed.
  class JobHandle {
   public:
    virtual ~JobHandle() = default;
  };

  /// Non-blocking counterpart of RunSpan: submits items [begin, end) of
  /// `step` on device `dev` and returns a handle the caller later passes to
  /// Wait. `step` (and every buffer its kernel captures) must stay alive
  /// and unresized until Wait returns. `slots` bounds the worker slots the
  /// span may occupy on substrates that overlap it with other work.
  ///
  /// The default implementation — inherited by the sim backend — runs the
  /// span synchronously at submit time and hands its stats back through
  /// Wait: virtual time has no real concurrency to overlap, so callers that
  /// want overlap *pricing* compose the returned per-span times themselves
  /// (see coproc/out_of_core's pipelined executor). The thread-pool backend
  /// overrides this with a truly asynchronous job on the shared pool.
  virtual std::unique_ptr<JobHandle> SubmitSpan(const join::StepDef& step,
                                                simcl::DeviceId dev,
                                                uint64_t begin, uint64_t end,
                                                int slots = 1);

  /// Blocks until the submitted span completes and returns its stats (only
  /// the submitted device's slots are populated; on real backends the
  /// device's compute_ns is the submit-to-completion wall time, which
  /// includes time spent inside this call). `done_fraction`, when non-null,
  /// receives the fraction of the span's items already claimed when Wait
  /// was entered — the share that genuinely ran asynchronously, before the
  /// caller arrived at its barrier (1.0 on synchronous backends, where the
  /// whole span ran at submit time).
  virtual simcl::StepStats Wait(JobHandle* handle,
                                double* done_fraction = nullptr);

  /// Splits [0, step.items) by the paper's r_i convention — the first
  /// ceil(cpu_ratio * items) items on the CPU device, the rest on the GPU
  /// device — and executes both slices.
  simcl::StepStats Run(const join::StepDef& step, double cpu_ratio);

  /// Static spec of one logical device (the calibration surface).
  const simcl::DeviceSpec& device_spec(simcl::DeviceId id) const {
    return ctx_->device(id);
  }

  /// The analytic machine model this backend is attached to.
  simcl::SimContext* context() const { return ctx_; }

  /// Re-attaches the backend to a different machine model, so one backend
  /// (in particular one thread pool) can serve a sequence of experiment
  /// contexts. Must not be called while a span is executing.
  virtual void Rebind(simcl::SimContext* ctx) { ctx_ = ctx; }

  /// Total worker slots the substrate can hand out to concurrent clients
  /// (the thread-pool backend's worker count; 1 for the analytic simulator,
  /// whose virtual time has no notion of occupancy).
  virtual int capacity() const { return 1; }

  /// Leases up to `slots` worker slots to an independent client. The
  /// returned backend prices and executes through `ctx` — the client's own
  /// machine model — and never occupies more than `slots` worker slots of
  /// the shared substrate at a time, so concurrent RunSpan calls on
  /// *different* leases are safe even though a backend itself serves one
  /// client per span. Leases must not outlive the leased backend.
  ///
  /// The default (and the sim backend's) lease is a fresh backend of the
  /// same kind over `ctx`: virtual-time execution has no shared substrate
  /// to contend for, so an independent instance *is* the lease — and keeps
  /// sim results bit-identical to solo runs. The thread-pool backend
  /// overrides this with a true partial-capacity lease on its worker pool.
  virtual std::unique_ptr<Backend> Lease(simcl::SimContext* ctx, int slots);

  /// Per-lease execution statistics; null on non-lease backends.
  virtual const LeaseStats* lease_stats() const { return nullptr; }

  /// Enables/disables launch-event recording (off by default).
  void set_trace(bool on) { trace_ = on; }
  bool trace() const { return trace_; }

  /// Moves out the launch log accumulated since the last drain.
  std::vector<LaunchEvent> DrainEvents();

 protected:
  /// Appends a launch record when tracing is on (empty slices are not
  /// recorded).
  void Record(const join::StepDef& step, simcl::DeviceId dev, uint64_t begin,
              uint64_t end, double elapsed_ns);

  simcl::SimContext* ctx_;

 private:
  bool trace_ = false;
  std::vector<LaunchEvent> events_;
};

/// Constructs the backend selected by `kind` over `ctx`. `threads` sizes the
/// thread-pool backend's worker pool (0 = hardware concurrency) and
/// `morsel_items` its morsel granularity (0 = default); the sim backend
/// ignores both — morsel size is a scheduling knob of real execution and
/// never perturbs virtual-time output.
std::unique_ptr<Backend> MakeBackend(BackendKind kind, simcl::SimContext* ctx,
                                     int threads = 0,
                                     uint32_t morsel_items = 0);

/// Constructs the backend an ExecOptions selects — the one-struct spelling
/// every layer that embeds ExecOptions (EngineOptions, ServiceOptions) can
/// forward verbatim.
std::unique_ptr<Backend> MakeBackend(const ExecOptions& exec,
                                     simcl::SimContext* ctx);

}  // namespace apujoin::exec

#endif  // APUJOIN_EXEC_BACKEND_H_
