// ThreadPoolBackend — real execution of step kernels on a morsel-driven
// host thread pool, timed with the wall clock.
//
// The pool is a *shared substrate*: any number of clients may have spans in
// flight at once, each span registered as a Job with a worker-slot quota.
// A submitting thread always executes its own job (so a quota of 1 needs no
// pool workers at all); idle pool workers attach to whichever eligible job
// currently has the fewest helpers — the least-loaded-first rule that
// spreads the pool fairly across concurrent sessions — but never beyond the
// job's quota, so one giant span cannot starve its neighbours.
//
// Work distribution is morsel-driven (Leis et al.'s morsel model, adapted
// to the paper's fine-grained steps): a span owns ONE shared atomic cursor,
// and every participant — submitter and helpers alike — claims the next
// --morsel-sized item range with a single fetch_add whenever it runs free.
// There is no per-worker pre-slicing and hence nothing to steal: skewed
// per-item costs self-balance because a worker stuck in a heavy morsel
// simply claims fewer of them, and late-arriving helpers start pulling from
// the same cursor instantly. Each claimed morsel runs the step's batch
// kernel once — one virtual dispatch per morsel, a tight loop inside.
//
// Exclusive use is the quota-equals-pool-size special case: RunSpan simply
// runs the span at full capacity, which reproduces the pre-lease behaviour
// (caller + all workers on one job). Partial-capacity clients go through
// Lease(), which returns a PoolLease facade scheduling through the shared
// pool under its own machine model.
//
// Timing semantics: the span's wall-clock time lands in the device's
// compute_ns; memory/atomic/lock components are zero because on real
// hardware they are indistinguishable parts of the measured time. There is
// no SIMD emulation — gpu_divergence is always 1.0 — which makes the
// "GPU" logical device simply a second pool-backed lane the schedulers can
// split work onto. Morsels default to 256 items, the work-group granularity
// of the allocator slot scheme, so a morsel's allocator traffic mostly
// stays in one work-group slot.

#ifndef APUJOIN_EXEC_THREAD_POOL_BACKEND_H_
#define APUJOIN_EXEC_THREAD_POOL_BACKEND_H_

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exec/backend.h"
#include "exec/exec_options.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace apujoin::exec {

/// Hard cap on pool workers; the --threads flag parser enforces the same
/// bound (it reads this constant).
inline constexpr int kMaxThreads = 4096;

/// Default morsel granularity (items per shared-cursor claim).
inline constexpr uint32_t kDefaultMorselItems = 256;

/// Pool construction knobs — the shared PoolOptions struct, so pools are
/// configured with the exact fields EngineOptions/ServiceOptions carry:
/// `threads` (worker count including the calling thread; zero/negative
/// normalize to hardware concurrency, values above kMaxThreads are capped)
/// and `morsel_items` (0 = kDefaultMorselItems, values above
/// kMaxMorselItems are clamped).
struct ThreadPoolOptions : PoolOptions {
  ThreadPoolOptions() { backend = BackendKind::kThreadPool; }
  explicit ThreadPoolOptions(const PoolOptions& pool) : PoolOptions(pool) {
    backend = BackendKind::kThreadPool;
  }
  /// Shorthand for the two knobs the pool actually consumes.
  ThreadPoolOptions(int threads_in, uint32_t morsel_items_in = 0)
      : ThreadPoolOptions() {
    threads = threads_in;
    morsel_items = morsel_items_in;
  }
};

/// Cumulative per-worker execution counters (drainable via TakeCounters).
struct WorkerCounters {
  uint64_t items = 0;    ///< items executed by this worker
  uint64_t work = 0;     ///< kernel-reported work units
  uint64_t morsels = 0;  ///< morsels claimed from shared span cursors
};

/// Morsel-driven thread-pool backend (wall-clock timing). Any number of
/// spans may be in flight concurrently — one per client, where a client is
/// the backend's exclusive owner or a lease. Each client surface (RunSpan,
/// a PoolLease) remains single-caller, like every Backend: per-client
/// state (the trace event log) is unsynchronized by design. The
/// thread-safe multi-client entry is RunSpanShared / concurrent leases.
class ThreadPoolBackend : public Backend {
 public:
  explicit ThreadPoolBackend(simcl::SimContext* ctx,
                             ThreadPoolOptions opts = ThreadPoolOptions());
  ~ThreadPoolBackend() override;

  BackendKind kind() const override { return BackendKind::kThreadPool; }

  simcl::StepStats RunSpan(const join::StepDef& step, simcl::DeviceId dev,
                           uint64_t begin, uint64_t end) override;

  /// Truly asynchronous submit: the span is listed as a pool job (up to
  /// `slots` workers may attach) and runs concurrently with whatever other
  /// spans are in flight — including spans the submitting thread runs next.
  /// Wait makes the calling thread a participant too (it drains remaining
  /// morsels), so a submitted span completes even on a one-thread pool.
  std::unique_ptr<JobHandle> SubmitSpan(const join::StepDef& step,
                                        simcl::DeviceId dev, uint64_t begin,
                                        uint64_t end, int slots = 1) override;

  simcl::StepStats Wait(JobHandle* handle,
                        double* done_fraction = nullptr) override;

  int capacity() const override { return threads(); }

  /// A partial-capacity lease on this pool (a PoolLease). See
  /// Backend::Lease for the contract; `slots` is clamped to [1, capacity].
  std::unique_ptr<Backend> Lease(simcl::SimContext* ctx, int slots) override;

  /// Executes a span using at most `slots` worker slots — the calling
  /// thread plus up to slots-1 pool workers. Thread-safe: concurrent calls
  /// from different threads share the pool under the fairness rule above.
  /// `peak_workers`, when non-null, receives the max worker slots the span
  /// actually occupied at any instant.
  simcl::StepStats RunSpanShared(const join::StepDef& step,
                                 simcl::DeviceId dev, uint64_t begin,
                                 uint64_t end, int slots,
                                 int* peak_workers = nullptr);

  int threads() const { return static_cast<int>(counters_.size()); }
  uint32_t morsel_items() const { return morsel_items_; }

  /// Per-worker counters accumulated since the last call; resets them.
  /// Slot 0 aggregates all submitting (non-pool) threads. Only valid while
  /// no span is in flight.
  std::vector<WorkerCounters> TakeCounters();

 private:
  /// PoolLease::Wait folds an async job's peak_workers into its LeaseStats.
  friend class PoolLease;

  /// One in-flight span. Lives on the submitting thread's stack; reachable
  /// by pool workers only while listed in jobs_ (and until helpers drops
  /// to zero, which the submitter awaits before returning).
  ///
  /// `helpers` and `peak_workers` are guarded by the owning pool's mu_ —
  /// a capability of the enclosing backend that GUARDED_BY cannot name
  /// from a nested struct, so the contract is enforced by review + the
  /// TSan preset rather than -Wthread-safety.
  struct Job {
    const join::StepDef* step = nullptr;
    simcl::DeviceId dev = simcl::DeviceId::kCpu;
    uint64_t begin = 0;
    uint64_t items = 0;
    /// Next unclaimed item offset (relative to begin). The whole span's
    /// work distribution is this one fetch_add cursor.
    std::atomic<uint64_t> cursor{0};
    std::atomic<uint64_t> work{0};  ///< kernel work units
    int max_helpers = 0;            ///< quota minus the submitting thread
    int helpers = 0;                ///< attached pool workers (pool mu_)
    int peak_workers = 1;           ///< max concurrent participants (pool mu_)
  };

  /// Slot-0 counters (all submitting threads share it, so unlike the
  /// pool-worker slots it must take concurrent lock-free additions).
  struct CallerCounters {
    std::atomic<uint64_t> items{0};
    std::atomic<uint64_t> work{0};
    std::atomic<uint64_t> morsels{0};
  };

  /// One span submitted with SubmitSpan; owns the pool job until Wait
  /// unlists it. Destroying a still-listed handle (an exception unwinding
  /// between submit and Wait) cancels the job instead of leaving a
  /// dangling Job* in the pool's list.
  struct AsyncJobHandle : JobHandle {
    ~AsyncJobHandle() override {
      if (listed) pool->CancelJob(&job);
    }
    ThreadPoolBackend* pool = nullptr;
    Job job;
    std::chrono::steady_clock::time_point t0;  ///< submit time
    bool listed = false;  ///< empty spans are never listed
  };

  void WorkerLoop(int id);
  /// Claims morsels of `job` from its shared cursor until it runs dry.
  void DrainJob(Job* job, WorkerCounters* me);
  /// Stops further claims on `job`, unlists it, and waits out attached
  /// helpers (their in-flight morsels complete; kernels never abort
  /// mid-morsel). Safety net for handles dropped without Wait.
  void CancelJob(Job* job);
  /// Least-helpers-first pick among listed jobs with quota and work left;
  /// null when no job is eligible.
  Job* PickJobLocked() REQUIRES(mu_);
  /// Folds a submitting thread's per-span counters into slot 0 (lock-free).
  void FoldCallerCounters(const WorkerCounters& wc);

  const uint32_t morsel_items_;
  /// One slot per worker; slot 0 is materialized from caller_counters_ at
  /// TakeCounters time (pool workers write slots 1.. directly).
  std::vector<WorkerCounters> counters_;
  CallerCounters caller_counters_;

  annotated::Mutex mu_;
  annotated::CondVar cv_work_;  ///< signals workers: job list changed
  annotated::CondVar cv_done_;  ///< signals submitters: helpers left
  /// In-flight jobs, FIFO.
  std::vector<Job*> jobs_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;

  std::vector<std::thread> pool_;  ///< workers 1..threads-1
};

/// Partial-capacity lease on a shared ThreadPoolBackend: a Backend facade
/// that executes on the parent pool under the lease's worker-slot quota,
/// prices/reports through its own SimContext, and records per-lease
/// execution statistics. One lease serves one client (it is exactly as
/// single-caller as any backend); independence holds *across* leases.
class PoolLease : public Backend {
 public:
  PoolLease(ThreadPoolBackend* pool, simcl::SimContext* ctx, int slots);

  BackendKind kind() const override { return BackendKind::kThreadPool; }

  simcl::StepStats RunSpan(const join::StepDef& step, simcl::DeviceId dev,
                           uint64_t begin, uint64_t end) override;

  /// Async submit through the parent pool, never wider than the lease's
  /// own quota.
  std::unique_ptr<JobHandle> SubmitSpan(const join::StepDef& step,
                                        simcl::DeviceId dev, uint64_t begin,
                                        uint64_t end, int slots = 1) override;

  simcl::StepStats Wait(JobHandle* handle,
                        double* done_fraction = nullptr) override;

  int capacity() const override { return slots_; }

  /// Sub-leasing re-leases from the parent pool, never wider than this
  /// lease's own quota.
  std::unique_ptr<Backend> Lease(simcl::SimContext* ctx, int slots) override;

  const LeaseStats* lease_stats() const override { return &stats_; }
  int slots() const { return slots_; }

 private:
  ThreadPoolBackend* pool_;
  int slots_;
  LeaseStats stats_;
};

}  // namespace apujoin::exec

#endif  // APUJOIN_EXEC_THREAD_POOL_BACKEND_H_
