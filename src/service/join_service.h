// JoinService — concurrent multi-session join serving over one shared
// execution substrate.
//
// The paper tunes one hash join at a time; a deployable engine serves many
// clients at once, all contending for the same physical cores. This layer
// multiplexes them:
//
//   * one shared substrate (normally a ThreadPoolBackend) executes every
//     session's step kernels; each session schedules through a
//     partial-capacity *lease* with a fair worker-slot quota, so one giant
//     PHJ cannot starve a stream of small SHJs;
//   * admission control is explicit: opening a session beyond max_sessions
//     and submitting beyond the bounded request queue both fail with a
//     real ResourceExhausted Status instead of queuing unboundedly;
//   * per-session state stays per-session — each session owns a
//     CoupledJoiner (machine model + lease). Sessions do not tune their
//     ratios: measurement-driven tuning is a sim-only CoupledJoiner feature
//     (coproc/ratio_tuner.h), and a service exists to multiplex real cores;
//   * ServiceOptions::exec only sizes the shared pool (backend, threads,
//     morsel); a session takes every other knob from its own spec.
//
// Threading model: a session's requests execute serially on the session's
// own runner thread (per-session state is single-caller by design); any
// number of client threads may Submit to any number of sessions. On the
// sim backend every lease is an independent analytic backend over the
// session's own context, so concurrent sessions stay bit-identical to solo
// runs.

#ifndef APUJOIN_SERVICE_JOIN_SERVICE_H_
#define APUJOIN_SERVICE_JOIN_SERVICE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "core/coupled_joiner.h"
#include "exec/exec_options.h"
#include "util/annotated_mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace apujoin::service {

/// Service-level configuration.
struct ServiceOptions {
  /// The shared pool every session's lease executes on: backend kind, pool
  /// size (`threads`; 0 = hardware concurrency) and morsel granularity. A
  /// thread pool by default, not the simulator — a service exists to
  /// multiplex real cores. Every other knob a session runs with comes from
  /// its SessionOptions::spec.
  exec::PoolOptions exec{exec::BackendKind::kThreadPool};
  /// Admission cap on concurrently open sessions.
  int max_sessions = 8;
  /// Worker-slot quota per session; 0 = fair share, i.e.
  /// max(1, capacity / max_sessions). Oversubscription (sum of quotas
  /// beyond capacity) is allowed — quotas cap each session, the pool's
  /// least-loaded-first worker assignment arbitrates the rest.
  int default_slots = 0;
  /// Bound on requests queued or running service-wide; Submit beyond it
  /// returns ResourceExhausted (backpressure, not unbounded memory).
  int queue_capacity = 64;
};

/// Per-session configuration.
struct SessionOptions {
  simcl::ContextOptions context;  ///< the session's machine model
  coproc::JoinSpec spec;          ///< algorithm/scheme/engine defaults
  /// Worker-slot quota override; 0 = the service default.
  int slots = 0;
};

/// Aggregate service counters (monotonic).
struct ServiceStats {
  uint64_t joins_completed = 0;
  uint64_t joins_failed = 0;
  uint64_t submissions_rejected = 0;  ///< queue-full Submit attempts
  uint64_t sessions_rejected = 0;     ///< admission-denied OpenSession calls
};

class Session;

/// One submitted join: a single-shot future for its report.
class JoinTicket {
 public:
  JoinTicket() = default;

  bool valid() const { return state_ != nullptr; }
  /// True once the result is available (Take will not block).
  bool done() const;
  /// Blocks until the join finishes and moves its result out. A second
  /// Take (or Take on an invalid ticket) returns FailedPrecondition.
  apujoin::StatusOr<coproc::JoinReport> Take();

 private:
  friend class Session;
  struct State {
    annotated::Mutex mu;
    annotated::CondVar cv;
    /// Set once by Submit before it is handed to the client.
    const coproc::PlanSpec* plan = nullptr;
    std::optional<apujoin::StatusOr<coproc::JoinReport>> result GUARDED_BY(mu);
    bool taken GUARDED_BY(mu) = false;
  };
  std::shared_ptr<State> state_;
};

/// Admission-controlled multi-session join service.
///
/// Lifetime: sessions hold a pointer to the service and a lease on its
/// substrate — destroy (close) every Session before the JoinService.
class JoinService {
 public:
  explicit JoinService(ServiceOptions opts = ServiceOptions());
  ~JoinService();

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  /// Opens a join session (admission-controlled): ResourceExhausted once
  /// max_sessions sessions are open.
  apujoin::StatusOr<std::unique_ptr<Session>> OpenSession(
      SessionOptions opts = SessionOptions());

  /// Worker slots of the shared substrate.
  int capacity() const { return substrate_->capacity(); }
  /// The quota a default-configured session receives.
  int default_slots() const;
  int open_sessions() const;
  /// Requests currently queued or running, service-wide.
  /// (relaxed: monitoring snapshot of a standalone counter.)
  int pending() const { return pending_.load(std::memory_order_relaxed); }
  ServiceStats stats() const;
  const ServiceOptions& options() const { return opts_; }
  exec::Backend& substrate() { return *substrate_; }

 private:
  friend class Session;

  /// Reserves one queue slot; false when the bounded queue is full.
  bool TryAcquireQueueSlot();
  void ReleaseQueueSlot() {
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  void CloseSession();
  void CountJoin(bool ok);

  ServiceOptions opts_;
  /// The substrate's bind context. Leases price through their session's
  /// own context; this one exists because a Backend is always attached to
  /// some machine model.
  std::unique_ptr<simcl::SimContext> substrate_ctx_;
  std::unique_ptr<exec::Backend> substrate_;

  mutable annotated::Mutex mu_;
  ServiceStats stats_ GUARDED_BY(mu_);
  int open_sessions_ GUARDED_BY(mu_) = 0;
  int next_session_id_ GUARDED_BY(mu_) = 1;
  std::atomic<int> pending_{0};
};

/// One client's join session: a leased CoupledJoiner fed by a FIFO of
/// submitted requests, executed serially on the session's runner thread.
/// Submit is thread-safe; destruction drains the queue (every
/// accepted request still completes) and releases the admission slot.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Enqueues one operator-plan execution (selections, hash/multi-way join,
  /// group-by — see coproc/pipeline_runner.h). `plan` and every relation its
  /// scans point at must stay alive and unmodified until the ticket
  /// completes; coproc::MakeSingleJoinPlan(workload, joiner().config().spec)
  /// is the session's configured join of a workload. Fails with
  /// ResourceExhausted when the service-wide queue is full,
  /// FailedPrecondition when the session is closing.
  apujoin::StatusOr<JoinTicket> Submit(const coproc::PlanSpec& plan);

  /// The session's per-session state: lease and machine model.
  /// Single-caller — do not drive it while submitted requests are pending.
  core::CoupledJoiner& joiner() { return joiner_; }
  /// Worker-slot quota of this session's lease.
  int slots() const { return slots_; }
  int id() const { return id_; }
  /// Lease execution statistics (null on substrates without real leases,
  /// i.e. the sim backend).
  const exec::LeaseStats* lease_stats() const {
    return joiner_.backend().lease_stats();
  }

 private:
  friend class JoinService;
  Session(JoinService* service, int id, SessionOptions opts, int slots);

  void RunnerLoop();
  void RunOne(JoinTicket::State* req);

  JoinService* service_;
  const int id_;
  const int slots_;
  core::CoupledJoiner joiner_;

  annotated::Mutex mu_;
  annotated::CondVar cv_;
  std::deque<std::shared_ptr<JoinTicket::State>> queue_ GUARDED_BY(mu_);
  bool closing_ GUARDED_BY(mu_) = false;
  std::thread runner_;
};

}  // namespace apujoin::service

#endif  // APUJOIN_SERVICE_JOIN_SERVICE_H_
