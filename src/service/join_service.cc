#include "service/join_service.h"

#include <algorithm>
#include <string>

namespace apujoin::service {

using apujoin::Status;
using apujoin::StatusOr;

// ---------------------------------------------------------------------------
// JoinTicket
// ---------------------------------------------------------------------------

bool JoinTicket::done() const {
  if (state_ == nullptr) return false;
  annotated::MutexLock lock(state_->mu);
  return state_->result.has_value();
}

StatusOr<coproc::JoinReport> JoinTicket::Take() {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Take() on an empty JoinTicket");
  }
  annotated::MutexLock lock(state_->mu);
  // Predicate runs with state_->mu held (CondVar::Wait contract), which
  // the analysis cannot see into the lambda.
  state_->cv.Wait(state_->mu, [this]() NO_THREAD_SAFETY_ANALYSIS {
    return state_->result.has_value();
  });
  if (state_->taken) {
    return Status::FailedPrecondition("JoinTicket already taken");
  }
  state_->taken = true;
  return std::move(*state_->result);
}

// ---------------------------------------------------------------------------
// JoinService
// ---------------------------------------------------------------------------

JoinService::JoinService(ServiceOptions opts) : opts_(std::move(opts)) {
  opts_.max_sessions = std::max(1, opts_.max_sessions);
  opts_.queue_capacity = std::max(1, opts_.queue_capacity);
  // Out-of-range substrate knobs fail loudly here (a service with a
  // mis-sized pool should not come up half-configured and clamp silently).
  APU_CHECK_OK(opts_.exec.Validate());
  substrate_ctx_ = std::make_unique<simcl::SimContext>();
  substrate_ = exec::MakeBackend(opts_.exec, substrate_ctx_.get());
}

JoinService::~JoinService() {
  // Sessions lease the substrate and point back here; one outliving the
  // service would use freed memory. Fail loudly in every build (the
  // assert-only version vanished under NDEBUG and let the use-after-free
  // happen later, far from the cause).
  annotated::MutexLock lock(mu_);
  APU_CHECK(open_sessions_ == 0 &&
            "destroy all Sessions before the JoinService");
}

int JoinService::default_slots() const {
  // Clamped to capacity like an explicit SessionOptions::slots, so the
  // quota a Session reports is the quota its lease actually grants.
  if (opts_.default_slots > 0) {
    return std::min(opts_.default_slots, std::max(1, capacity()));
  }
  return std::max(1, capacity() / opts_.max_sessions);
}

int JoinService::open_sessions() const {
  annotated::MutexLock lock(mu_);
  return open_sessions_;
}

ServiceStats JoinService::stats() const {
  annotated::MutexLock lock(mu_);
  return stats_;
}

StatusOr<std::unique_ptr<Session>> JoinService::OpenSession(
    SessionOptions opts) {
  // The session's engine knobs go through the same single validation the
  // substrate went through (ExecOptions consolidation: no layer
  // re-implements range checks). Checked before admission so a rejected
  // spec cannot leak an admission slot.
  APU_RETURN_IF_ERROR(opts.spec.engine.Validate());
  int id = 0;
  {
    annotated::MutexLock lock(mu_);
    if (open_sessions_ >= opts_.max_sessions) {
      ++stats_.sessions_rejected;
      return Status::ResourceExhausted(
          "join service at its session limit (" +
          std::to_string(opts_.max_sessions) +
          " open); close a session or raise ServiceOptions::max_sessions");
    }
    ++open_sessions_;
    id = next_session_id_++;
  }
  const int slots =
      opts.slots > 0 ? std::min(opts.slots, std::max(1, capacity()))
                     : default_slots();
  try {
    return std::unique_ptr<Session>(new Session(this, id, std::move(opts),
                                                slots));
  } catch (const std::exception& e) {
    // Session construction spawns the runner thread, which can throw
    // under thread-resource exhaustion; give the admission slot back
    // instead of leaking it forever.
    CloseSession();
    return Status::ResourceExhausted(
        std::string("failed to start session runner: ") + e.what());
  }
}

bool JoinService::TryAcquireQueueSlot() {
  // relaxed CAS loop: pending_ is a standalone admission counter — the
  // slot count itself is the only shared state, no other memory is
  // published under it, so no ordering is needed beyond RMW atomicity.
  int cur = pending_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= opts_.queue_capacity) {
      annotated::MutexLock lock(mu_);
      ++stats_.submissions_rejected;
      return false;
    }
    // relaxed: see above — RMW atomicity is the whole contract.
    if (pending_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_relaxed)) {
      return true;
    }
  }
}

void JoinService::CloseSession() {
  annotated::MutexLock lock(mu_);
  --open_sessions_;
}

void JoinService::CountJoin(bool ok) {
  annotated::MutexLock lock(mu_);
  if (ok) {
    ++stats_.joins_completed;
  } else {
    ++stats_.joins_failed;
  }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

namespace {

core::JoinConfig MakeSessionConfig(const SessionOptions& opts) {
  core::JoinConfig config;
  config.context = opts.context;
  config.spec = opts.spec;
  return config;
}

}  // namespace

Session::Session(JoinService* service, int id, SessionOptions opts,
                 int slots)
    : service_(service),
      id_(id),
      slots_(slots),
      joiner_(MakeSessionConfig(opts), &service->substrate(), slots) {
  runner_ = std::thread([this] { RunnerLoop(); });
}

Session::~Session() {
  {
    annotated::MutexLock lock(mu_);
    closing_ = true;
  }
  cv_.NotifyAll();
  runner_.join();  // drains the queue: accepted requests still complete
  service_->CloseSession();
}

StatusOr<JoinTicket> Session::Submit(const coproc::PlanSpec& plan) {
  if (!service_->TryAcquireQueueSlot()) {
    return Status::ResourceExhausted(
        "join service submission queue is full (" +
        std::to_string(service_->options().queue_capacity) +
        " requests queued or running); retry after taking results");
  }
  JoinTicket ticket;
  ticket.state_ = std::make_shared<JoinTicket::State>();
  ticket.state_->plan = &plan;
  {
    annotated::MutexLock lock(mu_);
    if (closing_) {
      service_->ReleaseQueueSlot();
      return Status::FailedPrecondition("session is closing");
    }
    queue_.push_back(ticket.state_);
  }
  cv_.NotifyOne();
  return ticket;
}

void Session::RunnerLoop() {
  for (;;) {
    std::shared_ptr<JoinTicket::State> req;
    {
      annotated::MutexLock lock(mu_);
      // Predicate runs with mu_ held (CondVar::Wait contract), which the
      // analysis cannot see into the lambda.
      cv_.Wait(mu_, [this]() NO_THREAD_SAFETY_ANALYSIS {
        return closing_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // closing_ and drained
      req = queue_.front();
      queue_.pop_front();
    }
    RunOne(req.get());
  }
}

void Session::RunOne(JoinTicket::State* req) {
  auto report = joiner_.RunPlan(*req->plan);
  service_->CountJoin(report.ok());
  // Free the queue slot before publishing the result: a client that
  // Take()s and immediately resubmits must find the capacity its finished
  // request no longer occupies.
  service_->ReleaseQueueSlot();
  {
    annotated::MutexLock lock(req->mu);
    req->result.emplace(std::move(report));
  }
  req->cv.NotifyAll();
}

}  // namespace apujoin::service
