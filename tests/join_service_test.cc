// Unit tests for the join service: admission control and queue bounds
// surface real Status errors, fair-share quotas bound worker occupancy on
// the shared pool, and concurrent sim-backend sessions stay bit-identical
// to solo runs.

#include <gtest/gtest.h>

#include <vector>

#include "coproc/pipeline_runner.h"
#include "exec/thread_pool_backend.h"
#include "fan_out.h"
#include "join/reference_join.h"
#include "util/perf_asserts.h"
#include "service/join_service.h"
#include "per_item_kernel.h"

namespace apujoin::service {
namespace {

data::Workload MakeWorkload(uint64_t build, uint64_t probe,
                            data::Distribution dist =
                                data::Distribution::kUniform,
                            uint64_t seed = 42) {
  data::WorkloadSpec spec;
  spec.build_tuples = build;
  spec.probe_tuples = probe;
  spec.distribution = dist;
  spec.seed = seed;
  auto w = data::GenerateWorkload(spec);
  APU_CHECK_OK(w.status());
  return std::move(w).value();
}

/// The session's configured join of `w`. Submit keeps a pointer to the
/// plan, so it must outlive the ticket.
coproc::PlanSpec PlanFor(Session& session, const data::Workload& w) {
  return coproc::MakeSingleJoinPlan(w, session.joiner().config().spec);
}

SessionOptions ShjSession() {
  SessionOptions opts;
  opts.spec.algorithm = coproc::Algorithm::kSHJ;
  opts.spec.scheme = coproc::Scheme::kPipelined;
  return opts;
}

TEST(JoinServiceTest, AdmissionControlLimitsOpenSessions) {
  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kSim;
  opts.max_sessions = 2;
  JoinService service(opts);

  auto s1 = service.OpenSession(ShjSession());
  auto s2 = service.OpenSession(ShjSession());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(service.open_sessions(), 2);

  auto s3 = service.OpenSession(ShjSession());
  ASSERT_FALSE(s3.ok());
  EXPECT_EQ(s3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().sessions_rejected, 1u);

  // Closing a session frees its admission slot.
  s1->reset();
  EXPECT_EQ(service.open_sessions(), 1);
  auto s4 = service.OpenSession(ShjSession());
  EXPECT_TRUE(s4.ok());
}

TEST(JoinServiceTest, SubmissionQueueOverflowReturnsResourceExhausted) {
  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kSim;
  opts.queue_capacity = 1;
  JoinService service(opts);
  auto session = service.OpenSession(ShjSession());
  ASSERT_TRUE(session.ok());

  // Big enough that the runner cannot plausibly finish the first join in
  // the microseconds before the second Submit. That is still a race
  // against the wall clock, so the strict rejection expectation honours
  // PerfAssertsEnabled (off on single-core hosts automatically, and via
  // APUJOIN_PERF_ASSERTS=0 elsewhere); the queue-accounting invariants
  // below hold either way.
  const data::Workload w = MakeWorkload(1 << 18, 1 << 20);
  const coproc::PlanSpec plan = PlanFor(**session, w);
  auto t1 = (*session)->Submit(plan);
  ASSERT_TRUE(t1.ok());
  auto t2 = (*session)->Submit(plan);
  if (PerfAssertsEnabled()) {
    ASSERT_FALSE(t2.ok());
    EXPECT_EQ(t2.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GE(service.stats().submissions_rejected, 1u);
  } else if (t2.ok()) {
    std::fprintf(stderr,
                 "log-only (perf asserts off): runner won the race, second "
                 "submit was accepted\n");
    auto r2 = t2->Take();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(r2->matches, w.expected_matches);
  } else {
    EXPECT_EQ(t2.status().code(), StatusCode::kResourceExhausted);
  }

  auto report = t1->Take();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->matches, w.expected_matches);

  // The slot is free again once the result is in.
  auto t3 = (*session)->Submit(plan);
  ASSERT_TRUE(t3.ok());
  EXPECT_TRUE(t3->Take().ok());
  EXPECT_EQ(service.pending(), 0);
}

TEST(JoinServiceTest, TicketIsSingleShot) {
  JoinTicket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.Take().status().code(), StatusCode::kFailedPrecondition);

  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kSim;
  JoinService service(opts);
  auto session = service.OpenSession(ShjSession());
  ASSERT_TRUE(session.ok());
  const data::Workload w = MakeWorkload(1 << 12, 1 << 14);
  const coproc::PlanSpec plan = PlanFor(**session, w);
  auto ticket = (*session)->Submit(plan);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket->Take().ok());
  EXPECT_EQ(ticket->Take().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(JoinServiceTest, SessionDrainsQueueOnClose) {
  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kSim;
  JoinService service(opts);
  auto session = service.OpenSession(ShjSession());
  ASSERT_TRUE(session.ok());

  const data::Workload w = MakeWorkload(1 << 14, 1 << 16);
  const coproc::PlanSpec plan = PlanFor(**session, w);
  std::vector<JoinTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    auto t = (*session)->Submit(plan);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  session->reset();  // destructor drains: accepted requests still complete
  for (JoinTicket& t : tickets) {
    auto report = t.Take();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->matches, w.expected_matches);
  }
  EXPECT_EQ(service.stats().joins_completed, 3u);
}

TEST(JoinServiceTest, FairShareQuotaBoundsWorkerOccupancy) {
  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kThreadPool;
  opts.exec.threads = 4;
  opts.max_sessions = 2;
  JoinService service(opts);
  ASSERT_EQ(service.capacity(), 4);
  ASSERT_EQ(service.default_slots(), 2);

  auto a = service.OpenSession(ShjSession());
  auto b = service.OpenSession(ShjSession());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->slots(), 2);

  const data::Workload wa = MakeWorkload(1 << 15, 1 << 17);
  const data::Workload wb = MakeWorkload(1 << 14, 1 << 16,
                                         data::Distribution::kLowSkew, 7);
  const coproc::PlanSpec pa = PlanFor(**a, wa);
  const coproc::PlanSpec pb = PlanFor(**b, wb);
  std::vector<JoinTicket> tickets;
  for (int i = 0; i < 3; ++i) {
    auto ta = (*a)->Submit(pa);
    auto tb = (*b)->Submit(pb);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    tickets.push_back(*ta);
    tickets.push_back(*tb);
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto report = tickets[i].Take();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->matches,
              (i % 2 == 0 ? wa : wb).expected_matches);
  }

  // The quota is a hard cap on a span's worker occupancy.
  for (auto* session : {a->get(), b->get()}) {
    const exec::LeaseStats* ls = session->lease_stats();
    ASSERT_NE(ls, nullptr);
    EXPECT_GT(ls->spans, 0u);
    EXPECT_LE(ls->peak_workers, session->slots());
  }
}

TEST(JoinServiceTest, DefaultSlotsClampToCapacity) {
  // A default quota wider than the pool must report what the lease can
  // actually grant, exactly like an explicit SessionOptions::slots.
  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kThreadPool;
  opts.exec.threads = 2;
  opts.default_slots = 8;
  JoinService service(opts);
  EXPECT_EQ(service.default_slots(), 2);
  auto session = service.OpenSession(ShjSession());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->slots(), 2);
}

TEST(JoinServiceTest, ConcurrentSimSessionsBitIdenticalToSolo) {
  const data::Workload w = MakeWorkload(1 << 14, 1 << 16);

  // Solo reference: an exclusively-owned sim backend.
  core::JoinConfig config;
  config.spec.algorithm = coproc::Algorithm::kSHJ;
  config.spec.scheme = coproc::Scheme::kPipelined;
  core::CoupledJoiner solo(config);
  auto reference = solo.Join(w);
  ASSERT_TRUE(reference.ok());

  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kSim;
  JoinService service(opts);
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<coproc::PlanSpec> plans;
  for (int i = 0; i < 3; ++i) {
    auto s = service.OpenSession(ShjSession());
    ASSERT_TRUE(s.ok());
    sessions.push_back(std::move(*s));
    plans.push_back(PlanFor(*sessions.back(), w));
  }
  std::vector<JoinTicket> tickets;
  for (int round = 0; round < 4; ++round) {
    for (size_t i = 0; i < sessions.size(); ++i) {
      auto t = sessions[i]->Submit(plans[i]);
      ASSERT_TRUE(t.ok());
      tickets.push_back(*t);
    }
  }
  for (JoinTicket& t : tickets) {
    auto report = t.Take();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->matches, reference->matches);
    EXPECT_EQ(report->elapsed_ns, reference->elapsed_ns);
    EXPECT_EQ(report->estimated_ns, reference->estimated_ns);
    ASSERT_EQ(report->steps.size(), reference->steps.size());
    for (size_t i = 0; i < report->steps.size(); ++i) {
      EXPECT_EQ(report->steps[i].ratio, reference->steps[i].ratio);
      EXPECT_EQ(report->steps[i].cpu_ns, reference->steps[i].cpu_ns);
      EXPECT_EQ(report->steps[i].gpu_ns, reference->steps[i].gpu_ns);
    }
  }
}

TEST(PoolLeaseTest, LeaseExecutesUnderQuotaAndSubLeasesNarrow) {
  simcl::SimContext pool_ctx;
  exec::ThreadPoolBackend pool(&pool_ctx, {4, 32});
  simcl::SimContext session_ctx;
  auto lease = pool.Lease(&session_ctx, 2);
  EXPECT_EQ(lease->kind(), exec::BackendKind::kThreadPool);
  EXPECT_EQ(lease->capacity(), 2);
  EXPECT_EQ(lease->context(), &session_ctx);

  std::atomic<uint64_t> c{0};
  join::StepDef step;
  step.name = "t1";
  step.items = 20000;
  step.run = join::PerItemKernel(
      [&c](uint64_t, simcl::DeviceId) -> uint32_t {
        c.fetch_add(1, std::memory_order_relaxed);
        return 1;
      });
  const simcl::StepStats stats = lease->Run(step, 0.5);
  EXPECT_EQ(c.load(), 20000u);
  EXPECT_EQ(stats.items[0] + stats.items[1], 20000u);
  const exec::LeaseStats* ls = lease->lease_stats();
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->spans, 2u);  // one per device slice
  EXPECT_EQ(ls->items, 20000u);
  EXPECT_LE(ls->peak_workers, 2);
  EXPECT_GE(ls->peak_workers, 1);

  auto sub = lease->Lease(&session_ctx, 4);  // cannot widen past the parent
  EXPECT_EQ(sub->capacity(), 2);
}

TEST(JoinServiceTest, FanOutSubmissionIsExact) {
  // A submitted plan that is not told its 256x fan-out still returns the
  // exact count.
  const data::Workload w = data::FanOutWorkload();
  const uint64_t reference = join::ReferenceMatchCount(w.build, w.probe);
  ServiceOptions opts;
  opts.exec.backend = exec::BackendKind::kThreadPool;
  opts.exec.threads = 2;
  JoinService service(opts);
  auto session = service.OpenSession(ShjSession());
  ASSERT_TRUE(session.ok());
  coproc::PlanSpec plan;
  const int b = plan.graph.AddScan(&w.build);
  const int p = plan.graph.AddScan(&w.probe);
  plan.graph.AddHashJoin(b, p);
  plan.exec = (*session)->joiner().config().spec;
  auto ticket = (*session)->Submit(plan);
  ASSERT_TRUE(ticket.ok());
  auto report = ticket->Take();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->matches, reference);
}

}  // namespace
}  // namespace apujoin::service
