// Join server: N client threads driving one JoinService — the serving
// topology the repo is growing toward, in one runnable example.
//
// Four clients share a thread-pool substrate through fair-share session
// leases: one analytics client streams PHJ joins over a bigger relation
// pair while three OLTP-ish clients hammer small SHJ joins with different
// skew. The example also shows the two admission-control surfaces
// returning real errors: opening a fifth session beyond max_sessions, and
// a submission burst overflowing the bounded request queue.
//
// Flags: --backend=sim|threads (default threads), --threads=N pool size.

#include <cstdio>
#include <thread>
#include <vector>

#include "example_common.h"
#include "service/join_service.h"
#include "util/table_printer.h"

namespace {

using namespace apujoin;

constexpr int kClients = 4;
constexpr int kJoinsPerClient = 8;

data::Workload MakeWorkload(uint64_t build, uint64_t probe,
                            data::Distribution dist, uint64_t seed) {
  data::WorkloadSpec spec;
  spec.build_tuples = build;
  spec.probe_tuples = probe;
  spec.distribution = dist;
  spec.seed = seed;
  auto w = data::GenerateWorkload(spec);
  APU_CHECK_OK(w.status());
  return std::move(w).value();
}

struct ClientResult {
  uint64_t joins = 0;
  uint64_t matches = 0;
  double total_s = 0.0;
  double first_s = 0.0;
  double last_s = 0.0;
};

void RunClient(service::Session* session, const data::Workload& w,
               ClientResult* out) {
  using Clock = std::chrono::steady_clock;
  // The session's configured join of `w`; it outlives every ticket below.
  const coproc::PlanSpec plan =
      coproc::MakeSingleJoinPlan(w, session->joiner().config().spec);
  for (int i = 0; i < kJoinsPerClient; ++i) {
    const auto t0 = Clock::now();
    auto ticket = session->Submit(plan);
    APU_CHECK_OK(ticket.status());
    auto report = ticket->Take();
    APU_CHECK_OK(report.status());
    APU_CHECK(report->matches == w.expected_matches);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    out->total_s += s;
    if (i == 0) out->first_s = s;
    out->last_s = s;
    ++out->joins;
    out->matches += report->matches;
  }
}

}  // namespace

int main(int argc, char** argv) {
  join::EngineOptions engine;
  engine.backend = exec::BackendKind::kThreadPool;
  examples::ApplyBackendFlags(argc, argv, &engine);

  service::ServiceOptions sopts;
  sopts.exec.backend = engine.backend;
  sopts.exec.threads = engine.threads;
  sopts.exec.morsel_items = engine.morsel_items;
  sopts.max_sessions = kClients;
  sopts.queue_capacity = 8;
  service::JoinService svc(sopts);

  std::printf("join server: backend=%s, %d worker slots, max %d sessions, "
              "queue %d\n\n",
              exec::BackendKindName(sopts.exec.backend), svc.capacity(),
              sopts.max_sessions, sopts.queue_capacity);

  // One analytics session (PHJ, bigger relations, quota 2) + three OLTP
  // sessions (small SHJ, different skew, quota 1 each).
  std::vector<data::Workload> workloads;
  workloads.push_back(MakeWorkload(1 << 16, 1 << 17,
                                   data::Distribution::kUniform, 1));
  workloads.push_back(MakeWorkload(1 << 13, 1 << 15,
                                   data::Distribution::kUniform, 2));
  workloads.push_back(MakeWorkload(1 << 13, 1 << 15,
                                   data::Distribution::kLowSkew, 3));
  workloads.push_back(MakeWorkload(1 << 13, 1 << 15,
                                   data::Distribution::kHighSkew, 4));

  std::vector<std::unique_ptr<service::Session>> sessions;
  for (int c = 0; c < kClients; ++c) {
    service::SessionOptions o;
    o.spec.algorithm = c == 0 ? coproc::Algorithm::kPHJ
                              : coproc::Algorithm::kSHJ;
    o.spec.scheme = coproc::Scheme::kPipelined;
    o.spec.engine = engine;
    o.slots = c == 0 ? 2 : 1;
    auto session = svc.OpenSession(std::move(o));
    APU_CHECK_OK(session.status());
    sessions.push_back(std::move(*session));
  }

  // Admission control is a real error, not a hang.
  auto rejected = svc.OpenSession(service::SessionOptions());
  APU_CHECK(!rejected.ok());
  std::printf("5th session rejected: %s\n\n",
              rejected.status().ToString().c_str());

  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RunClient(sessions[static_cast<size_t>(c)].get(),
                workloads[static_cast<size_t>(c)],
                &results[static_cast<size_t>(c)]);
    });
  }
  for (std::thread& t : clients) t.join();

  TablePrinter table({"client", "algo", "quota", "joins", "mean(ms)",
                      "first(ms)", "last(ms)", "peak workers"});
  for (int c = 0; c < kClients; ++c) {
    const ClientResult& r = results[static_cast<size_t>(c)];
    const service::Session& s = *sessions[static_cast<size_t>(c)];
    const exec::LeaseStats* ls = s.lease_stats();
    table.AddRow({"c" + std::to_string(c), c == 0 ? "PHJ" : "SHJ",
                  std::to_string(s.slots()), std::to_string(r.joins),
                  TablePrinter::Fmt(r.total_s / static_cast<double>(r.joins) *
                                        1e3, 1),
                  TablePrinter::Fmt(r.first_s * 1e3, 1),
                  TablePrinter::Fmt(r.last_s * 1e3, 1),
                  ls != nullptr ? std::to_string(ls->peak_workers) : "-"});
  }
  table.Print();

  // Overflow the bounded queue on purpose: a burst of async submissions
  // beyond queue_capacity is refused, not buffered forever.
  const coproc::PlanSpec burst_plan = coproc::MakeSingleJoinPlan(
      workloads[1], sessions[1]->joiner().config().spec);
  std::vector<service::JoinTicket> burst;
  apujoin::Status overflow = apujoin::Status::OK();
  for (int i = 0; i < sopts.queue_capacity + 4; ++i) {
    auto t = sessions[1]->Submit(burst_plan);
    if (t.ok()) {
      burst.push_back(*t);
    } else {
      overflow = t.status();
      break;
    }
  }
  APU_CHECK(!overflow.ok());
  std::printf("\nburst of %d submissions: %zu accepted, then: %s\n",
              sopts.queue_capacity + 4, burst.size(),
              overflow.ToString().c_str());
  for (service::JoinTicket& t : burst) APU_CHECK_OK(t.Take().status());

  const service::ServiceStats stats = svc.stats();
  std::printf("\nservice: %llu joins completed, %llu failed, %llu "
              "submissions rejected, %llu sessions rejected\n",
              static_cast<unsigned long long>(stats.joins_completed),
              static_cast<unsigned long long>(stats.joins_failed),
              static_cast<unsigned long long>(stats.submissions_rejected),
              static_cast<unsigned long long>(stats.sessions_rejected));
  sessions.clear();  // close sessions before the service
  return 0;
}
