// apujoin_bench — the repository's end-to-end benchmark program.
//
//   apujoin_bench --workload NAME (--seconds S | --smoke) [--seed N]
//                 [--trace 0|1|PATH]
//   apujoin_bench --list
//
// One process runs one workload on the thread-pool backend, with
// min(nproc, 4) worker threads counting the calling thread. Inputs are
// generated from --seed; the engine receives only the generated relations.
// A run sets the engine up several times (each set-up = backend or service
// construction plus the first, cold operation), warms up, then times
// operations for --seconds, and for at least kMinTimedOps operations. The
// run length has no default here: benchmark/run.sh passes BENCHMARK.json's
// run_seconds. Every operation's answer is checked; a wrong answer names
// the workload and the operation and exits 1.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1, or --trace PATH) alternate traced and untraced operations,
// record spans around the benchmark's own calls into each layer, run the
// unordered_map floor, report the per-layer metrics and write the spans as
// Chrome trace-event JSON (default: <binary dir>/traces/). Every metric is
// printed as `workload metric value unit`; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Only stable public entry points are called: data::GenerateWorkload,
// plan::Graph / plan::Fuse, coproc::ExecutePlan and its JoinReport,
// exec::MakeBackend with Backend::set_trace / DrainEvents and
// ThreadPoolBackend::TakeCounters, the service::JoinService session API,
// and join::ReferenceMatchCount. See benchmark/README.md.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "coproc/pipeline_runner.h"
#include "data/generator.h"
#include "exec/backend.h"
#include "exec/thread_pool_backend.h"
#include "floor.h"
#include "join/reference_join.h"
#include "plan/fusion.h"
#include "plan/plan.h"
#include "service/join_service.h"
#include "trace.h"

#ifndef APUJOIN_BENCH_BUILD_TYPE
#define APUJOIN_BENCH_BUILD_TYPE "unknown"
#endif

namespace apujoin::benchmark {
namespace {

constexpr uint64_t kKi = 1024;
constexpr int kThreadCap = 4;
constexpr int kSetups = 11;       // set-ups per run; setup_s is their median
constexpr int kWarmups = 3;       // untimed operations after the last set-up
constexpr int kFloorRuns = 5;     // floor joins per traced run
// Operations each timing loop runs at least, however short --seconds is,
// so that an untraced run's p90 has at least ten samples beyond it.
constexpr uint64_t kMinTimedOps = 100;
constexpr int kSmokeDivisor = 64;
constexpr int kSmokeOps = 5;

enum class Shape {
  kJoin,               // one HashJoin plan through ExecutePlan
  kFilterJoinGroupBy,  // Select -> HashJoin -> GroupBy(SUM) through ExecutePlan
  kService,            // HashJoin plans submitted by two JoinService clients
};

struct WorkloadDef {
  const char* name;
  Shape shape;
  coproc::Algorithm algorithm;
  exec::HashLayout layout;
  data::KeySchema key_schema;
  data::Distribution distribution;
  double selectivity;
  uint64_t build_tuples;
  uint64_t probe_tuples;
};

// Why each workload exists is recorded in benchmark/README.md; in short:
// phj-uniform is the paper's default algorithm and data (partition and
// emit dominate, inputs plus table exceed a core's L2); shj-u64-skew never
// partitions and runs the wide-key scalar probe on a 25% hot key;
// filter-join-groupby runs a flag-only select into a probe that streams
// into the aggregate, writing no result pairs; service-small is two
// closed-loop clients contending for one pool with L2-resident tables, so
// per-query fixed costs dominate.
const WorkloadDef kWorkloads[] = {
    {"phj-uniform", Shape::kJoin, coproc::Algorithm::kPHJ,
     exec::HashLayout::kChained, data::KeySchema::kU32,
     data::Distribution::kUniform, 1.0, 128 * kKi, 512 * kKi},
    {"shj-u64-skew", Shape::kJoin, coproc::Algorithm::kSHJ,
     exec::HashLayout::kOpenAddressing, data::KeySchema::kU64,
     data::Distribution::kHighSkew, 1.0, 128 * kKi, 512 * kKi},
    {"filter-join-groupby", Shape::kFilterJoinGroupBy,
     coproc::Algorithm::kSHJ, exec::HashLayout::kChained,
     data::KeySchema::kU32, data::Distribution::kUniform, 0.5, 256 * kKi,
     1024 * kKi},
    {"service-small", Shape::kService, coproc::Algorithm::kPHJ,
     exec::HashLayout::kChained, data::KeySchema::kU32,
     data::Distribution::kUniform, 1.0, 16 * kKi, 64 * kKi},
};

struct Options {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 42;
  double seconds = 0.0;  // required unless smoking; no default of its own
  bool smoke = false;
  std::string trace_path;  // empty: untraced run
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "apujoin_bench: %s\n", msg.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `v`. Failed operations enter
/// as +inf and sort last; a position that falls exactly on a sample returns
/// that sample, so a finite quantile is never turned into inf * 0 = NaN.
/// (EmpiricalCdf::Quantile in src/util/stats.h interpolates unguarded.)
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 == v.size() || v[lo + 1] == v[lo]) return v[lo];
  return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Per-operation samples of named per-layer values.
class Samples {
 public:
  void Add(const std::string& name, double v) { by_name_[name].push_back(v); }
  bool Has(const std::string& name) const {
    return by_name_.count(name) != 0;
  }
  double MedianOf(const std::string& name) const {
    return Median(by_name_.at(name));
  }
  void Merge(const Samples& other) {
    for (const auto& [name, v] : other.by_name_) {
      auto& dst = by_name_[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }

 private:
  std::map<std::string, std::vector<double>> by_name_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---------------------------------------------------------------------------
// Inputs and answers
// ---------------------------------------------------------------------------

/// The generated relations, the plan over them, and the checked answer.
struct Inputs {
  data::Workload workload;
  coproc::PlanSpec plan;
  uint64_t expected_matches = 0;
  std::vector<join::GroupRow> expected_groups;  // filter-join-groupby only
  int32_t rid_limit = 0;                        // filter-join-groupby only

  uint64_t tuples() const {
    return workload.build.size() + workload.probe.size();
  }
};

Inputs MakeInputs(const WorkloadDef& def, const Options& opt, int threads) {
  const uint64_t div = opt.smoke ? kSmokeDivisor : 1;
  data::WorkloadSpec spec;
  spec.build_tuples = def.build_tuples / div;
  spec.probe_tuples = def.probe_tuples / div;
  spec.distribution = def.distribution;
  spec.selectivity = def.selectivity;
  spec.seed = opt.seed;
  spec.key_schema = def.key_schema;
  auto w = data::GenerateWorkload(spec);
  if (!w.ok()) Die("input generation failed: " + w.status().ToString());

  Inputs in;
  in.workload = std::move(w).value();
  const data::Relation& build = in.workload.build;
  const data::Relation& probe = in.workload.probe;
  coproc::PlanSpec& plan = in.plan;
  const int b = plan.graph.AddScan(&build);
  int p = plan.graph.AddScan(&probe);
  if (def.shape == Shape::kFilterJoinGroupBy) {
    in.rid_limit = static_cast<int32_t>(probe.size() / 2);
    plan::Predicate pred;
    pred.column = plan::SelectColumn::kRid;
    pred.op = plan::CompareOp::kLt;
    pred.operand = in.rid_limit;
    p = plan.graph.AddSelect(p, pred);
  }
  const int j = plan.graph.AddHashJoin(b, p);
  if (def.shape == Shape::kFilterJoinGroupBy) {
    plan.graph.AddGroupBy(j, plan::AggFn::kSum);
  }
  plan.exec.algorithm = def.algorithm;
  plan.exec.engine.backend = exec::BackendKind::kThreadPool;
  plan.exec.engine.threads = threads;
  plan.exec.engine.layout = def.layout;

  if (def.shape == Shape::kFilterJoinGroupBy) {
    in.expected_groups = OracleFilterJoinSum(build, probe, in.rid_limit);
    for (const join::GroupRow& g : in.expected_groups) {
      in.expected_matches += g.count;
    }
  } else {
    in.expected_matches = join::ReferenceMatchCount(build, probe);
  }
  return in;
}

/// Empty when `r` is the right answer, else what is wrong with it.
std::string CheckAnswer(const Inputs& in, const coproc::JoinReport& r) {
  if (r.matches != in.expected_matches) {
    return "matches " + std::to_string(r.matches) + ", expected " +
           std::to_string(in.expected_matches);
  }
  if (r.dropped_matches != 0) {
    return std::to_string(r.dropped_matches) + " matches dropped";
  }
  if (r.groups.size() != in.expected_groups.size()) {
    return "groups " + std::to_string(r.groups.size()) + ", expected " +
           std::to_string(in.expected_groups.size());
  }
  for (size_t i = 0; i < r.groups.size(); ++i) {
    const join::GroupRow& got = r.groups[i];
    const join::GroupRow& want = in.expected_groups[i];
    if (got.key != want.key || got.value != want.value ||
        got.count != want.count) {
      return "group " + std::to_string(i) + " is (" +
             std::to_string(got.key) + ", " + std::to_string(got.value) +
             ", " + std::to_string(got.count) + "), expected (" +
             std::to_string(want.key) + ", " + std::to_string(want.value) +
             ", " + std::to_string(want.count) + ")";
    }
  }
  return "";
}

[[noreturn]] void DieAtOp(const Options& opt, uint64_t op,
                          const std::string& why) {
  Die("workload " + std::string(opt.workload->name) + " op " +
      std::to_string(op) + ": " + why);
}

/// Exits 1 naming the workload and operation when `r` failed or is wrong.
void RequireCorrect(const Options& opt, const Inputs& in, uint64_t op,
                    const StatusOr<coproc::JoinReport>& r) {
  const std::string why = r.ok() ? CheckAnswer(in, *r) : r.status().ToString();
  if (!why.empty()) DieAtOp(opt, op, why);
}

// ---------------------------------------------------------------------------
// Per-layer values of one operation
// ---------------------------------------------------------------------------

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// The layer a step's time is charged to, keyed off StepReport::phase;
/// inside the probe phase, the emit step (p4 writes result pairs, p4g
/// streams matches into the aggregate) is split off by name.
const char* StepLayer(const coproc::StepReport& st) {
  if (StartsWith(st.phase, "partition")) return "join.partition_s";
  if (StartsWith(st.phase, "build")) return "join.build_s";
  if (StartsWith(st.phase, "probe")) {
    return st.name == "p4" || st.name == "p4g" ? "join.emit_s"
                                               : "join.probe_s";
  }
  if (StartsWith(st.phase, "plan/select")) return "join.select_s";
  if (StartsWith(st.phase, "plan/group-by")) return "join.groupby_s";
  return nullptr;
}

/// Adds the report's per-layer values. On real backends the two device
/// lanes of a step run back to back, so a step's time is cpu_ns + gpu_ns.
/// A layer with no step in the report (partition in an SHJ, select and
/// group-by in a plain join) gets no sample at all, so it is left out of
/// the run's metrics rather than reported as 0.
void AddReportLayers(const Inputs& in, double execute_s,
                     const coproc::JoinReport& r, Samples* s) {
  std::map<std::string, double> layer_s;
  uint64_t items = 0;
  for (const coproc::StepReport& st : r.steps) {
    items += st.cpu_items + st.gpu_items;
    if (const char* layer = StepLayer(st)) {
      layer_s[layer] += (st.cpu_ns + st.gpu_ns) * 1e-9;
    }
  }
  const double reported = r.elapsed_ns * 1e-9;
  s->Add("coproc.execute_s", execute_s);
  s->Add("coproc.reported_s", reported);
  s->Add("coproc.unreported_s", execute_s - reported);
  s->Add("coproc.unreported_frac", (execute_s - reported) / execute_s);
  for (const auto& [layer, t] : layer_s) s->Add(layer, t);
  // Per-unit cost of a present layer.
  const auto add_per_unit = [&](const char* layer, const char* name,
                                double units) {
    const auto it = layer_s.find(layer);
    if (it != layer_s.end() && units > 0.0) {
      s->Add(name, it->second * 1e9 / units);
    }
  };
  const double nb = static_cast<double>(in.workload.build.size());
  const double np = static_cast<double>(in.workload.probe.size());
  add_per_unit("join.partition_s", "join.partition_ns_per_tuple", nb + np);
  add_per_unit("join.build_s", "join.build_ns_per_tuple", nb);
  add_per_unit("join.probe_s", "join.probe_ns_per_tuple", np);
  add_per_unit("join.emit_s", "join.emit_ns_per_match",
               static_cast<double>(r.matches));
  s->Add("join.matches", static_cast<double>(r.matches));
  // The plan has a group-by only when the oracle expects groups.
  if (!in.expected_groups.empty()) {
    s->Add("join.groups", static_cast<double>(r.groups.size()));
  }
  s->Add("join.items", static_cast<double>(items));
}

/// Attaches the report's per-step times and counts to a span.
void AttachReport(const coproc::JoinReport& r, SpanLog* log, int span) {
  log->Arg(span, "reported_s", r.elapsed_ns * 1e-9);
  log->Arg(span, "matches", static_cast<double>(r.matches));
  for (const coproc::StepReport& st : r.steps) {
    const std::string key = st.phase + "/" + st.name;
    log->Arg(span, key + ".s", (st.cpu_ns + st.gpu_ns) * 1e-9);
    log->Arg(span, key + ".items",
             static_cast<double>(st.cpu_items + st.gpu_items));
  }
}

/// Records Validate and Fuse spans (the plan layer) under `parent`.
Status TracePlanLayer(const coproc::PlanSpec& plan, uint64_t op, int parent,
                      SpanLog* log, Samples* s) {
  int span = log->Begin("Validate", op, parent);
  const Status valid = plan.graph.Validate();
  log->End(span);
  if (!valid.ok()) return valid;
  s->Add("plan.validate_s", log->DurationS(span));
  span = log->Begin("Fuse", op, parent);
  const plan::FusionPlan fusion = plan::Fuse(plan.graph, plan.exec.engine.fuse);
  log->End(span);
  log->Arg(span, "fused_edges",
           static_cast<double>(std::count(fusion.fused.begin(),
                                           fusion.fused.end(), 1)));
  s->Add("plan.fuse_s", log->DurationS(span));
  return Status::OK();
}

/// Adds the pool's per-worker counters (drained since the last call).
void AddPoolCounters(const std::vector<exec::WorkerCounters>& workers,
                     double ops, SpanLog* log, int span, Samples* s) {
  uint64_t items = 0, morsels = 0, max_items = 0;
  for (const exec::WorkerCounters& w : workers) {
    items += w.items;
    morsels += w.morsels;
    max_items = std::max(max_items, w.items);
  }
  s->Add("exec.morsels", static_cast<double>(morsels) / ops);
  if (items > 0) {
    const double mean =
        static_cast<double>(items) / static_cast<double>(workers.size());
    s->Add("exec.worker_imbalance", static_cast<double>(max_items) / mean);
  }
  if (log != nullptr) {
    log->Arg(span, "pool.morsels", static_cast<double>(morsels));
    for (size_t i = 0; i < workers.size(); ++i) {
      log->Arg(span, "pool.worker" + std::to_string(i) + ".items",
               static_cast<double>(workers[i].items));
    }
  }
}

// ---------------------------------------------------------------------------
// The floor
// ---------------------------------------------------------------------------

/// Runs the unordered_map floor kFloorRuns times (once when smoking),
/// checks it against the same oracles as the engine, and adds floor.*.
void RunFloor(const Options& opt, const Inputs& in, double engine_p50,
              std::atomic<uint64_t>* next_op, SpanLog* log, Samples* s) {
  const data::Relation& build = in.workload.build;
  const data::Relation& probe = in.workload.probe;
  std::vector<double> times;
  for (int k = 0; k < (opt.smoke ? 1 : kFloorRuns); ++k) {
    const uint64_t op = next_op->fetch_add(1, std::memory_order_relaxed);
    const int span = log->Begin("floor", op);
    std::string why;
    if (in.rid_limit > 0) {
      const std::vector<join::GroupRow> groups =
          FloorFilterJoinSum(build, probe, in.rid_limit);
      log->End(span);
      coproc::JoinReport as_report;
      as_report.groups = groups;
      for (const join::GroupRow& g : groups) as_report.matches += g.count;
      why = CheckAnswer(in, as_report);
    } else {
      const std::vector<FloorPair> pairs = FloorJoin(build, probe);
      log->End(span);
      if (pairs.size() != in.expected_matches) {
        why = "floor pairs " + std::to_string(pairs.size()) + ", expected " +
              std::to_string(in.expected_matches);
      }
    }
    if (!why.empty()) DieAtOp(opt, op, "floor: " + why);
    times.push_back(log->DurationS(span));
  }
  const double floor_s = Median(times);
  s->Add("floor.unordered_map_s", floor_s);
  s->Add("floor.ratio", engine_p50 / floor_s);
}

// ---------------------------------------------------------------------------
// Run outcome and reporting
// ---------------------------------------------------------------------------

struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> latency_s;         // untraced timed operations
  std::vector<double> traced_latency_s;  // traced timed operations
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  Samples layers;
  std::vector<Metric> extra;  // service-only pool and lease counters
};

/// Counts a failed or rejected timed operation; it enters the latency
/// percentiles as +inf.
void NoteFailure(uint64_t op, const Status& status, Outcome* o,
                 std::vector<double>* latencies) {
  std::fprintf(stderr, "apujoin_bench: op %llu failed: %s\n",
               static_cast<unsigned long long>(op), status.ToString().c_str());
  ++o->failed;
  latencies->push_back(HUGE_VAL);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> EndToEndMetrics(const Inputs& in, const Outcome& o) {
  const double completed = static_cast<double>(o.attempted - o.failed);
  return {
      {"latency_p50_s", Median(o.latency_s), "s"},
      {"latency_p90_s", Quantile(o.latency_s, 0.9), "s"},
      {"mtuples_per_s",
       static_cast<double>(in.tuples()) * completed / o.wall_s / 1e6,
       "Mtuples/s"},
      {"setup_s", Median(o.setup_s), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

/// Fills `metrics` with the per-layer metrics of BENCHMARK.json, which
/// every workload has, and adds to `lines` the layer metrics only some
/// workloads have. Those are printed as lines when their source is present
/// in this run and left out otherwise, never reported as 0.
void PerLayerMetrics(const Outcome& o, std::vector<Metric>* metrics,
                     std::vector<Metric>* lines) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"coproc.execute_s", "s"},
      {"coproc.reported_s", "s"},
      {"coproc.unreported_s", "s"},
      {"coproc.unreported_frac", "fraction"},
      {"join.build_s", "s"},
      {"join.build_ns_per_tuple", "ns/tuple"},
      {"join.probe_s", "s"},
      {"join.probe_ns_per_tuple", "ns/tuple"},
      {"join.emit_s", "s"},
      {"join.emit_ns_per_match", "ns/match"},
      {"join.matches", "count"},
      {"join.items", "count"},
      {"exec.spans", "count"},
      {"exec.morsels", "count"},
      {"exec.worker_imbalance", "ratio"},
      {"plan.validate_s", "s"},
      {"plan.fuse_s", "s"},
      {"floor.unordered_map_s", "s"},
      {"floor.ratio", "ratio"},
  };
  static const std::pair<const char*, const char*> kWorkloadLayerMetrics[] = {
      {"join.partition_s", "s"},
      {"join.partition_ns_per_tuple", "ns/tuple"},
      {"join.select_s", "s"},
      {"join.groupby_s", "s"},
      {"join.groups", "count"},
      {"service.submit_s", "s"},
      {"service.outside_report_s", "s"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    if (!o.layers.Has(name)) Die(std::string("no samples of ") + name);
    metrics->push_back({name, o.layers.MedianOf(name), unit});
  }
  if (o.latency_s.empty() || o.traced_latency_s.empty()) {
    Die("no traced or no untraced operation completed");
  }
  metrics->push_back({"bench.trace_overhead_frac",
                      Median(o.traced_latency_s) / Median(o.latency_s) - 1.0,
                      "fraction"});
  for (const auto& [name, unit] : kWorkloadLayerMetrics) {
    if (o.layers.Has(name)) {
      lines->push_back({name, o.layers.MedianOf(name), unit});
    }
  }
}

void PrintNumber(double v) {
  if (std::isnan(v)) {
    std::printf("NaN");
  } else if (std::isinf(v)) {
    std::printf(v > 0 ? "Infinity" : "-Infinity");
  } else {
    std::printf("%.17g", v);
  }
}

void PrintResult(const Options& opt, const std::vector<Metric>& metrics,
                 const std::vector<Metric>& extra, const Outcome& o) {
  for (const std::vector<Metric>* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      std::printf("%s %s ", opt.workload->name, m.name.c_str());
      PrintNumber(m.value);
      std::printf(" %s\n", m.unit);
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    PrintNumber(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit);
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Batch workloads: ExecutePlan on an exclusively owned pool
// ---------------------------------------------------------------------------

struct Engine {
  std::unique_ptr<simcl::SimContext> ctx;
  std::unique_ptr<exec::Backend> backend;  // declared after ctx: dies first
};

/// True once a timing loop has run `i` operations and should stop.
bool TimedLoopDone(const Options& opt, uint64_t i, Clock::time_point start) {
  if (opt.smoke) return i >= kSmokeOps;
  return i >= kMinTimedOps && Seconds(start, Clock::now()) >= opt.seconds;
}

Outcome RunBatch(const Options& opt, const Inputs& in, int threads,
                 SpanLog* log) {
  Outcome o;
  std::atomic<uint64_t> next_op{0};
  const coproc::PlanSpec& plan = in.plan;
  Engine eng;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    eng.backend.reset();
    eng.ctx.reset();
    const uint64_t op = next_op.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    eng.ctx = std::make_unique<simcl::SimContext>();
    eng.backend = exec::MakeBackend(exec::BackendKind::kThreadPool,
                                    eng.ctx.get(), threads);
    const auto r = coproc::ExecutePlan(eng.backend.get(), plan);
    o.setup_s.push_back(Seconds(t0, Clock::now()));
    RequireCorrect(opt, in, op, r);
  }
  exec::Backend* backend = eng.backend.get();
  auto* pool = dynamic_cast<exec::ThreadPoolBackend*>(backend);
  if (pool == nullptr) Die("MakeBackend did not return a thread pool");
  for (int k = 0; k < (opt.smoke ? 1 : kWarmups); ++k) {
    const uint64_t op = next_op.fetch_add(1, std::memory_order_relaxed);
    RequireCorrect(opt, in, op, coproc::ExecutePlan(backend, plan));
  }

  const bool traced = log != nullptr;
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; !TimedLoopDone(opt, i, start); ++i) {
    const uint64_t op = next_op.fetch_add(1, std::memory_order_relaxed);
    ++o.attempted;
    if (!traced || i % 2 == 0) {
      const Clock::time_point t0 = Clock::now();
      const auto r = coproc::ExecutePlan(backend, plan);
      const double lat = Seconds(t0, Clock::now());
      if (!r.ok()) {
        NoteFailure(op, r.status(), &o, &o.latency_s);
        continue;
      }
      RequireCorrect(opt, in, op, r);
      o.latency_s.push_back(lat);
      continue;
    }
    // Traced operation: the plan layer, then ExecutePlan with launch-event
    // recording on and the pool counters drained around it.
    const int op_span = log->Begin("op", op);
    const Status valid = TracePlanLayer(plan, op, op_span, log, &o.layers);
    if (!valid.ok()) DieAtOp(opt, op, valid.ToString());
    pool->TakeCounters();
    backend->set_trace(true);
    const int exec_span = log->Begin("ExecutePlan", op, op_span);
    const auto r = coproc::ExecutePlan(backend, plan);
    log->End(exec_span);
    backend->set_trace(false);
    const std::vector<exec::LaunchEvent> events = backend->DrainEvents();
    const std::vector<exec::WorkerCounters> workers = pool->TakeCounters();
    log->End(op_span);
    const double lat = log->DurationS(exec_span);
    if (!r.ok()) {
      NoteFailure(op, r.status(), &o, &o.traced_latency_s);
      continue;
    }
    RequireCorrect(opt, in, op, r);
    o.traced_latency_s.push_back(lat);
    AddReportLayers(in, lat, *r, &o.layers);
    o.layers.Add("exec.spans", static_cast<double>(events.size()));
    AddPoolCounters(workers, 1.0, log, op_span, &o.layers);
    AttachReport(*r, log, op_span);
    log->Arg(op_span, "launch_events", static_cast<double>(events.size()));
  }
  o.wall_s = Seconds(start, Clock::now());

  if (traced) RunFloor(opt, in, Median(o.latency_s), &next_op, log, &o.layers);
  return o;
}

// ---------------------------------------------------------------------------
// service-small: two closed-loop clients on one JoinService
// ---------------------------------------------------------------------------

constexpr int kClients = 2;

struct ServiceInstance {
  std::unique_ptr<service::JoinService> service;
  // Declared after the service: sessions close before it is destroyed.
  std::vector<std::unique_ptr<service::Session>> sessions;
};

ServiceInstance MakeService(int threads) {
  service::ServiceOptions so;
  so.exec.backend = exec::BackendKind::kThreadPool;
  so.exec.threads = threads;
  so.max_sessions = kClients;
  ServiceInstance inst;
  inst.service = std::make_unique<service::JoinService>(so);
  for (int c = 0; c < kClients; ++c) {
    auto session = inst.service->OpenSession();
    if (!session.ok()) {
      Die("OpenSession failed: " + session.status().ToString());
    }
    inst.sessions.push_back(std::move(session).value());
  }
  return inst;
}

StatusOr<coproc::JoinReport> RoundTrip(service::Session* session,
                                       const coproc::PlanSpec& plan) {
  auto ticket = session->Submit(plan);
  if (!ticket.ok()) return ticket.status();
  return ticket->Take();
}

/// What one client thread measured; a wrong answer is recorded in `error`
/// and stops the client (the main thread reports it).
struct ClientResult {
  Outcome o;
  std::string error;
  Clock::time_point last_end;
};

void ClientLoop(const Options& opt, const Inputs& in,
                service::Session* session, Clock::time_point start,
                std::atomic<uint64_t>* next_op, SpanLog* log,
                ClientResult* out) {
  const coproc::PlanSpec plan = in.plan;  // each client submits its own copy
  Outcome& o = out->o;
  for (uint64_t i = 0; !TimedLoopDone(opt, i, start); ++i) {
    const uint64_t op = next_op->fetch_add(1, std::memory_order_relaxed);
    ++o.attempted;
    const bool trace_op = log != nullptr && i % 2 == 1;
    StatusOr<coproc::JoinReport> r = Status::Internal("not run");
    double lat = 0.0;
    int op_span = -1;
    double submit_s = 0.0;
    if (!trace_op) {
      const Clock::time_point t0 = Clock::now();
      r = RoundTrip(session, plan);
      lat = Seconds(t0, Clock::now());
    } else {
      op_span = log->Begin("op", op);
      const Status valid = TracePlanLayer(plan, op, op_span, log, &o.layers);
      if (!valid.ok()) {
        out->error = "op " + std::to_string(op) + ": " + valid.ToString();
        return;
      }
      const int submit_span = log->Begin("Submit", op, op_span);
      auto ticket = session->Submit(plan);
      log->End(submit_span);
      submit_s = log->DurationS(submit_span);
      if (ticket.ok()) {
        const int take_span = log->Begin("Take", op, op_span);
        r = ticket->Take();
        log->End(take_span);
        lat = Seconds(log->spans()[submit_span].start,
                      log->spans()[take_span].end);
      } else {
        r = ticket.status();
      }
      log->End(op_span);
    }
    out->last_end = Clock::now();
    std::vector<double>& lats = trace_op ? o.traced_latency_s : o.latency_s;
    if (!r.ok()) {
      NoteFailure(op, r.status(), &o, &lats);
      continue;
    }
    const std::string why = CheckAnswer(in, *r);
    if (!why.empty()) {
      out->error = "op " + std::to_string(op) + ": " + why;
      return;
    }
    lats.push_back(lat);
    if (trace_op) {
      AddReportLayers(in, lat, *r, &o.layers);
      o.layers.Add("service.submit_s", submit_s);
      o.layers.Add("service.outside_report_s", lat - r->elapsed_ns * 1e-9);
      AttachReport(*r, log, op_span);
    }
  }
}

Outcome RunService(const Options& opt, const Inputs& in, int threads,
                   std::vector<std::unique_ptr<SpanLog>>* logs) {
  Outcome o;
  std::atomic<uint64_t> next_op{0};
  ServiceInstance inst;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    inst.sessions.clear();
    inst.service.reset();
    const uint64_t op = next_op.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    inst = MakeService(threads);
    const auto r = RoundTrip(inst.sessions[0].get(), in.plan);
    o.setup_s.push_back(Seconds(t0, Clock::now()));
    RequireCorrect(opt, in, op, r);
  }
  for (auto& session : inst.sessions) {
    for (int k = 0; k < (opt.smoke ? 1 : kWarmups); ++k) {
      const uint64_t op = next_op.fetch_add(1, std::memory_order_relaxed);
      RequireCorrect(opt, in, op, RoundTrip(session.get(), in.plan));
    }
  }

  const bool traced = !logs->empty();
  auto* pool = dynamic_cast<exec::ThreadPoolBackend*>(
      &inst.service->substrate());
  if (pool == nullptr) Die("the service substrate is not a thread pool");
  pool->TakeCounters();
  const service::ServiceStats stats0 = inst.service->stats();
  uint64_t spans0 = 0;
  for (auto& session : inst.sessions) spans0 += session->lease_stats()->spans;

  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    SpanLog* log = traced ? (*logs)[c].get() : nullptr;
    clients.emplace_back(ClientLoop, std::cref(opt), std::cref(in),
                         inst.sessions[c].get(), start, &next_op, log,
                         &results[c]);
  }
  for (std::thread& t : clients) t.join();

  Clock::time_point end = start;
  for (const ClientResult& cr : results) {
    if (!cr.error.empty()) {
      Die("workload " + std::string(opt.workload->name) + " " + cr.error);
    }
    end = std::max(end, cr.last_end);
    const Outcome& co = cr.o;
    o.latency_s.insert(o.latency_s.end(), co.latency_s.begin(),
                       co.latency_s.end());
    o.traced_latency_s.insert(o.traced_latency_s.end(),
                              co.traced_latency_s.begin(),
                              co.traced_latency_s.end());
    o.attempted += co.attempted;
    o.failed += co.failed;
    o.layers.Merge(co.layers);
  }
  o.wall_s = Seconds(start, end);
  if (!traced) return o;

  // Pool and lease counters cover every operation of the window, traced
  // or not: concurrent sessions share the pool, so they cannot be drained
  // per operation.
  const double ops = static_cast<double>(o.attempted);
  uint64_t spans = 0;
  int peak_workers = 0;
  for (auto& session : inst.sessions) {
    spans += session->lease_stats()->spans;
    peak_workers = std::max(peak_workers, session->lease_stats()->peak_workers);
  }
  o.layers.Add("exec.spans", static_cast<double>(spans - spans0) / ops);
  AddPoolCounters(pool->TakeCounters(), ops, nullptr, -1, &o.layers);
  const service::ServiceStats stats1 = inst.service->stats();
  o.extra.push_back({"exec.lease_peak_workers",
                     static_cast<double>(peak_workers), "count"});
  o.extra.push_back({"service.rejected",
                     static_cast<double>(stats1.submissions_rejected -
                                         stats0.submissions_rejected),
                     "count"});
  o.extra.push_back(
      {"service.failed",
       static_cast<double>(stats1.joins_failed - stats0.joins_failed),
       "count"});
  RunFloor(opt, in, Median(o.latency_s), &next_op, (*logs)[0].get(),
           &o.layers);
  return o;
}

// ---------------------------------------------------------------------------
// Machine stamp, flags, main
// ---------------------------------------------------------------------------

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

long CacheKiB(int name) {
  const long bytes = sysconf(name);
  return bytes > 0 ? bytes / 1024 : -1;
}

void Usage() {
  std::fprintf(stderr,
               "usage: apujoin_bench --workload NAME (--seconds S | --smoke) "
               "[--seed N] [--trace 0|1|PATH]\n"
               "       apujoin_bench --list\n");
}

[[noreturn]] void BadFlag(const std::string& msg) {
  std::fprintf(stderr, "apujoin_bench: %s\n", msg.c_str());
  Usage();
  std::exit(2);
}

Options ParseFlags(int argc, char** argv) {
  Options opt;
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list") {
      for (const WorkloadDef& w : kWorkloads) std::printf("%s\n", w.name);
      std::exit(0);
    }
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    // --flag=value or --flag value
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      BadFlag("missing value for " + arg);
    }
    char* end = nullptr;
    if (arg == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) BadFlag("unknown workload '" + value + "'");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        BadFlag("invalid --seed '" + value + "'");
      }
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 3600.0) {
        BadFlag("invalid --seconds '" + value + "' (want 0 < S <= 3600)");
      }
    } else if (arg == "--trace") {
      trace = value;
    } else {
      BadFlag("unknown flag " + arg);
    }
  }
  if (opt.workload == nullptr) BadFlag("--workload is required");
  if (!opt.smoke && opt.seconds == 0.0) {
    BadFlag("--seconds is required (benchmark/run.sh passes BENCHMARK.json's "
            "run_seconds)");
  }
  if (trace == "1") {
    const std::filesystem::path bin_dir =
        std::filesystem::path(argv[0]).parent_path();
    opt.trace_path = (bin_dir / "traces" /
                      (std::string(opt.workload->name) + "-seed" +
                       std::to_string(opt.seed) + ".json"))
                         .string();
  } else if (trace != "0") {
    opt.trace_path = trace;
  }
  return opt;
}

/// Pins glibc's mmap and trim thresholds to their documented defaults
/// (128 KiB). Left dynamic, glibc raises them to the size of each large
/// block freed, so whether a later buffer reuses heap pages or maps fresh
/// zero-filled ones depends on the order earlier buffers were freed: runs
/// of one binary on one seed split into a fast and a slow mode (measured
/// 0.15 s vs 0.18 s p50 on filter-join-groupby). Setting them turns the
/// adjustment off, so every large buffer is mapped fresh, in every run.
void PinAllocatorThresholds() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
#endif
}

int Main(int argc, char** argv) {
  PinAllocatorThresholds();
  const Clock::time_point origin = Clock::now();
  const Options opt = ParseFlags(argc, argv);
  const WorkloadDef& def = *opt.workload;
  const int threads = std::clamp(UsableCpus(), 1, kThreadCap);
  const bool traced = !opt.trace_path.empty();

  std::printf("# apujoin_bench workload=%s seed=%llu seconds=%g trace=%d "
              "smoke=%d\n",
              def.name, static_cast<unsigned long long>(opt.seed),
              opt.seconds, traced ? 1 : 0, opt.smoke ? 1 : 0);
  std::printf("# machine nproc=%d threads=%d cpu=\"%s\" l2_kib=%ld "
              "l3_kib=%ld build=%s\n",
              UsableCpus(), threads, CpuModel().c_str(),
              CacheKiB(_SC_LEVEL2_CACHE_SIZE), CacheKiB(_SC_LEVEL3_CACHE_SIZE),
              APUJOIN_BENCH_BUILD_TYPE);

  const Inputs in = MakeInputs(def, opt, threads);
  std::printf("# inputs build=%llu probe=%llu key=%s distribution=%s "
              "selectivity=%g matches=%llu groups=%zu\n",
              static_cast<unsigned long long>(in.workload.build.size()),
              static_cast<unsigned long long>(in.workload.probe.size()),
              data::KeySchemaName(def.key_schema),
              data::DistributionName(def.distribution), def.selectivity,
              static_cast<unsigned long long>(in.expected_matches),
              in.expected_groups.size());

  std::vector<std::unique_ptr<SpanLog>> logs;
  if (traced) {
    const int n = def.shape == Shape::kService ? kClients : 1;
    for (int c = 0; c < n; ++c) logs.push_back(std::make_unique<SpanLog>(c));
  }
  const Outcome o = def.shape == Shape::kService
                        ? RunService(opt, in, threads, &logs)
                        : RunBatch(opt, in, threads,
                                   traced ? logs[0].get() : nullptr);
  std::printf("# samples setups=%zu timed=%zu traced=%zu attempted=%llu "
              "failed=%llu wall_s=%.3f\n",
              o.setup_s.size(), o.latency_s.size(), o.traced_latency_s.size(),
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), o.wall_s);

  if (!traced) {
    PrintResult(opt, EndToEndMetrics(in, o), {}, o);
    return 0;
  }
  std::vector<const SpanLog*> views;
  for (const auto& log : logs) views.push_back(log.get());
  const std::filesystem::path trace_path(opt.trace_path);
  if (trace_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_path.parent_path(), ec);
  }
  if (!WriteChromeTrace(opt.trace_path, views, origin)) {
    Die("cannot write trace " + opt.trace_path);
  }
  std::printf("# trace %s\n", opt.trace_path.c_str());
  std::vector<Metric> metrics, lines;
  PerLayerMetrics(o, &metrics, &lines);
  lines.insert(lines.end(), o.extra.begin(), o.extra.end());
  PrintResult(opt, metrics, lines, o);
  return 0;
}

}  // namespace
}  // namespace apujoin::benchmark

int main(int argc, char** argv) { return apujoin::benchmark::Main(argc, argv); }
