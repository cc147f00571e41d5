// In-memory span recording for traced benchmark runs.
//
// Spans are the benchmark's own calls into the engine's layers (an
// operation, plan validation, fusion, ExecutePlan, a service Submit/Take,
// the floor join), timed with std::chrono::steady_clock around the call —
// nothing inside the engine is instrumented and no timestamp is invented.
// Each recording thread owns one SpanLog, so recording takes no lock; the
// logs are written once, at exit, as Chrome trace-event JSON, which opens
// in Perfetto (ui.perfetto.dev) or chrome://tracing.

#ifndef APUJOIN_BENCHMARK_TRACE_H_
#define APUJOIN_BENCHMARK_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace apujoin::benchmark {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One span: name, start, end, the enclosing span, and the operation it
/// belongs to, plus numeric arguments (per-step report values, counters).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index of the enclosing span in the same log
  uint64_t op = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// The spans recorded by one thread.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  /// Opens a span starting now and returns its index.
  int Begin(std::string name, uint64_t op, int parent = -1);
  /// Closes span `index` now.
  void End(int index) { spans_[index].end = Clock::now(); }
  void Arg(int index, std::string key, double value) {
    spans_[index].args.emplace_back(std::move(key), value);
  }
  /// Duration of a closed span.
  double DurationS(int index) const {
    return Seconds(spans_[index].start, spans_[index].end);
  }

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
};

/// Writes the spans of every log as one trace-event JSON document; times
/// are microseconds since `origin`. Returns false if the file cannot be
/// written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      Clock::time_point origin);

}  // namespace apujoin::benchmark

#endif  // APUJOIN_BENCHMARK_TRACE_H_
