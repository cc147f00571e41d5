#include "trace.h"

#include <cmath>
#include <cstdio>

namespace apujoin::benchmark {

int SpanLog::Begin(std::string name, uint64_t op, int parent) {
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = parent;
  s.start = Clock::now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      Clock::time_point origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      // Span names and argument keys are the benchmark's own identifiers
      // (no quotes or backslashes), so they need no JSON escaping.
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"apujoin\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"span\":%zu,\"parent\":%d",
                   first ? "" : ",", s.name.c_str(), log->tid(), us(s.start),
                   us(s.end) - us(s.start),
                   static_cast<unsigned long long>(s.op), i, s.parent);
      for (const auto& [key, value] : s.args) {
        if (std::isfinite(value)) {
          std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
        } else {
          std::fprintf(f, ",\"%s\":null", key.c_str());
        }
      }
      std::fprintf(f, "}}");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace apujoin::benchmark
