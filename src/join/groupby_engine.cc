#include "join/groupby_engine.h"

#include <algorithm>
#include <limits>

#include "join/hash_table.h"

namespace apujoin::join {

using simcl::DeviceId;

namespace {

int64_t AggInitValue(plan::AggFn agg) {
  if (agg == plan::AggFn::kMin) return std::numeric_limits<int64_t>::max();
  if (agg == plan::AggFn::kMax) return std::numeric_limits<int64_t>::min();
  return 0;
}

}  // namespace

GroupByEngine::GroupByEngine(const ResultWriter* results, plan::AggFn agg)
    : results_(results), agg_(agg) {}

GroupByEngine::GroupByEngine(plan::AggFn agg)
    : results_(nullptr), agg_(agg) {}

apujoin::Status GroupByEngine::Prepare() {
  if (results_ == nullptr) {
    return apujoin::Status::Internal(
        "GroupByEngine::Prepare called on a fused-mode engine; use "
        "PrepareFused");
  }
  if (!results_->captures_keys()) {
    return apujoin::Status::Internal(
        "group-by input writer did not capture keys; the plan lowering must "
        "call ResultWriter::CaptureKeys before the join runs");
  }
  // Distinct keys <= emitted tuples.
  return PrepareFused(results_->count());
}

apujoin::Status GroupByEngine::PrepareFused(uint64_t max_distinct) {
  // 2x the distinct bound keeps the load factor at or below one half and
  // linear probes short; one more slot, past the probe range, is
  // kEmptyKey's.
  const uint32_t cap = NextPow2(std::max<uint64_t>(16, max_distinct * 2));
  mask_ = cap - 1;
  keys_ = std::vector<std::atomic<int32_t>>(cap + 1);
  values_ = std::vector<std::atomic<int64_t>>(cap + 1);
  counts_ = std::vector<std::atomic<uint64_t>>(cap + 1);
  const int64_t init = AggInitValue(agg_);
  for (uint32_t i = 0; i <= cap; ++i) {
    // relaxed: single-threaded setup, before any kernel runs.
    keys_[i].store(kEmptyKey, std::memory_order_relaxed);
    values_[i].store(init, std::memory_order_relaxed);
    counts_[i].store(0, std::memory_order_relaxed);
  }
  return apujoin::Status::OK();
}

std::vector<StepDef> GroupByEngine::Steps() {
  const ResultWriter* results = results_;
  const uint32_t dist = prefetch_dist_;

  std::vector<StepDef> steps;
  StepDef g1;
  g1.name = "g1";
  g1.profile = GroupAggProfile(TableWorkingSetBytes());
  g1.items = results->used_slots();
  g1.run = [this, results, dist](const Morsel& m, DeviceId,
                                 uint32_t* lw) -> uint64_t {
    uint64_t total = 0;
    results->ForEachRun(
        m.begin, m.end,
        [&](uint64_t first, uint64_t n, const int32_t* brids,
            const int32_t* prids, const int32_t* rkeys) {
          for (uint64_t j = 0; j < n; ++j) {
            uint32_t work = 1;
            // A run without columns holds only unclaimed slots.
            if (brids != nullptr) {
              if (dist != 0 && j + dist < n && brids[j + dist] >= 0) {
                // Hash-derived slot line of the tuple `dist` ahead.
                const uint32_t hb =
                    MurmurHash2x4(static_cast<uint32_t>(rkeys[j + dist])) &
                    mask_;
                __builtin_prefetch(&keys_[hb], 1, 3);
              }
              // Skip unclaimed block-remainder slots.
              if (brids[j] >= 0) work = Accumulate(rkeys[j], prids[j]);
            }
            total += RecordWork(lw, m, first + j, work);
          }
        });
    return total;
  };
  steps.push_back(std::move(g1));
  return steps;
}

std::vector<GroupRow> GroupByEngine::Materialize() const {
  std::vector<GroupRow> rows;
  rows.reserve(num_groups());
  for (size_t i = 0; i < keys_.size(); ++i) {
    // relaxed: the series completed; the table is quiescent.
    const uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    GroupRow r;
    r.key = keys_[i].load(std::memory_order_relaxed);
    r.count = c;
    // relaxed: same quiescent-table read as the count above.
    r.value = agg_ == plan::AggFn::kCount
                  ? static_cast<int64_t>(c)
                  : values_[i].load(std::memory_order_relaxed);
    rows.push_back(r);
  }
  // LSD radix sort by key, 8 bits a pass. Flipping the sign bit orders
  // int32 keys as unsigned words; each key is one group, so the order is
  // total.
  std::vector<GroupRow> sorted(rows.size());
  for (uint32_t shift = 0; shift < 32; shift += 8) {
    const auto digit = [shift](const GroupRow& r) {
      return ((static_cast<uint32_t>(r.key) ^ 0x80000000u) >> shift) & 0xffu;
    };
    size_t start[257] = {};
    for (const GroupRow& r : rows) ++start[digit(r) + 1];
    for (size_t d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const GroupRow& r : rows) sorted[start[digit(r)]++] = r;
    rows.swap(sorted);
  }
  return rows;
}

uint64_t GroupByEngine::num_groups() const {
  uint64_t n = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    // relaxed: quiescent-table scan.
    n += counts_[i].load(std::memory_order_relaxed) != 0 ? 1 : 0;
  }
  return n;
}

uint64_t GroupByEngine::total_count() const {
  uint64_t n = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    // relaxed: quiescent-table scan.
    n += counts_[i].load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace apujoin::join
