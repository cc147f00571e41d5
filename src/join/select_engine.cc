#include "join/select_engine.h"

namespace apujoin::join {

using simcl::DeviceId;

SelectEngine::SelectEngine(const data::Relation* input, plan::Predicate pred,
                           uint32_t prefetch_dist)
    : input_(input), pred_(pred), prefetch_dist_(prefetch_dist) {}

apujoin::Status SelectEngine::Prepare() {
  const uint64_t n = input_->size();
  if (data::KeyIsWide(input_->key_schema) &&
      input_->key_schema != data::KeySchema::kDictString &&
      input_->key_hi.size() != n) {
    return apujoin::Status::InvalidArgument(
        "wide key schema requires a key_hi column of matching length");
  }
  flags_.assign(n, 0);
  // Worst case every tuple passes; Finish() shrinks to the real count.
  // The output inherits the input's key schema: wide schemas get the hi
  // lane, dict-string outputs share the input's dictionary (codes are
  // positions into it and survive the compaction unchanged).
  out_.key_schema = input_->key_schema;
  out_.keys.assign(n, 0);
  out_.rids.assign(n, 0);
  if (!input_->key_hi.empty()) {
    out_.key_hi.assign(n, 0);
  } else {
    out_.key_hi.clear();
  }
  out_.dict = input_->dict;
  // relaxed: single-threaded setup, before any kernel runs.
  cursor_.store(0, std::memory_order_relaxed);
  return apujoin::Status::OK();
}

apujoin::Status SelectEngine::PrepareFused() {
  flags_.assign(input_->size(), 0);
  // relaxed: single-threaded setup, before any kernel runs.
  cursor_.store(0, std::memory_order_relaxed);
  return apujoin::Status::OK();
}

std::vector<StepDef> SelectEngine::Steps() {
  // Wide (two-word) inputs carry a hi lane through the compaction; the
  // predicate itself evaluates the primary word + rid for every schema
  // (dict-string inputs scan codes, so their tuples stay 8 B). Width
  // dispatch at construction scope: one branch-free f2 body per width.
  const bool wide_cols = !input_->key_hi.empty();
  const double tuple_bytes = wide_cols ? 12.0 : 8.0;
  std::vector<StepDef> steps;
  steps.push_back(EvalStep<false>(SelectEvalProfile(tuple_bytes)));
  steps.push_back(wide_cols ? CompactStep<true>(tuple_bytes)
                            : CompactStep<false>(tuple_bytes));
  return steps;
}

std::vector<StepDef> SelectEngine::FusedSteps() {
  std::vector<StepDef> steps;
  steps.push_back(
      EvalStep<true>(SelectFlagProfile(input_->key_hi.empty() ? 8.0 : 12.0)));
  return steps;
}

template <bool kCount>
StepDef SelectEngine::EvalStep(const simcl::StepProfile& profile) {
  const int32_t* in_keys = input_->keys.data();
  const int32_t* in_rids = input_->rids.data();
  const plan::Predicate pred = pred_;
  const uint32_t dist = prefetch_dist_;
  StepDef f1;
  f1.name = "f1";
  f1.profile = profile;
  f1.items = input_->size();
  f1.run = [this, pred, in_keys, in_rids, dist](const Morsel& m, DeviceId,
                                                uint32_t* lw) -> uint64_t {
    uint8_t* flags = flags_.data();
    [[maybe_unused]] uint64_t kept = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (dist != 0 && i + dist < m.end) {
        __builtin_prefetch(&in_keys[i + dist], 0, 3);
        __builtin_prefetch(&in_rids[i + dist], 0, 3);
      }
      const uint8_t pass =
          plan::EvalPredicate(pred, in_keys[i], in_rids[i]) ? 1 : 0;
      flags[i] = pass;
      if constexpr (kCount) kept += pass;
    }
    if constexpr (kCount) {
      // relaxed: one survivor-count add per morsel; readers synchronise
      // through the span barrier.
      cursor_.fetch_add(kept, std::memory_order_relaxed);
    }
    return ConstantWork(lw, m);
  };
  return f1;
}

template <bool kWide>
StepDef SelectEngine::CompactStep(double tuple_bytes) {
  const uint64_t n = input_->size();
  const int32_t* in_keys = input_->keys.data();
  const int32_t* in_rids = input_->rids.data();
  const uint8_t* flags = flags_.data();
  const uint32_t dist = prefetch_dist_;
  StepDef f2;
  f2.name = "f2";
  f2.profile =
      SelectCompactProfile(static_cast<double>(n) * tuple_bytes, tuple_bytes);
  f2.items = n;
  f2.run = [this, in_keys, in_rids, flags, dist](
               const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
    int32_t* out_keys = out_.keys.data();
    int32_t* out_rids = out_.rids.data();
    // The hi lanes exist (and are touched) only when kWide.
    [[maybe_unused]] const int32_t* in_hi = input_->key_hi.data();
    [[maybe_unused]] int32_t* out_hi = out_.key_hi.data();
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (dist != 0 && i + dist < m.end) {
        __builtin_prefetch(&flags[i + dist], 0, 3);
        __builtin_prefetch(&in_keys[i + dist], 0, 3);
      }
      if (flags[i] != 0) {
        // relaxed: the cursor only hands out unique slots; readers of the
        // output columns synchronise through the span barrier.
        const uint64_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
        out_keys[idx] = in_keys[i];
        if constexpr (kWide) out_hi[idx] = in_hi[i];
        out_rids[idx] = in_rids[i];
      }
    }
    return ConstantWork(lw, m);
  };
  return f2;
}

void SelectEngine::Finish() {
  // relaxed: the series has completed; no claims are in flight.
  const uint64_t kept = cursor_.load(std::memory_order_relaxed);
  out_.keys.resize(kept);
  if (!out_.key_hi.empty()) out_.key_hi.resize(kept);
  out_.rids.resize(kept);
  flags_.clear();
  flags_.shrink_to_fit();
}

}  // namespace apujoin::join
