#include "join/radix_partition.h"

#include <algorithm>
#include <type_traits>

#include "join/key_words.h"

namespace apujoin::join {

using simcl::DeviceId;

namespace {

/// The hi key-word lane of a wide n3 write-combine slot. Narrow slots
/// derive from the empty NoHiLane instead, so they stay 72 B.
struct HiLane {
  int32_t his[8];
};
struct NoHiLane {};

/// One write-combine slot of the n3 scatter: a run of up to 8 tuples bound
/// for consecutive destinations of one partition.
template <bool kWide>
struct WcSlot : std::conditional_t<kWide, HiLane, NoHiLane> {
  uint32_t base = 0;  // destination of entry 0
  uint32_t len = 0;   // valid entries
  int32_t keys[8];
  int32_t rids[8];
};
static_assert(sizeof(WcSlot<false>) == 72, "narrow slots carry no hi lane");

/// Output columns of one n3 scatter; only wide instantiations write `hi`.
struct ScatterOut {
  int32_t* keys;
  int32_t* hi;
  int32_t* rids;
};

}  // namespace

RadixPlan RadixPlan::Make(uint64_t build_tuples, uint64_t probe_tuples,
                          double l2_bytes, const EngineOptions& opts) {
  RadixPlan plan;
  plan.fanout_per_pass = opts.fanout_per_pass;
  if (opts.partitions != 0) {
    plan.total_partitions = opts.partitions;
  } else {
    // Pair working set: tuples of both sides (8 B) + hash table (~20 B per
    // build tuple). Target: fits in half the L2.
    const double pair_bytes = 28.0 * static_cast<double>(build_tuples) +
                              8.0 * static_cast<double>(probe_tuples);
    const double target = l2_bytes / 2.0;
    uint32_t p = 1;
    while (p < 4096 &&
           pair_bytes / static_cast<double>(p) > target) {
      p <<= 1;
    }
    plan.total_partitions = p;
  }
  plan.partition_bits = 0;
  while ((1u << plan.partition_bits) < plan.total_partitions) {
    ++plan.partition_bits;
  }
  uint32_t fanout_bits = 0;
  while ((1u << fanout_bits) < plan.fanout_per_pass) ++fanout_bits;
  plan.passes = 1;
  if (fanout_bits > 0) {
    plan.passes = static_cast<int>(
        (plan.partition_bits + fanout_bits - 1) / fanout_bits);
  }
  plan.passes = std::max(plan.passes, 1);
  return plan;
}

RadixPartitioner::RadixPartitioner(simcl::SimContext* ctx,
                                   const data::Relation* input,
                                   const RadixPlan& plan,
                                   const EngineOptions& opts)
    : ctx_(ctx), input_(input), plan_(plan), opts_(opts) {
  chunk_elems_ = std::max<uint32_t>(1, opts_.block_bytes / 8);
}

apujoin::Status RadixPartitioner::Prepare() {
  const uint64_t n = input_->size();
  if (n == 0) return apujoin::Status::InvalidArgument("empty input");
  if (data::KeyIsWide(input_->key_schema) && input_->key_hi.size() != n) {
    return apujoin::Status::InvalidArgument(
        "wide key schema requires a key_hi column (dict-string inputs must "
        "be canonicalized by the engine before partitioning)");
  }
  buf_a_ = *input_;  // working copy: pass 0 reads the original order
  buf_b_.key_schema = input_->key_schema;
  buf_b_.keys.assign(n, 0);
  buf_b_.rids.assign(n, 0);
  if (data::KeyIsWide(input_->key_schema)) {
    buf_b_.key_hi.assign(n, 0);
  }
  cur_ = &buf_a_;
  nxt_ = &buf_b_;
  pid_.assign(n, 0);
  dest_.assign(n, 0);
  offsets_.clear();
  live_ = n;  // BeginPass(0) lowers it when a filter is set
  return apujoin::Status::OK();
}

uint32_t RadixPartitioner::MaskForPass(int pass) const {
  // Cumulative-bit masks: pass p groups by the low (p+1)*fanout_bits bits,
  // capped at the total partition mask. Grouping by *all* bits seen so far
  // makes every pass correct independent of scatter stability, while the
  // previous pass's grouping keeps the active output regions of this pass
  // bounded by the fanout (the TLB/cache rationale for multi-pass radix).
  uint32_t fanout_bits = 0;
  while ((1u << fanout_bits) < plan_.fanout_per_pass) ++fanout_bits;
  const uint32_t bits = std::min(plan_.partition_bits,
                                 fanout_bits * static_cast<uint32_t>(pass + 1));
  // Saturate only when the mask would need every bit: (1u << 31) - 1 is a
  // perfectly good 31-bit mask, and saturating it to ~0u doubled the
  // partition count at partition_bits == 31.
  return bits >= 32 ? ~0u : ((1u << bits) - 1u);
}

void RadixPartitioner::BeginPass(int pass) {
  // Pass 0 scans the whole input and applies the fused-select filter; later
  // passes see only the compacted survivors of the previous scatter.
  const uint64_t n = pass == 0 ? cur_->size() : live_;
  const uint8_t* filter = pass == 0 ? filter_ : nullptr;
  const uint32_t mask = MaskForPass(pass);
  const uint32_t nparts = mask + 1;

  // Exact per-(workgroup, partition) sub-histogram so destination regions
  // are tight (bookkeeping; the charged work happens in the n1..n3 kernels).
  // Partition-major layout ([p * kWgSlots + w], not [w * nparts + p]): the
  // prefix sum below becomes one linear walk, and under skew a hot
  // partition's 64 work-group counters share a few cache lines instead of
  // being strided nparts apart.
  std::vector<uint32_t> counts(static_cast<size_t>(kWgSlots) * nparts, 0);
  // Host-side bookkeeping; the n1 kernel computes the same pid with the
  // same per-width hash.
  const KeyView k = CurrentKeys();
  const auto histogram = [&](auto wide) {
    for (uint64_t i = 0; i < n; ++i) {
      if (filter != nullptr && filter[i] == 0) continue;
      const uint32_t p = HashKeyAt<decltype(wide)::value>(k, i) & mask;
      counts[static_cast<size_t>(p) * kWgSlots + WgOf(i)]++;
    }
  };
  if (data::KeyIsWide(input_->key_schema)) {
    histogram(std::true_type{});
  } else {
    histogram(std::false_type{});
  }
  // Partition-major prefix sum: partition regions are contiguous, each
  // ordered by claiming work group.
  cursor_ = std::vector<std::atomic<uint32_t>>(
      static_cast<size_t>(kWgSlots) * nparts);
  first_.assign(static_cast<size_t>(kWgSlots) * nparts, 0);
  std::vector<uint32_t> part_base(nparts + 1, 0);
  uint32_t running = 0;
  for (uint32_t p = 0; p < nparts; ++p) {
    part_base[p] = running;
    for (uint32_t w = 0; w < kWgSlots; ++w) {
      const size_t slot = static_cast<size_t>(p) * kWgSlots + w;
      first_[slot] = running;
      // relaxed: histogram phase ended at a span barrier; these stores
      // are published to scatter workers by the next span launch.
      cursor_[slot].store(running, std::memory_order_relaxed);
      running += counts[slot];
    }
  }
  part_base[nparts] = running;
  live_ = running;  // survivors (= n when unfiltered)

  if (pass + 1 == plan_.passes) {
    offsets_ = std::move(part_base);
  }
}

KeyView RadixPartitioner::CurrentKeys() const {
  return KeyView{input_->key_schema, cur_->keys.data(), cur_->key_hi.data()};
}

std::vector<StepDef> RadixPartitioner::PassSteps(int pass) {
  // Key-width dispatch happens here, at construction scope: each kernel
  // body is one branch-free instantiation per width.
  return data::KeyIsWide(input_->key_schema) ? PassSeries<true>(pass)
                                             : PassSeries<false>(pass);
}

template <bool kWide>
std::vector<StepDef> RadixPartitioner::PassSeries(int pass) {
  // Pass 0 runs over the whole input (filtered lanes at zero work); later
  // passes run over the compacted survivors only.
  const uint64_t n = pass == 0 ? cur_->size() : live_;
  const uint8_t* filter = pass == 0 ? filter_ : nullptr;
  const uint32_t mask = MaskForPass(pass);
  const uint32_t nparts = mask + 1;
  std::vector<StepDef> steps;

  // Column views of this pass, captured once per step. cur_/nxt_ swap only
  // in EndPass, after the pass's steps have all executed. The hi columns
  // are read (and written) only by the wide instantiation.
  const KeyView in = CurrentKeys();
  const int32_t* in_rids = cur_->rids.data();
  const ScatterOut out{nxt_->keys.data(), nxt_->key_hi.data(),
                       nxt_->rids.data()};
  uint32_t* pid = pid_.data();
  uint32_t* dest = dest_.data();

  StepDef n1;
  n1.name = "n1";
  n1.profile = HashStepProfile(data::KeyBytes(input_->key_schema));
  n1.items = n;
  n1.run = [in, pid, mask](const Morsel& m, DeviceId,
                           uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      pid[i] = HashKeyAt<kWide>(in, i) & mask;
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(n1));
  StepDef n2;
  n2.name = "n2";
  n2.profile = PartitionHeaderProfile(static_cast<double>(nparts) * 8.0);
  n2.items = n;
  const uint32_t dist = opts_.prefetch_dist;
  n2.run = [this, dist, filter, pid, dest](const Morsel& m, DeviceId dev,
                                           uint32_t* lw) -> uint64_t {
    uint64_t total = 0;
    uint64_t claimed = 0;
    uint64_t chunks = 0;  // claims that open a chunk of the sub-region
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (dist != 0 && i + dist < m.end) {
        // pid is fully populated by n1, so the upcoming cursor line is
        // known `dist` items ahead of its fetch_add.
        __builtin_prefetch(
            &cursor_[static_cast<size_t>(pid[i + dist]) * kWgSlots +
                     WgOf(i + dist)],
            1, 1);
      }
      if (filter != nullptr && filter[i] == 0) {
        // Fused-select dead lane: no slot is claimed for it.
        total += RecordWork(lw, m, i, 0);
        continue;
      }
      const size_t slot = static_cast<size_t>(pid[i]) * kWgSlots + WgOf(i);
      // relaxed: claimed offsets only need to be unique (RMW atomicity);
      // the scattered payload is published by the span barrier.
      dest[i] = cursor_[slot].fetch_add(1, std::memory_order_relaxed);
      // Block-allocation discipline: one global atomic per chunk of claims
      // from this (work group, partition) sub-region, local bumps otherwise.
      // The claim's index in its sub-region is its offset from the first
      // slot, so only the morsel's own tally is written.
      ++claimed;
      if ((dest[i] - first_[slot]) % chunk_elems_ == 0) ++chunks;
      total += RecordWork(lw, m, i, 1);
    }
    counts_.Add(dev, chunks, claimed - chunks);
    return total;
  };
  steps.push_back(std::move(n2));

  StepDef n3;
  n3.name = "n3";
  n3.profile = ScatterProfile(static_cast<double>(plan_.fanout_per_pass) *
                                  ctx_->memory().spec().cache_line_bytes,
                              data::TupleBytes(input_->key_schema));
  n3.items = n;
  n3.run = [in, in_rids, out, pid, dest, filter](
               const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
    // Write-combining scatter: within a (work group, partition) sub-region
    // the n2 cursor hands out ascending destinations, so consecutive items
    // of one partition form runs of consecutive slots. Batch each run in a
    // small per-partition buffer (direct-mapped on the partition id) and
    // store it as one burst — the scattered stores then hit each output
    // cache line once instead of once per tuple. Each destination is still
    // written exactly once with the same value, so the output (and the sim
    // backend's accounting) is unchanged. Wide keys carry the hi word in
    // the slot's own lane.
    WcSlot<kWide> wc[128];
    const auto flush = [out](WcSlot<kWide>& s) {
      for (uint32_t k = 0; k < s.len; ++k) {
        out.keys[s.base + k] = s.keys[k];
        if constexpr (kWide) out.hi[s.base + k] = s.his[k];
        out.rids[s.base + k] = s.rids[k];
      }
      s.len = 0;
    };
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (filter != nullptr && filter[i] == 0) {
        // Fused-select dead lane: nothing was claimed, nothing scatters.
        total += RecordWork(lw, m, i, 0);
        continue;
      }
      const uint32_t d = dest[i];
      WcSlot<kWide>& s = wc[pid[i] & 127u];
      if (s.len == 0 || s.base + s.len != d || s.len == 8) {
        flush(s);
        s.base = d;
      }
      s.keys[s.len] = in.lo[i];
      if constexpr (kWide) s.his[s.len] = in.hi[i];
      s.rids[s.len] = in_rids[i];
      ++s.len;
      total += RecordWork(lw, m, i, 1);
    }
    for (WcSlot<kWide>& s : wc) flush(s);
    return total;
  };
  steps.push_back(std::move(n3));
  return steps;
}

void RadixPartitioner::EndPass(int /*pass*/) { std::swap(cur_, nxt_); }

alloc::AllocCounts RadixPartitioner::TakeCounts() { return counts_.Take(); }

}  // namespace apujoin::join
