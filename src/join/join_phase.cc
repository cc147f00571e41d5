#include "join/join_phase.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>

#include "join/groupby_engine.h"

namespace apujoin::join {

using simcl::DeviceId;
using simcl::Phase;

apujoin::Status ResolveJoinKeys(const data::Relation& build,
                                const data::Relation& probe,
                                bool shared_table, data::Relation* r_canon,
                                data::Relation* s_canon,
                                const data::Relation** r_keys,
                                const data::Relation** s_keys) {
  const data::KeySchema schema = build.key_schema;
  if (probe.key_schema != schema) {
    return apujoin::Status::InvalidArgument(
        "build and probe key schemas differ");
  }
  *r_keys = &build;
  *s_keys = &probe;
  if (!data::KeyIsWide(schema)) return apujoin::Status::OK();
  if (!shared_table) {
    return apujoin::Status::InvalidArgument(
        "wide key schemas require shared_table (the separate-table merge "
        "path is U32-only)");
  }
  if (schema != data::KeySchema::kDictString) {
    if (build.key_hi.size() != build.size() ||
        probe.key_hi.size() != probe.size()) {
      return apujoin::Status::InvalidArgument(
          "wide key schema requires a key_hi column of matching length");
    }
    return apujoin::Status::OK();
  }

  // DictString: hash-first lookup, exact string compare second, once per
  // dictionary entry — the join kernels never touch strings.
  const data::StringDict& bd = build.dict;
  const data::StringDict& pd = probe.dict;
  if (bd.strings.size() != bd.hashes.size() ||
      pd.strings.size() != pd.hashes.size()) {
    return apujoin::Status::InvalidArgument(
        "dict-string relation with out-of-sync dictionary hashes");
  }
  std::unordered_multimap<uint64_t, int32_t> by_hash;
  by_hash.reserve(bd.strings.size());
  for (size_t c = 0; c < bd.strings.size(); ++c) {
    by_hash.emplace(bd.hashes[c], static_cast<int32_t>(c));
  }
  std::vector<int32_t> xlat(pd.strings.size(), kNil);
  for (size_t c = 0; c < pd.strings.size(); ++c) {
    const auto range = by_hash.equal_range(pd.hashes[c]);
    for (auto it = range.first; it != range.second; ++it) {
      if (bd.strings[static_cast<size_t>(it->second)] == pd.strings[c]) {
        xlat[c] = it->second;
        break;
      }
    }
  }
  // Untranslatable probe strings keep hi = kNil (-1), which never equals a
  // build code (>= 0): the probe cannot produce a false match.
  const auto canonicalize = [](const data::Relation& in,
                               const data::StringDict& dict,
                               const std::vector<int32_t>* code_map,
                               data::Relation* out) {
    out->key_schema = in.key_schema;
    out->keys.resize(in.size());
    out->key_hi.resize(in.size());
    for (uint64_t i = 0; i < in.size(); ++i) {
      const int32_t code = in.keys[i];
      if (code < 0 || static_cast<size_t>(code) >= dict.strings.size()) {
        return false;
      }
      const size_t c = static_cast<size_t>(code);
      out->keys[i] = static_cast<int32_t>(static_cast<uint32_t>(dict.hashes[c]));
      out->key_hi[i] = code_map != nullptr ? (*code_map)[c] : code;
    }
    return true;
  };
  if (!canonicalize(build, bd, nullptr, r_canon)) {
    return apujoin::Status::InvalidArgument(
        "dict-string build code out of dictionary range");
  }
  if (!canonicalize(probe, pd, &xlat, s_canon)) {
    return apujoin::Status::InvalidArgument(
        "dict-string probe code out of dictionary range");
  }
  *r_keys = r_canon;
  *s_keys = s_canon;
  return apujoin::Status::OK();
}

std::unique_ptr<NodePools> MakeJoinPools(uint64_t build_tuples,
                                         const EngineOptions& opts,
                                         bool wide) {
  const uint64_t n = build_tuples;
  const uint64_t merge_headroom = opts.shared_table ? 0 : n;
  const uint64_t key_cap =
      opts.layout == exec::HashLayout::kOpenAddressing
          ? 64
          : n + n / 8 + merge_headroom +
                PoolSlack(n, opts.block_bytes, wide ? 16 : 12);
  const uint64_t rid_cap =
      n + merge_headroom + PoolSlack(n, opts.block_bytes, 8);
  return std::make_unique<NodePools>(key_cap, rid_cap, opts.allocator,
                                     opts.block_bytes, wide);
}

void JoinPhase::MakeTables(const std::vector<uint32_t>& buckets,
                           NodePools* pools, bool wide) {
  chained_ = {};
  open_ = {};
  const bool separate = !opts_.shared_table;
  simcl::CacheSim* cache = ctx_->cache();
  if (open()) {
    open_.home.reserve(buckets.size());
    for (uint32_t b : buckets) {
      open_.home.push_back(
          std::make_unique<OpenHashTable>(b, pools, wide, opts_.simd));
      if (separate) {
        // Numbered after the CPU table's slots: b4 finds the table b3
        // used from the slot id alone (TableSelector::Holding).
        open_.gpu.push_back(std::make_unique<OpenHashTable>(
            b, pools, wide, opts_.simd,
            static_cast<int32_t>(open_.home.back()->num_slots())));
      }
    }
    for (auto* set : {&open_.home, &open_.gpu}) {
      for (auto& t : *set) t->set_cache(cache);
    }
    return;
  }
  chained_.home.reserve(buckets.size());
  for (uint32_t b : buckets) {
    chained_.home.push_back(std::make_unique<HashTable>(b, pools));
    if (separate) chained_.gpu.push_back(std::make_unique<HashTable>(b, pools));
  }
  for (auto* set : {&chained_.home, &chained_.gpu}) {
    for (auto& t : *set) t->set_cache(cache);
  }
}

template <class Fn>
auto JoinPhase::Dispatch(bool wide, Fn&& fn) {
  if (open()) {
    return wide ? fn(static_cast<OpenHashTable*>(nullptr), std::true_type{})
                : fn(static_cast<OpenHashTable*>(nullptr), std::false_type{});
  }
  return wide ? fn(static_cast<HashTable*>(nullptr), std::true_type{})
              : fn(static_cast<HashTable*>(nullptr), std::false_type{});
}

namespace {

using Clock = std::chrono::steady_clock;

/// Items per block of a fused kernel: the length of its register arrays.
constexpr uint64_t kFusedBlock = 256;

/// Where item i's registers live: at index i - base of the columns. The
/// kSteps lowering passes its whole-series arrays (base 0), a fused kernel
/// one block's stack arrays (base = the block's first item).
struct Regs {
  uint32_t* hashes = nullptr;
  uint32_t* buckets = nullptr;
  int32_t* keynodes = nullptr;  // key nodes or slot ids
  int32_t* counts = nullptr;    // p2 workload estimates (probe only)
  uint64_t base = 0;

  uint32_t& hash(uint64_t i) const { return hashes[i - base]; }
  uint32_t& bucket(uint64_t i) const { return buckets[i - base]; }
  int32_t& keynode(uint64_t i) const { return keynodes[i - base]; }
  int32_t& count(uint64_t i) const { return counts[i - base]; }
};

/// The step bodies over one side of the join phase, each written once and
/// called by both lowerings. A body runs its step over items [m.begin,
/// m.end) in ascending order. `perm` (the sim's probe grouping; null =
/// identity) reorders p3 and p4.
template <class Table, bool kWide>
struct StepBodies {
  TableSelector<Table> sel;
  PhaseInput in;
  uint32_t dist;  // prefetch lookahead
  std::atomic<bool>* overflowed;

  /// A fused-select dead lane: never hashed, looked up or inserted.
  bool Dead(uint64_t i) const {
    return in.filter != nullptr && in.filter[i] == 0;
  }

  /// b1 / p1. Dead lanes are not hashed: b2..b4 and p2..p4 check the
  /// filter before reading the hash or bucket.
  uint64_t Hash(const Morsel& m, uint32_t* lw, const Regs& r) const {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (Dead(i)) continue;
      r.hash(i) = HashKeyAt<kWide>(in.key, i);
    }
    return ConstantWork(lw, m);
  }

  /// b2.
  uint64_t BuildHeader(const Morsel& m, DeviceId dev, uint32_t* lw,
                       const Regs& r) const {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (Dead(i)) continue;
      Table* t = sel.For(i, dev);
      r.bucket(i) = t->BucketOf(r.hash(i) >> in.shift);
      t->VisitHeader(r.bucket(i));
    }
    return ConstantWork(lw, m);
  }

  /// b3.
  uint64_t AddKey(const Morsel& m, DeviceId dev, uint32_t* lw,
                  const Regs& r) const {
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (dist != 0 && i + dist < m.end) {
        sel.For(i + dist, dev)->PrefetchBucket(r.bucket(i + dist));
      }
      uint32_t work = 0;
      if (Dead(i)) {
        r.keynode(i) = kNil;  // never inserted
      } else {
        r.keynode(i) = sel.For(i, dev)->template FindOrAdd<kWide>(
            r.bucket(i), in.key.lo[i], HiWordAt<kWide>(in.key, i), dev,
            WorkgroupOf(i), &work);
        if (r.keynode(i) == kNil) {
          // relaxed: sticky flag, read after the span barrier.
          overflowed->store(true, std::memory_order_relaxed);
        }
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  }

  /// b4.
  uint64_t LinkRid(const Morsel& m, DeviceId dev, uint32_t* lw,
                   const Regs& r) const {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const int32_t node = r.keynode(i);
      if (node == kNil) continue;
      Table* t = sel.Holding(i, dev, node);
      if (!t->InsertRid(node, in.rids[i], dev, WorkgroupOf(i))) {
        // relaxed: sticky flag, read after the span barrier.
        overflowed->store(true, std::memory_order_relaxed);
        continue;
      }
      t->BumpCount(r.bucket(i));
    }
    return ConstantWork(lw, m);
  }

  /// p2.
  uint64_t ProbeHeader(const Morsel& m, uint32_t* lw, const Regs& r) const {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (Dead(i)) {
        r.count(i) = 0;  // the grouping sort reads every lane's estimate
        continue;
      }
      Table* t = sel.Home(i);
      r.bucket(i) = t->BucketOf(r.hash(i) >> in.shift);
      int32_t count = 0;
      t->VisitHeader(r.bucket(i), &count);
      r.count(i) = count;
    }
    return ConstantWork(lw, m);
  }

  /// p3.
  uint64_t LookUp(const Morsel& m, uint32_t* lw, const Regs& r,
                  const uint32_t* perm) const {
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      if (dist != 0 && i + dist < m.end) {
        const uint64_t jn = perm != nullptr ? perm[i + dist] : i + dist;
        sel.Home(jn)->PrefetchBucket(r.bucket(jn));
      }
      uint32_t work = 0;
      if (Dead(j)) {
        r.keynode(j) = kNil;  // no lookup
      } else {
        r.keynode(j) = sel.Home(j)->template Find<kWide>(
            r.bucket(j), in.key.lo[j], HiWordAt<kWide>(in.key, j), &work);
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  }

  /// p4 / p4g: hands every match to
  /// `visit(probe key, build rid, probe rid, dev, workgroup)`.
  template <class Visit>
  uint64_t Match(const Morsel& m, DeviceId dev, uint32_t* lw, const Regs& r,
                 const uint32_t* perm, const Visit& visit) const {
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      uint32_t work = 1;
      if (r.keynode(j) != kNil) {
        const int32_t skey = in.emit_keys[j];
        const int32_t srid = in.rids[j];
        const uint32_t wg = WorkgroupOf(i);
        work += sel.Home(j)->ForEachRid(
            r.keynode(j), [&visit, skey, srid, dev, wg](int32_t brid) {
              visit(skey, brid, srid, dev, wg);
            });
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  }
};

/// A fused kernel's morsel: runs `body...` — each a
/// `(const Morsel& block, const Regs&) -> work` — back to back over blocks
/// of at most kFusedBlock items, with the registers in block-local arrays.
/// The clock is read before the first body of a block and after each one;
/// the laps go to `clock` once per morsel.
template <class... Body>
uint64_t RunFused(const Morsel& m, PartClock* clock, const Body&... body) {
  // Zeroed once per morsel: b3 and p3 prefetch the buckets of dead lanes,
  // which b2 and p2 never write.
  uint32_t hashes[kFusedBlock] = {};
  uint32_t buckets[kFusedBlock] = {};
  int32_t keynodes[kFusedBlock] = {};
  int32_t counts[kFusedBlock] = {};
  uint64_t laps[sizeof...(Body)] = {};
  uint64_t work = 0;
  for (uint64_t lo = m.begin; lo < m.end; lo += kFusedBlock) {
    const Morsel block{lo, std::min(m.end, lo + kFusedBlock)};
    const Regs regs{hashes, buckets, keynodes, counts, lo};
    Clock::time_point t = Clock::now();
    size_t k = 0;
    const auto lap = [&] {
      const Clock::time_point now = Clock::now();
      laps[k++] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - t)
              .count());
      t = now;
    };
    ((work += body(block, regs), lap()), ...);
  }
  clock->Add(laps);
  return work;
}

}  // namespace

std::vector<StepDef> JoinPhase::BuildSteps(const PhaseInput& r,
                                           Lowering lowering) {
  return Dispatch(r.key.wide(), [&](auto* table, auto wide) {
    using Table = std::remove_pointer_t<decltype(table)>;
    return BuildSeries<Table, decltype(wide)::value>(r, lowering);
  });
}

std::vector<StepDef> JoinPhase::ProbeSteps(const PhaseInput& s,
                                           ResultWriter* out,
                                           Lowering lowering) {
  return Dispatch(s.key.wide(), [&](auto* table, auto wide) {
    using Table = std::remove_pointer_t<decltype(table)>;
    return ProbeSeries<Table, decltype(wide)::value>(
        s, "p4", EmitProfile(s.table_bytes, opts_.locality_boost), lowering,
        [out](int32_t skey, int32_t brid, int32_t srid, DeviceId dev,
              uint32_t wg) {
          if (out->captures_keys()) {
            out->Emit(skey, brid, srid, dev, wg);
          } else {
            out->Emit(brid, srid, dev, wg);
          }
        });
  });
}

std::vector<StepDef> JoinPhase::ProbeStepsFused(const PhaseInput& s,
                                                GroupByEngine* agg,
                                                Lowering lowering) {
  return Dispatch(s.key.wide(), [&](auto* table, auto wide) {
    using Table = std::remove_pointer_t<decltype(table)>;
    // The match streams into the aggregate table; the <build rid, probe
    // rid> pair is never materialized.
    return ProbeSeries<Table, decltype(wide)::value>(
        s, "p4g",
        FusedEmitAggProfile(s.table_bytes, agg->TableWorkingSetBytes(),
                            opts_.locality_boost),
        lowering,
        [agg](int32_t skey, int32_t, int32_t srid, DeviceId, uint32_t) {
          agg->Accumulate(skey, static_cast<int64_t>(srid));
        });
  });
}

template <class Table, bool kWide>
std::vector<StepDef> JoinPhase::BuildSeries(const PhaseInput& r,
                                            Lowering lowering) {
  const StepBodies<Table, kWide> b{Selector<Table>(r.part_of), r,
                               opts_.prefetch_dist, &overflowed_};
  std::vector<StepDef> steps;
  if (lowering == Lowering::kFused) {
    StepDef st;
    st.name = "b1..b4";
    st.items = r.items;
    st.parts = std::make_shared<PartClock>(
        std::vector<std::string>{"b1", "b2", "b3", "b4"});
    st.run = [b, clock = st.parts](const Morsel& m, DeviceId dev,
                                   uint32_t*) -> uint64_t {
      return RunFused(
          m, clock.get(),
          [&](const Morsel& k, const Regs& g) { return b.Hash(k, nullptr, g); },
          [&](const Morsel& k, const Regs& g) {
            return b.BuildHeader(k, dev, nullptr, g);
          },
          [&](const Morsel& k, const Regs& g) {
            return b.AddKey(k, dev, nullptr, g);
          },
          [&](const Morsel& k, const Regs& g) {
            return b.LinkRid(k, dev, nullptr, g);
          });
    };
    steps.push_back(std::move(st));
    return steps;
  }

  r_hash_.resize(r.items);
  r_bucket_.resize(r.items);
  r_keynode_.resize(r.items);
  const Regs regs{r_hash_.data(), r_bucket_.data(), r_keynode_.data()};
  steps.resize(4);
  steps[0].name = "b1";
  steps[0].profile = HashStepProfile(data::KeyBytes(r.key.schema));
  steps[0].run = [b, regs](const Morsel& m, DeviceId,
                           uint32_t* lw) -> uint64_t {
    return b.Hash(m, lw, regs);
  };
  steps[1].name = "b2";
  steps[1].profile = HeaderVisitProfile(r.header_bytes);
  steps[1].run = [b, regs](const Morsel& m, DeviceId dev,
                           uint32_t* lw) -> uint64_t {
    return b.BuildHeader(m, dev, lw, regs);
  };
  steps[2].name = "b3";
  steps[2].profile =
      LayoutTraits<Table>::Insert(r.table_bytes, opts_.locality_boost);
  steps[2].run = [b, regs](const Morsel& m, DeviceId dev,
                           uint32_t* lw) -> uint64_t {
    return b.AddKey(m, dev, lw, regs);
  };
  steps[3].name = "b4";
  steps[3].profile = RidInsertProfile(r.table_bytes);
  steps[3].run = [b, regs](const Morsel& m, DeviceId dev,
                           uint32_t* lw) -> uint64_t {
    return b.LinkRid(m, dev, lw, regs);
  };
  for (StepDef& st : steps) st.items = r.items;
  return steps;
}

template <class Table, bool kWide, class Visit>
std::vector<StepDef> JoinPhase::ProbeSeries(const PhaseInput& s,
                                            const char* match,
                                            simcl::StepProfile match_profile,
                                            Lowering lowering, Visit visit) {
  const StepBodies<Table, kWide> b{Selector<Table>(s.part_of), s,
                               opts_.prefetch_dist, &overflowed_};
  const uint64_t n = s.items;
  std::vector<StepDef> steps;
  if (lowering == Lowering::kFused) {
    StepDef st;
    st.name = std::string("p1..") + match;
    st.items = n;
    st.parts = std::make_shared<PartClock>(
        std::vector<std::string>{"p1", "p2", "p3", match});
    st.run = [b, visit, clock = st.parts](const Morsel& m, DeviceId dev,
                                          uint32_t*) -> uint64_t {
      return RunFused(
          m, clock.get(),
          [&](const Morsel& k, const Regs& g) { return b.Hash(k, nullptr, g); },
          [&](const Morsel& k, const Regs& g) {
            return b.ProbeHeader(k, nullptr, g);
          },
          [&](const Morsel& k, const Regs& g) {
            return b.LookUp(k, nullptr, g, nullptr);
          },
          [&](const Morsel& k, const Regs& g) {
            return b.Match(k, dev, nullptr, g, nullptr, visit);
          });
    };
    steps.push_back(std::move(st));
    return steps;
  }

  s_hash_.resize(n);
  s_bucket_.resize(n);
  s_keynode_.resize(n);
  s_count_.resize(n);
  perm_.clear();
  const Regs regs{s_hash_.data(), s_bucket_.data(), s_keynode_.data(),
                  s_count_.data()};
  steps.resize(4);
  steps[0].name = "p1";
  steps[0].profile = HashStepProfile(data::KeyBytes(s.key.schema));
  steps[0].run = [b, regs](const Morsel& m, DeviceId,
                           uint32_t* lw) -> uint64_t {
    return b.Hash(m, lw, regs);
  };
  steps[1].name = "p2";
  steps[1].profile = HeaderVisitProfile(s.header_bytes);
  steps[1].run = [b, regs](const Morsel& m, DeviceId,
                           uint32_t* lw) -> uint64_t {
    return b.ProbeHeader(m, lw, regs);
  };
  steps[1].after = [this, n](uint64_t begin, uint64_t end) {
    if (opts_.grouping) BuildProbePermutation(begin, end, n);
  };
  // p2's after-hook builds the grouping permutation once these StepDefs
  // exist: p3 and p4 resolve it per morsel, not per step.
  steps[2].name = "p3";
  steps[2].profile =
      LayoutTraits<Table>::Search(s.table_bytes, opts_.locality_boost);
  steps[2].run = [this, b, regs](const Morsel& m, DeviceId,
                                 uint32_t* lw) -> uint64_t {
    return b.LookUp(m, lw, regs, perm_.empty() ? nullptr : perm_.data());
  };
  steps[3].name = match;
  steps[3].profile = match_profile;
  steps[3].run = [this, b, regs, visit](const Morsel& m, DeviceId dev,
                                        uint32_t* lw) -> uint64_t {
    return b.Match(m, dev, lw, regs, perm_.empty() ? nullptr : perm_.data(),
                   visit);
  };
  for (StepDef& st : steps) st.items = n;
  return steps;
}

std::pair<uint64_t, uint64_t> JoinPhase::MergeSeparateTables(uint32_t shift) {
  uint64_t keys = 0;
  uint64_t rids = 0;
  const auto merge = [&](const auto& set) {
    for (size_t p = 0; p < set.gpu.size(); ++p) {
      const auto [k, r] =
          set.home[p]->MergeFrom(*set.gpu[p], shift, DeviceId::kCpu);
      keys += k;
      rids += r;
    }
  };
  merge(chained_);
  merge(open_);
  return {keys, rids};
}

void JoinPhase::BuildProbePermutation(uint64_t begin, uint64_t end,
                                      uint64_t n) {
  if (perm_.size() != n) {
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), 0u);
  }
  end = std::min(end, n);
  if (begin >= end) return;
  // Sort the GPU range [begin, end) by the p2 workload estimate so each
  // wavefront sees near-uniform work.
  std::stable_sort(perm_.begin() + static_cast<int64_t>(begin),
                   perm_.begin() + static_cast<int64_t>(end),
                   [this](uint32_t a, uint32_t b) {
                     return s_count_[a] < s_count_[b];
                   });
  // Two streaming passes (estimate + permute) charged to the GPU.
  const double bytes = static_cast<double>(end - begin) * 8.0 * 2.0;
  ctx_->log().Add(Phase::kGrouping,
                  ctx_->memory().SequentialNs(
                      ctx_->device(DeviceId::kGpu), bytes));
}

}  // namespace apujoin::join
