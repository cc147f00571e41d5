#include "join/join_phase.h"

#include <algorithm>
#include <numeric>
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

void JoinPhase::Resize(uint64_t build_items, uint64_t probe_items) {
  r_hash_.resize(build_items);
  r_bucket_.resize(build_items);
  r_keynode_.resize(build_items);
  s_hash_.resize(probe_items);
  s_bucket_.resize(probe_items);
  s_keynode_.resize(probe_items);
  s_count_.resize(probe_items);
  perm_.clear();
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

std::vector<StepDef> JoinPhase::BuildSteps(const PhaseInput& r) {
  return Dispatch(r.key.wide(), [&](auto* table, auto wide) {
    using Table = std::remove_pointer_t<decltype(table)>;
    return BuildSeries<Table, decltype(wide)::value>(r);
  });
}

std::vector<StepDef> JoinPhase::ProbeSteps(const PhaseInput& s,
                                           ResultWriter* out) {
  return Dispatch(s.key.wide(), [&](auto* table, auto wide) {
    using Table = std::remove_pointer_t<decltype(table)>;
    std::vector<StepDef> steps = ProbeSeries<Table, decltype(wide)::value>(s);
    steps.push_back(MatchStep<Table>(
        "p4", EmitProfile(s.table_bytes, opts_.locality_boost), s,
        [out](int32_t skey, int32_t brid, int32_t srid, DeviceId dev,
              uint32_t wg) {
          if (out->captures_keys()) {
            out->Emit(skey, brid, srid, dev, wg);
          } else {
            out->Emit(brid, srid, dev, wg);
          }
        }));
    return steps;
  });
}

std::vector<StepDef> JoinPhase::ProbeStepsFused(const PhaseInput& s,
                                                GroupByEngine* agg) {
  return Dispatch(s.key.wide(), [&](auto* table, auto wide) {
    using Table = std::remove_pointer_t<decltype(table)>;
    std::vector<StepDef> steps = ProbeSeries<Table, decltype(wide)::value>(s);
    // The match streams into the aggregate table; the <build rid, probe
    // rid> pair is never materialized.
    steps.push_back(MatchStep<Table>(
        "p4g",
        FusedEmitAggProfile(s.table_bytes, agg->TableWorkingSetBytes(),
                            opts_.locality_boost),
        s,
        [agg](int32_t skey, int32_t, int32_t srid, DeviceId, uint32_t) {
          agg->Accumulate(skey, static_cast<int64_t>(srid));
        }));
    return steps;
  });
}

template <bool kWide>
StepDef JoinPhase::HashStep(const char* name, const PhaseInput& in,
                            uint32_t* hash) {
  const KeyView k = in.key;
  const uint8_t* f = in.filter;
  StepDef st;
  st.name = name;
  st.profile = HashStepProfile(data::KeyBytes(k.schema));
  st.items = in.items;
  st.run = [f, k, hash](const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      // Fused-select dead lanes are never hashed (b3/p3 check the filter
      // before reading the hash or bucket).
      if (f != nullptr && f[i] == 0) continue;
      hash[i] = HashKeyAt<kWide>(k, i);
    }
    return ConstantWork(lw, m);
  };
  return st;
}

template <class Table, bool kWide>
std::vector<StepDef> JoinPhase::BuildSeries(const PhaseInput& r) {
  using Traits = LayoutTraits<Table>;
  const TableSelector<Table> sel = Selector<Table>(r.part_of);
  const KeyView rk = r.key;
  const int32_t* r_rids = r.rids;
  const uint8_t* bf = r.filter;
  const uint32_t shift = r.shift;
  const uint32_t dist = opts_.prefetch_dist;
  uint32_t* r_hash = r_hash_.data();
  uint32_t* r_bucket = r_bucket_.data();
  int32_t* r_keynode = r_keynode_.data();
  std::vector<StepDef> steps;
  steps.push_back(HashStep<kWide>("b1", r, r_hash));

  StepDef b2;
  b2.name = "b2";
  b2.profile = HeaderVisitProfile(r.header_bytes);
  b2.items = r.items;
  b2.run = [sel, bf, shift, r_hash, r_bucket](const Morsel& m, DeviceId dev,
                                              uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (bf != nullptr && bf[i] == 0) continue;
      Table* t = sel.For(i, dev);
      r_bucket[i] = t->BucketOf(r_hash[i] >> shift);
      t->VisitHeader(r_bucket[i]);
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(b2));

  StepDef b3;
  b3.name = "b3";
  b3.profile = Traits::Insert(r.table_bytes, opts_.locality_boost);
  b3.items = r.items;
  b3.run = [this, sel, bf, dist, rk, r_bucket, r_keynode](
               const Morsel& m, DeviceId dev, uint32_t* lw) -> uint64_t {
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (dist != 0 && i + dist < m.end) {
        sel.For(i + dist, dev)->PrefetchBucket(r_bucket[i + dist]);
      }
      uint32_t work = 0;
      if (bf != nullptr && bf[i] == 0) {
        r_keynode[i] = kNil;  // fused-select dead lane: never inserted
      } else {
        r_keynode[i] = sel.For(i, dev)->template FindOrAdd<kWide>(
            r_bucket[i], rk.lo[i], HiWordAt<kWide>(rk, i), dev,
            WorkgroupOf(i), &work);
        if (r_keynode[i] == kNil) {
          // relaxed: sticky flag, read after the span barrier.
          overflowed_.store(true, std::memory_order_relaxed);
        }
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(b3));

  StepDef b4;
  b4.name = "b4";
  b4.profile = RidInsertProfile(r.table_bytes);
  b4.items = r.items;
  b4.run = [this, sel, r_rids, r_bucket, r_keynode](
               const Morsel& m, DeviceId dev, uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (r_keynode[i] == kNil) continue;
      Table* t = sel.Holding(i, dev, r_keynode[i]);
      if (!t->InsertRid(r_keynode[i], r_rids[i], dev, WorkgroupOf(i))) {
        // relaxed: sticky flag, read after the span barrier.
        overflowed_.store(true, std::memory_order_relaxed);
        continue;
      }
      t->BumpCount(r_bucket[i]);
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(b4));
  return steps;
}

template <class Table, bool kWide>
std::vector<StepDef> JoinPhase::ProbeSeries(const PhaseInput& s) {
  const TableSelector<Table> sel = Selector<Table>(s.part_of);
  const KeyView sk = s.key;
  const uint8_t* pf = s.filter;
  const uint32_t shift = s.shift;
  const uint32_t dist = opts_.prefetch_dist;
  const uint64_t n = s.items;
  uint32_t* s_hash = s_hash_.data();
  uint32_t* s_bucket = s_bucket_.data();
  int32_t* s_keynode = s_keynode_.data();
  int32_t* s_count = s_count_.data();
  std::vector<StepDef> steps;
  steps.push_back(HashStep<kWide>("p1", s, s_hash));

  StepDef p2;
  p2.name = "p2";
  p2.profile = HeaderVisitProfile(s.header_bytes);
  p2.items = n;
  p2.run = [sel, pf, shift, s_hash, s_bucket, s_count](
               const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      if (pf != nullptr && pf[i] == 0) {
        s_count[i] = 0;  // the grouping sort reads every lane's estimate
        continue;
      }
      Table* t = sel.Home(i);
      s_bucket[i] = t->BucketOf(s_hash[i] >> shift);
      int32_t count = 0;
      t->VisitHeader(s_bucket[i], &count);
      s_count[i] = count;
    }
    return ConstantWork(lw, m);
  };
  p2.after = [this, n](uint64_t begin, uint64_t end) {
    if (opts_.grouping) BuildProbePermutation(begin, end, n);
  };
  steps.push_back(std::move(p2));

  StepDef p3;
  p3.name = "p3";
  p3.profile = LayoutTraits<Table>::Search(s.table_bytes, opts_.locality_boost);
  p3.items = n;
  p3.run = [this, sel, pf, dist, sk, s_bucket, s_keynode](
               const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
    // The grouping permutation is built by p2's after-hook, i.e. after this
    // StepDef was created — resolve the view per morsel, not per step.
    const uint32_t* perm = perm_.empty() ? nullptr : perm_.data();
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      if (dist != 0 && i + dist < m.end) {
        const uint64_t jn = perm != nullptr ? perm[i + dist] : i + dist;
        sel.Home(jn)->PrefetchBucket(s_bucket[jn]);
      }
      uint32_t work = 0;
      if (pf != nullptr && pf[j] == 0) {
        s_keynode[j] = kNil;  // fused-select dead lane: no lookup
      } else {
        s_keynode[j] = sel.Home(j)->template Find<kWide>(
            s_bucket[j], sk.lo[j], HiWordAt<kWide>(sk, j), &work);
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(p3));
  return steps;
}

template <class Table, class Visit>
StepDef JoinPhase::MatchStep(const char* name, simcl::StepProfile profile,
                             const PhaseInput& s, Visit visit) {
  const TableSelector<Table> sel = Selector<Table>(s.part_of);
  const int32_t* s_keys = s.emit_keys;
  const int32_t* s_rids = s.rids;
  const int32_t* s_keynode = s_keynode_.data();
  StepDef p4;
  p4.name = name;
  p4.profile = profile;
  p4.items = s.items;
  p4.run = [this, sel, visit, s_keys, s_rids, s_keynode](
               const Morsel& m, DeviceId dev, uint32_t* lw) -> uint64_t {
    const uint32_t* perm = perm_.empty() ? nullptr : perm_.data();
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      const uint64_t j = perm != nullptr ? perm[i] : i;
      uint32_t work = 1;
      if (s_keynode[j] != kNil) {
        const int32_t skey = s_keys[j];
        const int32_t srid = s_rids[j];
        const uint32_t wg = WorkgroupOf(i);
        work += sel.Home(j)->ForEachRid(
            s_keynode[j], [&visit, skey, srid, dev, wg](int32_t brid) {
              visit(skey, brid, srid, dev, wg);
            });
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  return p4;
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
