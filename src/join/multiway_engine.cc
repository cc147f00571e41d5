#include "join/multiway_engine.h"

#include <array>
#include <type_traits>
#include <utility>

namespace apujoin::join {

using simcl::DeviceId;

MultiwayEngine::MultiwayEngine(simcl::SimContext* ctx,
                               std::vector<const data::Relation*> builds,
                               const data::Relation* probe, EngineOptions opts)
    : ctx_(ctx), builds_(std::move(builds)), probe_(probe), opts_(opts) {
  // Both devices probe every table; private per-device tables would need a
  // merge formulation the chain deliberately does not have.
  opts_.shared_table = true;
}

apujoin::Status MultiwayEngine::Prepare() {
  if (builds_.size() < 2 || builds_.size() > kMaxTables) {
    return apujoin::Status::InvalidArgument(
        "multiway chain takes 2..4 build tables, got " +
        std::to_string(builds_.size()));
  }
  if (probe_->key_schema == data::KeySchema::kDictString) {
    // The chain shares one hash column across all tables, but dict-string
    // canonical keys are per-(build, probe) relation pairs — each table
    // would need its own translated probe column and hash. Plan validation
    // rejects the combination up front; this guards direct engine use.
    return apujoin::Status::InvalidArgument(
        "multiway chain does not support dict-string keys (per-table "
        "dictionaries are incompatible with the shared probe hash)");
  }
  for (const data::Relation* b : builds_) {
    if (b->key_schema != probe_->key_schema) {
      return apujoin::Status::InvalidArgument(
          "multiway build and probe key schemas differ");
    }
  }
  wide_ = data::KeyIsWide(probe_->key_schema);
  if (wide_ && probe_->key_hi.size() != probe_->size()) {
    return apujoin::Status::InvalidArgument(
        "wide key schema requires a key_hi column of matching length");
  }
  engines_.clear();
  for (const data::Relation* b : builds_) {
    // Per-table bucket sizing: leave num_buckets auto so each table is
    // sized for its own relation.
    EngineOptions per_table = opts_;
    engines_.push_back(
        std::make_unique<ShjEngine>(ctx_, b, probe_, per_table));
    APU_RETURN_IF_ERROR(engines_.back()->Prepare());
  }
  const uint64_t np = probe_->size();
  s_hash_.assign(np, 0);
  s_alive_.assign(np, 0);
  s_keynode_.assign(engines_.size(), std::vector<int32_t>(np, kNil));
  return apujoin::Status::OK();
}

double MultiwayEngine::TablesWorkingSetBytes() const {
  double ws = 0.0;
  for (const auto& e : engines_) ws += e->TableWorkingSetBytes();
  return ws;
}

bool MultiwayEngine::overflowed() const {
  // relaxed: sticky flag read after the spans that may set it.
  if (overflowed_.load(std::memory_order_relaxed)) return true;
  for (const auto& e : engines_) {
    if (e->overflowed()) return true;
  }
  return false;
}

namespace {

template <class Table>
Table* HomeTable(ShjEngine* eng) {
  if constexpr (std::is_same_v<Table, HashTable>) {
    return eng->table(0);
  } else {
    return eng->open_table(0);
  }
}

}  // namespace

std::vector<StepDef> MultiwayEngine::ChainSteps(ResultWriter* out) {
  // Layout and key-width dispatch at construction scope (like the
  // single-join engines): each kernel body below is one branch-free
  // instantiation.
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    return wide_ ? ChainStepsT<OpenHashTable, true>(out)
                 : ChainStepsT<OpenHashTable, false>(out);
  }
  return wide_ ? ChainStepsT<HashTable, true>(out)
               : ChainStepsT<HashTable, false>(out);
}

template <class Table, bool kWide>
std::vector<StepDef> MultiwayEngine::ChainStepsT(ResultWriter* out) {
  const uint64_t np = probe_->size();
  const KeyView sk{probe_->key_schema, probe_->keys.data(),
                   probe_->key_hi.data()};
  const int32_t* s_rids = probe_->rids.data();
  uint32_t* s_hash = s_hash_.data();
  uint8_t* s_alive = s_alive_.data();
  const uint32_t dist = opts_.prefetch_dist;
  // Per-table views captured once: the tables and key-node columns are
  // stable after Prepare().
  std::array<Table*, kMaxTables> tables{};
  std::array<int32_t*, kMaxTables> keynodes{};
  for (int k = 0; k < num_tables(); ++k) {
    tables[k] = HomeTable<Table>(engines_[k].get());
    keynodes[k] = s_keynode_[k].data();
  }

  std::vector<StepDef> steps;
  StepDef m1;
  m1.name = "m1";
  m1.profile = HashStepProfile(data::KeyBytes(sk.schema));
  m1.items = np;
  m1.run = [sk, s_hash, s_alive](const Morsel& m, DeviceId,
                                 uint32_t* lw) -> uint64_t {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      s_hash[i] = HashKeyAt<kWide>(sk, i);
      s_alive[i] = 1;
    }
    return ConstantWork(lw, m);
  };
  steps.push_back(std::move(m1));

  for (int k = 0; k < num_tables(); ++k) {
    ShjEngine* eng = engines_[k].get();
    Table* t = tables[k];
    int32_t* keynode = keynodes[k];

    StepDef m2;
    m2.name = "m2." + std::to_string(k);
    m2.profile = HeaderVisitProfile(
        static_cast<double>(eng->options().num_buckets) * 8.0);
    m2.items = np;
    m2.run = [t, dist, s_hash, s_alive](const Morsel& m, DeviceId,
                                        uint32_t* lw) -> uint64_t {
      for (uint64_t i = m.begin; i < m.end; ++i) {
        if (dist != 0 && i + dist < m.end && s_alive[i + dist] != 0) {
          t->PrefetchBucket(t->BucketOf(s_hash[i + dist]));
        }
        if (s_alive[i] == 0) continue;
        // An empty home bucket ends the search: the key is absent.
        if (!t->VisitHeader(t->BucketOf(s_hash[i]))) s_alive[i] = 0;
      }
      return ConstantWork(lw, m);
    };
    steps.push_back(std::move(m2));

    StepDef m3;
    m3.name = "m3." + std::to_string(k);
    m3.profile = LayoutTraits<Table>::Search(eng->TableWorkingSetBytes(),
                                             opts_.locality_boost);
    m3.items = np;
    m3.run = [t, dist, sk, s_hash, s_alive, keynode](
                 const Morsel& m, DeviceId, uint32_t* lw) -> uint64_t {
      uint64_t total = 0;
      for (uint64_t i = m.begin; i < m.end; ++i) {
        if (dist != 0 && i + dist < m.end && s_alive[i + dist] != 0) {
          t->PrefetchBucket(t->BucketOf(s_hash[i + dist]));
        }
        uint32_t work = 1;
        if (s_alive[i] != 0) {
          work = 0;
          keynode[i] = t->template Find<kWide>(
              t->BucketOf(s_hash[i]), sk.lo[i], HiWordAt<kWide>(sk, i), &work);
          if (keynode[i] == kNil) s_alive[i] = 0;
        }
        total += RecordWork(lw, m, i, work);
      }
      return total;
    };
    steps.push_back(std::move(m3));
  }

  // m4: emit the cross product. Tables 0..K-2 contribute their rid-list
  // lengths as a multiplier; the last table's rids are materialized.
  const int last = num_tables() - 1;
  const int32_t* s_keys = sk.lo;
  StepDef m4;
  m4.name = "m4";
  m4.profile = EmitProfile(TablesWorkingSetBytes(), opts_.locality_boost);
  m4.items = np;
  m4.run = [this, out, tables, keynodes, s_rids, s_keys, s_alive, last](
               const Morsel& m, DeviceId dev, uint32_t* lw) -> uint64_t {
    const bool keyed = out->captures_keys();
    uint64_t total = 0;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      uint32_t work = 1;
      if (s_alive[i] != 0) {
        uint64_t prod = 1;
        for (int k = 0; k < last; ++k) {
          prod *= tables[k]->ForEachRid(keynodes[k][i], [](int32_t) {});
        }
        const int32_t srid = s_rids[i];
        const int32_t skey = s_keys[i];
        const uint32_t wg = WorkgroupOf(i);
        if (prod > 0) {
          work += tables[last]->ForEachRid(
              keynodes[last][i],
              [this, out, keyed, skey, srid, dev, wg, prod](int32_t brid) {
                for (uint64_t c = 0; c < prod; ++c) {
                  const bool ok = keyed ? out->Emit(skey, brid, srid, dev, wg)
                                        : out->Emit(brid, srid, dev, wg);
                  if (!ok) overflowed_ = true;
                }
              });
        }
      }
      total += RecordWork(lw, m, i, work);
    }
    return total;
  };
  steps.push_back(std::move(m4));
  return steps;
}

}  // namespace apujoin::join
