// The join phase shared by SHJ (Algorithm 1) and PHJ (Algorithm 2): the
// fine-grained build series b1..b4 and probe series p1..p3 + p4 (emit) or
// p4g (fused probe+aggregate), written once.
//
// PHJ's join phase *is* SHJ per partition: each tuple addresses its own
// partition's table and hashes with the bits above the radix bits. So one
// body serves both, parameterized by
//   - the table type (HashTable or OpenHashTable — one concept, see
//     hash_table.h) and the key width, both fixed at StepDef construction;
//   - a table selector: SHJ's single table (or per-device pair under
//     separate tables), or PHJ's per-partition tables via `part_of`;
//   - the hash shift (0, or the partition bits);
//   - an optional fused-select filter (PHJ pushes filters into its radix
//     partitioner and passes none);
//   - the working-set and header bytes the step profiles are priced with.
//
// The body owns the per-tuple intermediate state (hash values, bucket ids,
// key-node / slot ids — the "pipeline registers" between steps), the probe
// grouping permutation and the tables; engines supply inputs and sizing.

#ifndef APUJOIN_JOIN_JOIN_PHASE_H_
#define APUJOIN_JOIN_JOIN_PHASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "join/hash_table.h"
#include "join/open_hash_table.h"
#include "join/options.h"
#include "join/result_writer.h"
#include "join/steps.h"
#include "simcl/context.h"
#include "util/murmur_hash.h"
#include "util/status.h"

namespace apujoin::join {

class GroupByEngine;

/// Per-layout step pricing.
template <class Table>
struct LayoutTraits;

template <>
struct LayoutTraits<HashTable> {
  /// Header-visit bytes per bucket (key-list head + tuple count).
  static constexpr double kHeaderBytes = 8.0;
  static simcl::StepProfile Insert(double ws, double boost) {
    return KeyInsertProfile(ws, boost);
  }
  static simcl::StepProfile Search(double ws, double boost) {
    return KeySearchProfile(ws, boost);
  }
};

template <>
struct LayoutTraits<OpenHashTable> {
  /// Header-visit bytes per bucket (the state word).
  static constexpr double kHeaderBytes = 4.0;
  static simcl::StepProfile Insert(double ws, double boost) {
    return OpenKeyInsertProfile(ws, boost);
  }
  static simcl::StepProfile Search(double ws, double boost) {
    return OpenKeySearchProfile(ws, boost);
  }
};

/// Hash of item i's canonical key (MurmurHash over one or two words).
template <bool kWide>
inline uint32_t HashKeyAt(const KeyView& k, uint64_t i) {
  if constexpr (kWide) {
    return MurmurHash2x8(data::PackKeyPair(k.lo[i], k.hi[i]));
  } else {
    return MurmurHash2x4(static_cast<uint32_t>(k.lo[i]));
  }
}

/// Item i's secondary key word (0 for narrow keys, which have none).
template <bool kWide>
inline int32_t HiWordAt(const KeyView& k, uint64_t i) {
  if constexpr (kWide) {
    return k.hi[i];
  } else {
    return 0;
  }
}

/// One layout's tables: a home table per partition (SHJ has one
/// partition) and, in separate-table mode, a GPU-private copy of each.
template <class Table>
struct TableSet {
  std::vector<std::unique_ptr<Table>> home;
  std::vector<std::unique_ptr<Table>> gpu;
};

/// Which table a kernel addresses for tuple i.
template <class Table>
struct TableSelector {
  const std::unique_ptr<Table>* home = nullptr;
  const std::unique_ptr<Table>* gpu = nullptr;  // null: shared tables
  const uint32_t* part_of = nullptr;            // null: partition 0

  uint32_t Part(uint64_t i) const {
    return part_of != nullptr ? part_of[i] : 0;
  }
  /// The table the probe reads (separate tables are merged into it).
  Table* Home(uint64_t i) const { return home[Part(i)].get(); }
  /// The table a build kernel on `dev` inserts keys into.
  Table* For(uint64_t i, simcl::DeviceId dev) const {
    const bool private_gpu = gpu != nullptr && dev == simcl::DeviceId::kGpu;
    return (private_gpu ? gpu : home)[Part(i)].get();
  }
  /// The table b4 links the rid of `slot` into: the one whose b3 returned
  /// the slot, whichever device b3 ran on (OL/PL may split b3 and b4).
  Table* Holding(uint64_t i, simcl::DeviceId dev, int32_t slot) const {
    Table* t = For(i, dev);
    if (gpu == nullptr || t->HoldsSlot(slot)) return t;
    return For(i, dev == simcl::DeviceId::kGpu ? simcl::DeviceId::kCpu
                                               : simcl::DeviceId::kGpu);
  }
};

/// One side (build or probe) of the join phase, as an engine supplies it.
struct PhaseInput {
  uint64_t items = 0;                  // tuples the series runs over
  KeyView key;                         // canonical key words
  const int32_t* rids = nullptr;
  const int32_t* emit_keys = nullptr;  // probe: key reported per match
  const uint8_t* filter = nullptr;     // fused-select flags (null = all)
  const uint32_t* part_of = nullptr;   // tuple -> partition (null = one)
  uint32_t shift = 0;                  // hash bits consumed by partitioning
  double table_bytes = 0.0;            // working set of b3/b4/p3/p4
  double header_bytes = 0.0;           // working set of b2/p2
};

/// Validates that `build` and `probe` share a key schema with complete key
/// words, and returns the relations the join phase reads keys from: the
/// inputs themselves, or — for dict-string keys — `r_canon`/`s_canon`,
/// filled with canonical words (keys = low32(Murmur64(string)), key_hi =
/// build-side dictionary code, probe codes translated once per dictionary
/// entry; rids are left empty). Wide schemas require shared tables (the
/// separate-table merge is U32-only).
apujoin::Status ResolveJoinKeys(const data::Relation& build,
                                const data::Relation& probe,
                                bool shared_table, data::Relation* r_canon,
                                data::Relation* s_canon,
                                const data::Relation** r_keys,
                                const data::Relation** s_keys);

/// Node pools for `build_tuples` live build rows: key nodes with slack for
/// lost CAS races and stranded allocator blocks (a vestigial 64 under the
/// open layout, which keeps keys inline), rid nodes likewise, and double
/// headroom for separate tables — the post-build merge re-allocates every
/// node it moves, exactly like the real kernel.
std::unique_ptr<NodePools> MakeJoinPools(uint64_t build_tuples,
                                         const EngineOptions& opts,
                                         bool wide);

/// The join-phase body plus its state. One instance per engine.
class JoinPhase {
 public:
  JoinPhase(simcl::SimContext* ctx, const EngineOptions& opts)
      : ctx_(ctx), opts_(opts) {}

  /// Sizes the per-tuple arrays.
  void Resize(uint64_t build_items, uint64_t probe_items);

  /// Creates one home table per entry of `buckets` (plus GPU-private
  /// copies in separate-table mode) in the layout the options select.
  void MakeTables(const std::vector<uint32_t>& buckets, NodePools* pools,
                  bool wide);

  std::vector<StepDef> BuildSteps(const PhaseInput& r);
  std::vector<StepDef> ProbeSteps(const PhaseInput& s, ResultWriter* out);
  std::vector<StepDef> ProbeStepsFused(const PhaseInput& s,
                                       GroupByEngine* agg);

  /// Separate-table mode: merges every GPU-private table into its home
  /// table. Returns {keys, rids} moved.
  std::pair<uint64_t, uint64_t> MergeSeparateTables(uint32_t shift);

  /// Home table of `part` (or its GPU copy), nullptr if absent.
  template <class Table>
  Table* table(uint32_t part, bool gpu = false) const {
    const auto& v = gpu ? tables<Table>().gpu : tables<Table>().home;
    return part < v.size() ? v[part].get() : nullptr;
  }

  bool overflowed() const {
    // relaxed: sticky flag read after the spans that may set it.
    return overflowed_.load(std::memory_order_relaxed);
  }
  const std::vector<uint32_t>& probe_permutation() const { return perm_; }

 private:
  bool open() const {
    return opts_.layout == exec::HashLayout::kOpenAddressing;
  }
  template <class Table>
  const TableSet<Table>& tables() const {
    if constexpr (std::is_same_v<Table, HashTable>) {
      return chained_;
    } else {
      return open_;
    }
  }
  template <class Table>
  TableSelector<Table> Selector(const uint32_t* part_of) const {
    const TableSet<Table>& t = tables<Table>();
    return {t.home.data(), t.gpu.empty() ? nullptr : t.gpu.data(), part_of};
  }

  template <bool kWide>
  StepDef HashStep(const char* name, const PhaseInput& in, uint32_t* hash);
  template <class Table, bool kWide>
  std::vector<StepDef> BuildSeries(const PhaseInput& r);
  template <class Table, bool kWide>
  std::vector<StepDef> ProbeSeries(const PhaseInput& s);
  /// p4 / p4g: walks every match's rid list, handing
  /// `visit(probe key, build rid, probe rid, dev, workgroup)` each match.
  template <class Table, class Visit>
  StepDef MatchStep(const char* name, simcl::StepProfile profile,
                    const PhaseInput& s, Visit visit);
  /// Calls fn(Table*, std::bool_constant<kWide>) for the configured layout
  /// and key width — the one schema/layout dispatch.
  template <class Fn>
  auto Dispatch(bool wide, Fn&& fn);

  void BuildProbePermutation(uint64_t begin, uint64_t end, uint64_t n);

  simcl::SimContext* ctx_;
  EngineOptions opts_;
  TableSet<HashTable> chained_;
  TableSet<OpenHashTable> open_;
  std::atomic<bool> overflowed_{false};  // kernels may set it concurrently

  std::vector<uint32_t> r_hash_, s_hash_;
  std::vector<uint32_t> r_bucket_, s_bucket_;
  std::vector<int32_t> r_keynode_, s_keynode_;  // key nodes or slot ids
  std::vector<int32_t> s_count_;  // p2 workload estimate (grouping input)
  std::vector<uint32_t> perm_;    // probe grouping permutation
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_JOIN_PHASE_H_
