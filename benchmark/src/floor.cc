#include "floor.h"

#include <algorithm>
#include <unordered_map>

#include "util/status.h"

namespace apujoin::benchmark {

namespace {

/// Canonical 64-bit key of tuple i: the zero-extended U32 key, or the
/// packed (lo, hi) words of a wide schema.
uint64_t CanonicalKey(const data::Relation& r, uint64_t i) {
  return data::KeyIsWide(r.key_schema)
             ? data::PackKeyPair(r.keys[i], r.key_hi[i])
             : static_cast<uint32_t>(r.keys[i]);
}

using RidIndex = std::unordered_map<uint64_t, std::vector<int32_t>>;

RidIndex BuildIndex(const data::Relation& build) {
  APU_CHECK(build.key_schema != data::KeySchema::kDictString);
  RidIndex index;
  index.reserve(build.size() * 2);
  for (uint64_t i = 0; i < build.size(); ++i) {
    index[CanonicalKey(build, i)].push_back(build.rids[i]);
  }
  return index;
}

void SortByKey(std::vector<join::GroupRow>* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const join::GroupRow& a, const join::GroupRow& b) {
              return a.key < b.key;
            });
}

}  // namespace

std::vector<FloorPair> FloorJoin(const data::Relation& build,
                                 const data::Relation& probe) {
  APU_CHECK(probe.key_schema == build.key_schema);
  const RidIndex index = BuildIndex(build);
  std::vector<FloorPair> out;
  out.reserve(probe.size());
  for (uint64_t i = 0; i < probe.size(); ++i) {
    const auto it = index.find(CanonicalKey(probe, i));
    if (it == index.end()) continue;
    for (const int32_t rid : it->second) {
      out.push_back(FloorPair{rid, probe.rids[i]});
    }
  }
  return out;
}

std::vector<join::GroupRow> FloorFilterJoinSum(const data::Relation& build,
                                               const data::Relation& probe,
                                               int32_t rid_limit) {
  APU_CHECK(build.key_schema == data::KeySchema::kU32 &&
            probe.key_schema == data::KeySchema::kU32);
  const RidIndex index = BuildIndex(build);
  std::unordered_map<int32_t, join::GroupRow> groups;
  for (uint64_t i = 0; i < probe.size(); ++i) {
    if (probe.rids[i] >= rid_limit) continue;
    const auto it = index.find(CanonicalKey(probe, i));
    if (it == index.end()) continue;
    join::GroupRow& g = groups[probe.keys[i]];
    g.key = probe.keys[i];
    for (size_t m = 0; m < it->second.size(); ++m) {
      g.value += probe.rids[i];
      ++g.count;
    }
  }
  std::vector<join::GroupRow> rows;
  rows.reserve(groups.size());
  for (const auto& [key, row] : groups) rows.push_back(row);
  SortByKey(&rows);
  return rows;
}

std::vector<join::GroupRow> OracleFilterJoinSum(const data::Relation& build,
                                                const data::Relation& probe,
                                                int32_t rid_limit) {
  APU_CHECK(build.key_schema == data::KeySchema::kU32 &&
            probe.key_schema == data::KeySchema::kU32);
  std::vector<int32_t> keys = build.keys;
  std::sort(keys.begin(), keys.end());
  // One row per matching probe tuple (its key, its rid times the build
  // multiplicity), then a sort-and-merge by key.
  std::vector<join::GroupRow> hits;
  for (uint64_t i = 0; i < probe.size(); ++i) {
    if (probe.rids[i] >= rid_limit) continue;
    const auto [lo, hi] =
        std::equal_range(keys.begin(), keys.end(), probe.keys[i]);
    const auto mult = static_cast<uint64_t>(hi - lo);
    if (mult == 0) continue;
    hits.push_back(join::GroupRow{
        probe.keys[i], static_cast<int64_t>(mult) * probe.rids[i], mult});
  }
  SortByKey(&hits);
  std::vector<join::GroupRow> rows;
  for (const join::GroupRow& h : hits) {
    if (rows.empty() || rows.back().key != h.key) {
      rows.push_back(h);
    } else {
      rows.back().value += h.value;
      rows.back().count += h.count;
    }
  }
  return rows;
}

}  // namespace apujoin::benchmark
