// The benchmark's fixed external floor and its scalar group-by oracle.
//
// The floor is the naive single-threaded join every engine number is
// compared against: a std::unordered_map from key to build rids, probed
// tuple by tuple, materializing every result pair (the shape of the
// `run_standard_hash_join` exemplar). It runs over the same canonical keys
// the engine sees, so its answer is checked against the same oracles.
//
// The group-by oracle is deliberately hash-free (sort + binary search), so
// a hashing bug shared by the engine and the floor cannot hide in both.

#ifndef APUJOIN_BENCHMARK_FLOOR_H_
#define APUJOIN_BENCHMARK_FLOOR_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "join/group_row.h"

namespace apujoin::benchmark {

/// One materialized result pair of the floor join.
struct FloorPair {
  int32_t build_rid = 0;
  int32_t probe_rid = 0;
};

/// build ⋈ probe on key equality: every pair, in probe order. Handles the
/// U32, U64 and composite key schemas (not dictionary strings).
std::vector<FloorPair> FloorJoin(const data::Relation& build,
                                 const data::Relation& probe);

/// SELECT key, SUM(probe rid), COUNT(*) FROM build ⋈ (probe WHERE rid <
/// rid_limit) GROUP BY key, through the same unordered_map join; groups
/// sorted by key. U32 keys only.
std::vector<join::GroupRow> FloorFilterJoinSum(const data::Relation& build,
                                               const data::Relation& probe,
                                               int32_t rid_limit);

/// The same query as FloorFilterJoinSum, answered by sorting the build keys
/// and binary-searching each surviving probe key.
std::vector<join::GroupRow> OracleFilterJoinSum(const data::Relation& build,
                                                const data::Relation& probe,
                                                int32_t rid_limit);

}  // namespace apujoin::benchmark

#endif  // APUJOIN_BENCHMARK_FLOOR_H_
