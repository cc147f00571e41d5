// Test-only fan-out inputs: every probe key matches many build rows, so a
// join's result is far larger than its probe side. The entry-point tests
// run them without telling the join its match count.

#ifndef APUJOIN_TESTS_FAN_OUT_H_
#define APUJOIN_TESTS_FAN_OUT_H_

#include <cstdint>

#include "data/generator.h"
#include "data/relation.h"

namespace apujoin::data {

/// `rows` tuples over keys 0..keys-1 (row i has key i % keys, rid
/// `rid_base + i`), so each key repeats rows / keys times.
inline Relation CyclicKeys(uint32_t rows, uint32_t keys,
                           int32_t rid_base = 0) {
  Relation r;
  for (uint32_t i = 0; i < rows; ++i) {
    r.Append(static_cast<int32_t>(i % keys),
             rid_base + static_cast<int32_t>(i));
  }
  return r;
}

/// The default fan-out: 65,536 build rows over 256 keys, 4,096 probes,
/// so 2^20 matches — 256 per probe tuple. The workload's expected count is
/// the FK guess (one per probe) a caller without statistics would make.
inline Workload FanOutWorkload(uint32_t build_rows = 1 << 16,
                               uint32_t keys = 256,
                               uint32_t probes = 1 << 12) {
  Workload w;
  w.build = CyclicKeys(build_rows, keys);
  w.probe = CyclicKeys(probes, keys);
  w.spec.build_tuples = build_rows;
  w.spec.probe_tuples = probes;
  w.expected_matches = probes;
  return w;
}

}  // namespace apujoin::data

#endif  // APUJOIN_TESTS_FAN_OUT_H_
