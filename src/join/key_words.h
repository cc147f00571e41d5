// Per-item canonical key access for kernel bodies that hash or compare
// keys: the join phase, the radix partitioner and the coarse-grained pair
// join. Each is written once per key width: narrow (U32) reads the primary
// word only, wide schemas add the secondary word (data/key_schema.h).

#ifndef APUJOIN_JOIN_KEY_WORDS_H_
#define APUJOIN_JOIN_KEY_WORDS_H_

#include <cstdint>

#include "data/key_schema.h"
#include "util/murmur_hash.h"

namespace apujoin::join {

/// Hash of item i's canonical key (MurmurHash over one or two words).
template <bool kWide>
inline uint32_t HashKeyAt(const data::KeyView& k, uint64_t i) {
  if constexpr (kWide) {
    return MurmurHash2x8(data::PackKeyPair(k.lo[i], k.hi[i]));
  } else {
    return MurmurHash2x4(static_cast<uint32_t>(k.lo[i]));
  }
}

/// Item i's secondary key word (0 for narrow keys, which have none).
template <bool kWide>
inline int32_t HiWordAt(const data::KeyView& k, uint64_t i) {
  if constexpr (kWide) {
    return k.hi[i];
  } else {
    return 0;
  }
}

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_KEY_WORDS_H_
