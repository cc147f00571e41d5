// Join-result output buffer (the third dynamic-allocation site of Section
// 3.3). Result pairs <build rid, probe rid> are appended through the
// software allocator, so output traffic participates in the latch/block-size
// experiments exactly like key/rid node allocation.
//
// The paper carves results from one pre-allocated array because OpenCL
// kernels cannot malloc. Here the allocator's index space is unbounded in
// practice and the columns grow behind it: slot indices map onto a fixed
// directory of geometrically growing segments (64Ki slots first, each later
// segment twice the previous one), and the first emit that reaches a
// segment allocates it. Nothing is sized from a guess, and no emit fails.

#ifndef APUJOIN_JOIN_RESULT_WRITER_H_
#define APUJOIN_JOIN_RESULT_WRITER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/arena.h"
#include "util/annotated_mutex.h"

namespace apujoin::join {

/// Unbounded result buffer with allocator-mediated appends.
class ResultWriter {
 public:
  ResultWriter(alloc::AllocatorKind kind, uint32_t block_bytes);
  ~ResultWriter();
  ResultWriter(const ResultWriter&) = delete;
  ResultWriter& operator=(const ResultWriter&) = delete;

  /// Appends one result pair. Safe to call concurrently from any kernel.
  void Emit(int32_t build_rid, int32_t probe_rid, simcl::DeviceId dev,
            uint32_t workgroup);

  /// Keyed append: also stores the join key alongside the pair, for
  /// downstream operators (group-by) that aggregate the join output.
  /// Only valid after CaptureKeys().
  void Emit(int32_t key, int32_t build_rid, int32_t probe_rid,
            simcl::DeviceId dev, uint32_t workgroup);

  /// Adds the key column so keyed Emit calls may store the join key.
  /// Must be called before the first Emit (typically right after
  /// construction, when a plan has a consumer downstream of the join).
  void CaptureKeys();
  bool captures_keys() const { return keyed_; }

  /// Number of result pairs emitted (block over-reservation excluded).
  uint64_t count() const { return emitted_.load(std::memory_order_relaxed); }

  /// Gathers the emitted pairs (slot order is not deterministic across
  /// allocator kinds; unclaimed block-remainder slots are skipped).
  std::vector<std::pair<int32_t, int32_t>> CollectPairs() const;

  /// Slots the allocator handed out: [0, used_slots()) covers every
  /// emitted pair plus the unclaimed remainders of reserved blocks.
  uint64_t used_slots() const { return arena_.used(); }

  /// Raw-column walk for downstream operator kernels (group-by): calls
  /// fn(first, n, build, probe, key) once per run of slots [first, first +
  /// n) of [begin, end) that lies in one segment, the column pointers
  /// addressing slot `first`. Slots with build[i] < 0 are unclaimed block
  /// remainders and must be skipped; a segment no emit reached has no
  /// columns at all (build == nullptr: every slot of the run is unclaimed).
  /// `key` is nullptr unless CaptureKeys() was called. Call after the
  /// emitting series completed.
  template <class Fn>
  void ForEachRun(uint64_t begin, uint64_t end, Fn&& fn) const {
    while (begin < end) {
      const int k = SegmentOf(begin);
      const uint64_t size = SegmentSize(k);
      const uint64_t off = begin - SegmentBase(k);
      const uint64_t n = std::min(end - begin, size - off);
      // acquire: pairs with Grow's release publication, so the marker fill
      // of a segment another thread allocated is visible here.
      const int32_t* seg = segments_[k].load(std::memory_order_acquire);
      if (seg == nullptr) {
        fn(begin, n, nullptr, nullptr, nullptr);
      } else {
        fn(begin, n, seg + off, seg + size + off,
           keyed_ ? seg + 2 * size + off : nullptr);
      }
      begin += n;
    }
  }

  alloc::AllocCounts TakeCounts() { return alloc_->TakeCounts(); }

  /// Forgets every pair (segments are kept and re-marked unwritten).
  void Reset();

  /// Slots in the first segment; segment k holds kFirstSegment << k.
  static constexpr uint64_t kFirstSegment = uint64_t{1} << 16;

 private:
  /// Directory size. Its reach, kFirstSegment * (2^kMaxSegments - 1)
  /// slots, is the arena's capacity: 2^48 pairs, which no join's memory
  /// can hold, so a reservation never runs out.
  static constexpr int kMaxSegments = 32;

  static int SegmentOf(uint64_t slot) {
    return 63 - __builtin_clzll(slot / kFirstSegment + 1);
  }
  static uint64_t SegmentBase(int k) {
    return ((uint64_t{1} << k) - 1) * kFirstSegment;
  }
  static uint64_t SegmentSize(int k) { return kFirstSegment << k; }

  /// Reserves one slot through the allocator and returns the column block
  /// of its segment (allocated on first use), the slot's offset inside the
  /// block and the segment's size.
  int32_t* Claim(simcl::DeviceId dev, uint32_t workgroup, uint64_t* off,
                 uint64_t* size);
  /// Slow path: allocates, marks and publishes segment k.
  int32_t* Grow(int k);
  void FreeSegments();

  alloc::Arena arena_;
  std::unique_ptr<alloc::Allocator> alloc_;
  bool keyed_ = false;
  annotated::Mutex grow_mu_;
  /// Segment k is one block of SegmentSize(k) slots per column: build
  /// rids (-1 marks an unwritten slot), probe rids, then keys if keyed_.
  std::atomic<int32_t*> segments_[kMaxSegments] = {};
  std::atomic<uint64_t> emitted_{0};
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_RESULT_WRITER_H_
