#include "join/result_writer.h"

#include "alloc/basic_allocator.h"
#include "alloc/block_allocator.h"

namespace apujoin::join {

ResultWriter::ResultWriter(alloc::AllocatorKind kind, uint32_t block_bytes)
    : arena_(kFirstSegment * ((uint64_t{1} << kMaxSegments) - 1),
             /*elem_bytes=*/8) {
  if (kind == alloc::AllocatorKind::kBasic) {
    alloc_ = std::make_unique<alloc::BasicAllocator>(&arena_);
  } else {
    alloc_ = std::make_unique<alloc::BlockAllocator>(&arena_, block_bytes);
  }
}

ResultWriter::~ResultWriter() { FreeSegments(); }

int32_t* ResultWriter::Claim(simcl::DeviceId dev, uint32_t workgroup,
                             uint64_t* off, uint64_t* size) {
  // The arena spans the whole directory, so the reservation cannot fail.
  const auto slot =
      static_cast<uint64_t>(alloc_->Allocate(1, dev, workgroup));
  const int k = SegmentOf(slot);
  *off = slot - SegmentBase(k);
  *size = SegmentSize(k);
  // acquire: pairs with Grow's release, so the segment's marker fill
  // happens-before this emit's writes into it.
  int32_t* seg = segments_[k].load(std::memory_order_acquire);
  return seg != nullptr ? seg : Grow(k);
}

int32_t* ResultWriter::Grow(int k) {
  annotated::MutexLock lock(grow_mu_);
  // relaxed: grow_mu_ orders this re-check after any earlier grower's
  // publication of the same segment.
  int32_t* seg = segments_[k].load(std::memory_order_relaxed);
  if (seg != nullptr) return seg;
  const uint64_t size = SegmentSize(k);
  seg = new int32_t[(keyed_ ? 3 : 2) * size];
  std::fill(seg, seg + size, -1);
  // release: publishes the marker fill with the pointer (see Claim).
  segments_[k].store(seg, std::memory_order_release);
  return seg;
}

void ResultWriter::Emit(int32_t build_rid, int32_t probe_rid,
                        simcl::DeviceId dev, uint32_t workgroup) {
  uint64_t off = 0;
  uint64_t size = 0;
  int32_t* seg = Claim(dev, workgroup, &off, &size);
  seg[off] = build_rid;
  seg[size + off] = probe_rid;
  // relaxed: statistics counter — readers of the pairs themselves
  // synchronise through the span barrier, not through emitted_.
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

void ResultWriter::Emit(int32_t key, int32_t build_rid, int32_t probe_rid,
                        simcl::DeviceId dev, uint32_t workgroup) {
  uint64_t off = 0;
  uint64_t size = 0;
  int32_t* seg = Claim(dev, workgroup, &off, &size);
  seg[off] = build_rid;
  seg[size + off] = probe_rid;
  seg[2 * size + off] = key;
  // relaxed: statistics counter — readers of the pairs themselves
  // synchronise through the span barrier, not through emitted_.
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

void ResultWriter::CaptureKeys() {
  // Segments allocated so far (none before the first Emit, unless a Reset
  // kept them) lack the key column.
  FreeSegments();
  keyed_ = true;
}

std::vector<std::pair<int32_t, int32_t>> ResultWriter::CollectPairs() const {
  std::vector<std::pair<int32_t, int32_t>> out;
  out.reserve(count());
  ForEachRun(0, used_slots(),
             [&out](uint64_t, uint64_t n, const int32_t* build,
                    const int32_t* probe, const int32_t*) {
               if (build == nullptr) return;
               for (uint64_t i = 0; i < n; ++i) {
                 if (build[i] >= 0) out.emplace_back(build[i], probe[i]);
               }
             });
  return out;
}

void ResultWriter::Reset() {
  arena_.Reset();
  alloc_->Reset();
  for (int k = 0; k < kMaxSegments; ++k) {
    // relaxed: Reset runs only between spans, on a quiesced writer.
    int32_t* seg = segments_[k].load(std::memory_order_relaxed);
    if (seg != nullptr) std::fill(seg, seg + SegmentSize(k), -1);
  }
  // relaxed: Reset runs only between spans, on a quiesced writer.
  emitted_.store(0, std::memory_order_relaxed);
}

void ResultWriter::FreeSegments() {
  for (auto& s : segments_) {
    // relaxed: called on a quiesced writer (construction-time CaptureKeys
    // or destruction); no kernel can hold the pointer.
    delete[] s.exchange(nullptr, std::memory_order_relaxed);
  }
}

}  // namespace apujoin::join
