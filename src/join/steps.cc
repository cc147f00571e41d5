#include "join/steps.h"

#include <utility>

#include "util/murmur_hash.h"

namespace apujoin::join {

using simcl::StepProfile;

PartClock::PartClock(std::vector<std::string> names)
    : names_(std::move(names)),
      ns_(std::make_unique<std::atomic<uint64_t>[]>(names_.size())) {}

void PartClock::Add(const uint64_t* ns) {
  for (size_t k = 0; k < names_.size(); ++k) {
    // relaxed: commutative sums of lap times, taken only after the spans
    // that add them have joined their workers.
    ns_[k].fetch_add(ns[k], std::memory_order_relaxed);
  }
}

std::vector<uint64_t> PartClock::Take() {
  std::vector<uint64_t> out(names_.size());
  for (size_t k = 0; k < names_.size(); ++k) {
    // relaxed: no span is running (see Add).
    out[k] = ns_[k].exchange(0, std::memory_order_relaxed);
  }
  return out;
}

StepProfile HashStepProfile(double key_bytes) {
  StepProfile p;
  // Murmur (~14 ALU ops) + key load + hash/bucket store; heavily
  // compute-bound, which is why the GPU wins it by >15x (Figure 4).
  p.instr_per_unit = 46.0;
  // Read the key words, write hash+bucket (8B).
  p.seq_bytes_per_item = key_bytes + 8.0;
  return p;
}

StepProfile HeaderVisitProfile(double header_bytes) {
  StepProfile p;
  p.instr_per_unit = 10.0;
  p.rand_accesses_per_unit = 1.0;
  p.rand_working_set_bytes = header_bytes;
  p.dependent_accesses = false;
  p.seq_bytes_per_item = 8.0;  // read hash, write head/count snapshot
  return p;
}

StepProfile KeyInsertProfile(double table_bytes, double locality_boost) {
  StepProfile p;
  p.instr_per_unit = 18.0;
  p.rand_accesses_per_unit = 1.0;  // one node visit per traversed node
  p.rand_working_set_bytes = table_bytes;
  p.dependent_accesses = true;  // next pointer known only after the load
  p.locality_boost = locality_boost;
  p.global_atomics_per_unit = 0.9;  // CAS on head + count bookkeeping
  p.atomic_addresses = table_bytes / 8.0;  // spread over the buckets
  return p;
}

StepProfile KeySearchProfile(double table_bytes, double locality_boost) {
  StepProfile p;
  p.instr_per_unit = 14.0;
  p.rand_accesses_per_unit = 1.0;
  p.rand_working_set_bytes = table_bytes;
  p.dependent_accesses = true;
  p.locality_boost = locality_boost;
  return p;
}

StepProfile RidInsertProfile(double table_bytes) {
  StepProfile p;
  p.instr_per_unit = 12.0;
  p.rand_accesses_per_unit = 1.0;  // rid node write + head CAS line
  p.rand_working_set_bytes = table_bytes;
  p.dependent_accesses = false;
  p.global_atomics_per_unit = 1.0;  // rid-list head CAS
  p.atomic_addresses = table_bytes / 16.0;
  return p;
}

StepProfile EmitProfile(double table_bytes, double locality_boost) {
  StepProfile p;
  p.instr_per_unit = 12.0;
  p.rand_accesses_per_unit = 1.0;  // rid-node chase / build-tuple visit
  p.rand_working_set_bytes = table_bytes;
  p.dependent_accesses = true;
  p.locality_boost = locality_boost;
  p.seq_bytes_per_unit = 8.0;  // result pair written via the block writer
  return p;
}

StepProfile OpenKeyInsertProfile(double table_bytes, double locality_boost) {
  StepProfile p;
  p.instr_per_unit = 16.0;
  p.rand_accesses_per_unit = 1.0;  // one bucket line per probed bucket
  p.rand_working_set_bytes = table_bytes;
  // The bucket address is hash-derived, not loaded: probes of consecutive
  // tuples overlap, unlike the chained layout's serialized node chases.
  p.dependent_accesses = false;
  p.locality_boost = locality_boost;
  p.global_atomics_per_unit = 0.5;  // lock only on first insert of a key
  p.atomic_addresses = table_bytes / 8.0;
  return p;
}

StepProfile OpenKeySearchProfile(double table_bytes, double locality_boost) {
  StepProfile p;
  p.instr_per_unit = 8.0;  // SIMD compare folds 8 slot tests into one
  p.rand_accesses_per_unit = 1.0;
  p.rand_working_set_bytes = table_bytes;
  p.dependent_accesses = false;
  p.locality_boost = locality_boost;
  return p;
}

StepProfile SelectEvalProfile(double tuple_bytes) {
  StepProfile p;
  // Compare + flag store over a sequential column scan; bandwidth-bound
  // like n1, far cheaper than the hash steps.
  p.instr_per_unit = 6.0;
  p.seq_bytes_per_item = tuple_bytes + 1.0;  // read tuple, write flag (1B)
  return p;
}

StepProfile SelectCompactProfile(double output_bytes, double tuple_bytes) {
  StepProfile p;
  p.instr_per_unit = 10.0;
  // One scattered pair store per *passing* tuple (work unit), cursor
  // claimed via a shared atomic.
  p.rand_accesses_per_unit = 1.0;
  p.rand_working_set_bytes = output_bytes;
  p.dependent_accesses = false;
  p.global_atomics_per_unit = 1.0;  // output-cursor fetch_add
  p.atomic_addresses = 1.0;         // single shared cursor word
  p.seq_bytes_per_item = tuple_bytes + 1.0;  // re-read tuple + flag
  return p;
}

StepProfile SelectFlagProfile(double tuple_bytes) {
  StepProfile p;
  // The same compare as f1 plus the flag store; the survivor count folds
  // into one shared-cursor add per morsel, so no per-item atomics.
  p.instr_per_unit = 6.0;
  p.seq_bytes_per_item = tuple_bytes + 1.0;  // read tuple, write flag (1B)
  return p;
}

StepProfile GroupAggProfile(double table_bytes) {
  StepProfile p;
  // Murmur over the group key + slot probe + aggregate atomic.
  p.instr_per_unit = 24.0;
  p.rand_accesses_per_unit = 1.0;  // hash-derived slot line
  p.rand_working_set_bytes = table_bytes;
  p.dependent_accesses = false;  // open addressing: address from the hash
  p.global_atomics_per_unit = 1.5;  // slot CAS (amortized) + value atomic
  p.atomic_addresses = table_bytes / 16.0;
  p.seq_bytes_per_item = 12.0;  // read key + value of the result tuple
  return p;
}

StepProfile FusedEmitAggProfile(double table_bytes, double group_bytes,
                                double locality_boost) {
  StepProfile p;
  // p4's rid-node chase plus g1's group hash + slot claim + value atomic.
  // What fusion removes from the unfused pair of steps: p4's 8B/unit
  // sequential result-pair store and g1's 12B/item re-read of that pair.
  p.instr_per_unit = 30.0;
  p.rand_accesses_per_unit = 1.0;
  // The chase touches both the join table and the group table.
  p.rand_working_set_bytes = table_bytes + group_bytes;
  p.dependent_accesses = true;  // next rid node known only after the load
  p.locality_boost = locality_boost;
  p.global_atomics_per_unit = 1.5;  // slot CAS (amortized) + value atomic
  p.atomic_addresses = group_bytes / 16.0;
  return p;
}

StepProfile PartitionHeaderProfile(double header_bytes) {
  StepProfile p;
  p.instr_per_unit = 10.0;
  p.rand_accesses_per_unit = 1.0;
  p.rand_working_set_bytes = header_bytes;
  p.dependent_accesses = false;
  return p;
}

StepProfile ScatterProfile(double open_region_bytes, double pair_bytes) {
  StepProfile p;
  p.instr_per_unit = 12.0;
  // Scattered store: random within the set of open partition regions
  // (one cache line per partition stays hot).
  p.rand_accesses_per_unit = 1.0;
  p.rand_working_set_bytes = open_region_bytes;
  p.dependent_accesses = false;
  p.seq_bytes_per_item = pair_bytes;  // the <key, rid> tuple itself
  return p;
}

}  // namespace apujoin::join
