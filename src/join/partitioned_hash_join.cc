#include "join/partitioned_hash_join.h"

#include <algorithm>

namespace apujoin::join {

PhjEngine::PhjEngine(simcl::SimContext* ctx, const data::Relation* build,
                     const data::Relation* probe, EngineOptions opts)
    : ctx_(ctx), build_(build), probe_(probe), opts_(opts), phase_(ctx, opts) {}

apujoin::Status PhjEngine::Prepare() {
  if (build_->empty() || probe_->empty()) {
    return apujoin::Status::InvalidArgument("empty relation");
  }
  APU_RETURN_IF_ERROR(ResolveJoinKeys(*build_, *probe_, opts_.shared_table,
                                      &r_canon_, &s_canon_, &part_in_r_,
                                      &part_in_s_));
  if (part_in_r_ == &r_canon_) {
    // The partitioners scatter <key, rid> pairs: the canonical copies
    // carry the rids along.
    r_canon_.rids = build_->rids;
    s_canon_.rids = probe_->rids;
  }
  const uint64_t nb = build_->size();
  const uint64_t np = probe_->size();
  // A fused-select filter compacts pass 0 down to its survivors: plan the
  // radix layout (passes, partition count) and size the node pools from
  // that count, exactly as an unfused plan would after materializing the
  // filtered relation.
  const uint64_t nb_live = build_card_ != 0 ? std::min(build_card_, nb) : nb;
  plan_ = RadixPlan::Make(nb_live, np, ctx_->memory().spec().l2_bytes,
                          opts_);
  part_r_ =
      std::make_unique<RadixPartitioner>(ctx_, part_in_r_, plan_, opts_);
  part_s_ =
      std::make_unique<RadixPartitioner>(ctx_, part_in_s_, plan_, opts_);
  APU_RETURN_IF_ERROR(part_r_->Prepare());
  APU_RETURN_IF_ERROR(part_s_->Prepare());
  pools_ = MakeJoinPools(nb_live, opts_, data::KeyIsWide(key_schema()));
  return apujoin::Status::OK();
}

apujoin::Status PhjEngine::PrepareJoinPhase() {
  const auto& off_r = part_r_->offsets();
  const auto& off_s = part_s_->offsets();
  if (off_r.empty() || off_s.empty()) {
    return apujoin::Status::FailedPrecondition(
        "partitioning must complete before the join phase");
  }
  const uint32_t p = plan_.total_partitions;
  const bool open = opts_.layout == exec::HashLayout::kOpenAddressing;
  std::vector<uint32_t> buckets(p);
  for (uint32_t i = 0; i < p; ++i) {
    const uint32_t count = off_r[i + 1] - off_r[i];
    buckets[i] = open ? OpenBucketsFor(std::max<uint32_t>(count, 1))
                      : NextPow2(std::max<uint32_t>(count, 8));
  }
  phase_.MakeTables(buckets, pools_.get(), data::KeyIsWide(key_schema()));
  // Tuple -> partition maps (tuples are contiguous per partition).
  part_of_r_.resize(build_->size());
  part_of_s_.resize(probe_->size());
  for (uint32_t i = 0; i < p; ++i) {
    std::fill(part_of_r_.begin() + off_r[i], part_of_r_.begin() + off_r[i + 1],
              i);
    std::fill(part_of_s_.begin() + off_s[i], part_of_s_.begin() + off_s[i + 1],
              i);
  }
  return apujoin::Status::OK();
}

double PhjEngine::PartitionWorkingSetBytes() const {
  const bool wide = data::KeyIsWide(key_schema());
  const double nb = static_cast<double>(
      build_card_ != 0 ? std::min<uint64_t>(build_card_, build_->size())
                       : build_->size());
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    // Bucket arrays (72 B/bucket narrow, 104 B with the wide-key lane;
    // ~1 bucket per 4 build keys) + rid nodes.
    const double per_bucket = wide ? 104.0 : 72.0;
    const double total =
        nb * (per_bucket / 4.0 + 8.0) +
        static_cast<double>(plan_.total_partitions) * per_bucket;
    return total / static_cast<double>(plan_.total_partitions);
  }
  // Bucket header + key node (12 B narrow, 16 B wide) + rid node per tuple.
  const double key_node = wide ? 16.0 : 12.0;
  const double total = nb * (8.0 + key_node + 8.0) +
                       static_cast<double>(plan_.total_partitions) * 64.0;
  return total / static_cast<double>(plan_.total_partitions);
}

uint64_t PhjEngine::CostModelBuckets() const {
  const uint32_t parts = std::max<uint32_t>(plan_.total_partitions, 1);
  const uint64_t nb_live =
      build_card_ != 0 ? std::min<uint64_t>(build_card_, build_->size())
                       : build_->size();
  const uint32_t per_part =
      static_cast<uint32_t>(std::max<uint64_t>(nb_live / parts, 1));
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    return uint64_t{OpenBucketsFor(per_part)} * kOpenSlotsPerBucket;
  }
  return NextPow2(std::max<uint32_t>(per_part, 8));
}

PhaseInput PhjEngine::SideInput(const RadixPartitioner& part,
                                const std::vector<uint32_t>& part_of) const {
  // The join phase runs over the partitioned survivors (= every tuple
  // unless a fused-select filter shrank pass 0); the partitioner's output
  // buffer is stable once partitioning is done.
  const data::Relation& out = part.output();
  PhaseInput in;
  in.items = part.offsets().back();
  in.key = KeyView{out.key_schema, out.keys.data(), out.key_hi.data()};
  in.rids = out.rids.data();
  in.emit_keys = out.keys.data();
  in.part_of = part_of.data();
  in.shift = plan_.partition_bits;
  in.table_bytes = PartitionWorkingSetBytes();
  in.header_bytes = in.table_bytes;
  return in;
}

std::vector<StepDef> PhjEngine::BuildSteps(Lowering lowering) {
  return phase_.BuildSteps(SideInput(*part_r_, part_of_r_), lowering);
}

std::vector<StepDef> PhjEngine::ProbeSteps(ResultWriter* out,
                                           Lowering lowering) {
  return phase_.ProbeSteps(SideInput(*part_s_, part_of_s_), out, lowering);
}

std::vector<StepDef> PhjEngine::ProbeStepsFused(GroupByEngine* agg,
                                                Lowering lowering) {
  return phase_.ProbeStepsFused(SideInput(*part_s_, part_of_s_), agg,
                                lowering);
}

std::pair<uint64_t, uint64_t> PhjEngine::MergeSeparateTables() {
  // Partition buckets are addressed by the hash shifted past the radix
  // bits, so the merge must recompute homes with the same shift.
  return phase_.MergeSeparateTables(plan_.partition_bits);
}

}  // namespace apujoin::join
