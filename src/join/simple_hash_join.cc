#include "join/simple_hash_join.h"

#include <algorithm>

namespace apujoin::join {

ShjEngine::ShjEngine(simcl::SimContext* ctx, const data::Relation* build,
                     const data::Relation* probe, EngineOptions opts)
    : ctx_(ctx), build_(build), probe_(probe), opts_(opts), phase_(ctx, opts) {}

apujoin::Status ShjEngine::Prepare() {
  const uint64_t nb = build_->size();
  const uint64_t np = probe_->size();
  if (nb == 0 || np == 0) {
    return apujoin::Status::InvalidArgument("empty relation");
  }
  APU_RETURN_IF_ERROR(ResolveJoinKeys(*build_, *probe_, opts_.shared_table,
                                      &r_canon_, &s_canon_, &r_keys_,
                                      &s_keys_));
  const bool wide = data::KeyIsWide(key_schema());
  // A fused-select filter inserts only its survivors: size the table (and
  // the pools) from that count, exactly as an unfused plan would after
  // materializing the filtered relation.
  const uint64_t nb_live =
      build_card_ != 0 ? std::min(build_card_, nb) : nb;
  if (opts_.num_buckets == 0) {
    opts_.num_buckets = opts_.layout == exec::HashLayout::kOpenAddressing
                            ? OpenBucketsFor(nb_live)
                            : NextPow2(nb_live);
  }
  pools_ = MakeJoinPools(nb_live, opts_, wide);
  phase_.MakeTables({opts_.num_buckets}, pools_.get(), wide);
  return apujoin::Status::OK();
}

double ShjEngine::TableWorkingSetBytes() const {
  const bool wide = data::KeyIsWide(key_schema());
  const double nb = static_cast<double>(
      build_card_ != 0 ? std::min<uint64_t>(build_card_, build_->size())
                       : build_->size());
  if (opts_.layout == exec::HashLayout::kOpenAddressing) {
    // Bucket arrays (72 B/bucket; +32 B for the wide secondary key-word
    // line) + one rid node per build tuple.
    return static_cast<double>(opts_.num_buckets) * (wide ? 104.0 : 72.0) +
           nb * 8.0;
  }
  // Headers + key nodes (12 B, or 16 B with the secondary word) + rid nodes.
  return static_cast<double>(opts_.num_buckets) * 8.0 +
         nb * (wide ? 16.0 : 12.0) + nb * 8.0;
}

PhaseInput ShjEngine::BuildInput() const {
  PhaseInput in;
  in.items = build_->size();
  in.key = KeyView{key_schema(), r_keys_->keys.data(), r_keys_->key_hi.data()};
  in.rids = build_->rids.data();
  in.filter = build_filter_;
  in.table_bytes = TableWorkingSetBytes();
  in.header_bytes =
      static_cast<double>(opts_.num_buckets) *
      (opts_.layout == exec::HashLayout::kOpenAddressing
           ? LayoutTraits<OpenHashTable>::kHeaderBytes
           : LayoutTraits<HashTable>::kHeaderBytes);
  return in;
}

PhaseInput ShjEngine::ProbeInput() const {
  PhaseInput in = BuildInput();
  in.items = probe_->size();
  in.key = KeyView{key_schema(), s_keys_->keys.data(), s_keys_->key_hi.data()};
  in.rids = probe_->rids.data();
  in.emit_keys = probe_->keys.data();
  in.filter = probe_filter_;
  return in;
}

std::vector<StepDef> ShjEngine::BuildSteps(Lowering lowering) {
  return phase_.BuildSteps(BuildInput(), lowering);
}

std::vector<StepDef> ShjEngine::ProbeSteps(ResultWriter* out,
                                           Lowering lowering) {
  return phase_.ProbeSteps(ProbeInput(), out, lowering);
}

std::vector<StepDef> ShjEngine::ProbeStepsFused(GroupByEngine* agg,
                                                Lowering lowering) {
  return phase_.ProbeStepsFused(ProbeInput(), agg, lowering);
}

std::pair<uint64_t, uint64_t> ShjEngine::MergeSeparateTables() {
  // SHJ buckets are addressed by the unshifted hash.
  return phase_.MergeSeparateTables(/*shift=*/0);
}

}  // namespace apujoin::join
