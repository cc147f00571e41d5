// Multi-way probe chain: one probe relation joined against 2..4 build
// tables in a single pipeline (the snowflake shape — every build table
// shares the probe's join key).
//
// Each build table is a full SHJ build (b1..b4 series, shared-table mode)
// over its relation; the probe then runs ONE chain series m1..m4: hash the
// probe key once, then per table a header visit (m2.k) and a key search
// (m3.k) — a tuple that misses any table is dead and costs one unit in
// every later step, the same dead-lane accounting as the single-join p
// steps — and finally an emit step (m4) that materializes the cross
// product: for every rid of the *last* table's match list it emits the
// pair once per combination of the earlier tables' rid-list lengths.
//
// The chain requires the coupled architecture: all build tables live in
// the shared memory both devices address (there is no merge/transfer
// formulation here, by design).

#ifndef APUJOIN_JOIN_MULTIWAY_ENGINE_H_
#define APUJOIN_JOIN_MULTIWAY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/relation.h"
#include "join/result_writer.h"
#include "join/simple_hash_join.h"
#include "join/steps.h"
#include "util/status.h"

namespace apujoin::join {

/// Multi-way probe-chain kernels + per-table build engines.
class MultiwayEngine {
 public:
  /// All relations must outlive the engine. `opts.shared_table` is forced
  /// on: the chain addresses every table from both devices.
  MultiwayEngine(simcl::SimContext* ctx,
                 std::vector<const data::Relation*> builds,
                 const data::Relation* probe, EngineOptions opts);

  /// Prepares one SHJ build engine per build table plus the chain state.
  apujoin::Status Prepare();

  int num_tables() const { return static_cast<int>(engines_.size()); }
  /// The k-th table's build engine (its BuildSteps() series builds table k).
  ShjEngine* build_engine(int k) { return engines_[k].get(); }

  /// The probe-chain step series m1, m2.k/m3.k per table, m4 over |S|.
  std::vector<StepDef> ChainSteps(ResultWriter* out);

  /// True when a table's build ran out of key or rid nodes.
  bool overflowed() const;

  static constexpr size_t kMaxTables = 4;

  /// Summed per-table working sets — the chain's random accesses span all
  /// tables.
  double TablesWorkingSetBytes() const;

 private:
  /// The chain over one table layout and key width.
  template <class Table, bool kWide>
  std::vector<StepDef> ChainStepsT(ResultWriter* out);

  simcl::SimContext* ctx_;
  std::vector<const data::Relation*> builds_;
  const data::Relation* probe_;
  EngineOptions opts_;
  bool wide_ = false;  // KeyIsWide(probe schema), resolved in Prepare()

  std::vector<std::unique_ptr<ShjEngine>> engines_;
  // Chain state: one shared hash column, one key-node column per table,
  // one liveness flag per probe tuple.
  std::vector<uint32_t> s_hash_;
  std::vector<std::vector<int32_t>> s_keynode_;
  std::vector<uint8_t> s_alive_;
};

}  // namespace apujoin::join

#endif  // APUJOIN_JOIN_MULTIWAY_ENGINE_H_
