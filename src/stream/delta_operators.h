// Delta operators: the incremental semantics of the stateful activity
// templates, one type per template (DOD-ETL's delta-driven operators).
//
//  * PrimaryKeyCheck keeps the seen-key set and emits only first
//    occurrences (delta in, delta out);
//  * Join keeps both input histories and per-key indexes and emits
//    exactly the new pairs each batch (delta in, delta out);
//  * Aggregation keeps per-group accumulators (the batch engine's
//    AggAcc) and emits the full sorted group table (delta in, refresh
//    out);
//  * Difference/Intersection keep bag counts per side and emit the full
//    current result (delta in, refresh out).
//
// Every other template is stateless: it processes each batch's delta
// through Activity::Execute, and MakeDeltaOperator returns null for it.
//
// An operator owns its resolved key/argument indexes, its committed
// state and the changes staged by the current batch. Apply stages and
// emits; Commit folds the staged changes into the committed state and
// Discard drops them, so a failed (and retried) batch attempt leaves
// the committed state untouched. Save and Restore carry the committed
// state through an ETLSTRM1 checkpoint (stream_checkpoint.h).

#ifndef ETLOPT_STREAM_DELTA_OPERATORS_H_
#define ETLOPT_STREAM_DELTA_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "activity/activity.h"
#include "common/byte_codec.h"
#include "common/statusor.h"
#include "records/record.h"
#include "schema/schema.h"

namespace etlopt {

class DeltaOperator {
 public:
  DeltaOperator() = default;
  virtual ~DeltaOperator() = default;

  DeltaOperator(const DeltaOperator&) = delete;
  DeltaOperator& operator=(const DeltaOperator&) = delete;

  /// The tag ahead of this operator's payload in a checkpoint. Tag 0 is
  /// a stateless member's, which carries no payload.
  virtual uint8_t tag() const = 0;
  /// True when each batch's output is the full current result rather
  /// than a delta.
  virtual bool refresh() const = 0;

  /// Stages one batch's input deltas (one per input port) and returns
  /// the output for the batch.
  virtual StatusOr<std::vector<Record>> Apply(
      const std::vector<std::vector<Record>>& inputs) = 0;
  /// Folds the staged changes into the committed state.
  virtual void Commit() = 0;
  /// Drops the staged changes.
  virtual void Discard() = 0;

  /// Appends the committed state's payload to `out`.
  virtual void Save(std::string& out) const = 0;
  /// Reads a payload Save wrote and stages it on an operator with no
  /// committed state: Commit makes it the committed state and Discard
  /// drops it, so a checkpoint restores all-or-nothing across operators.
  /// Rejects restored rows and keys that do not fit the input schemas.
  virtual Status Restore(WireReader& reader) = 0;
};

/// The delta operator of `activity` over inputs of `input_schemas`, or
/// null when its template is stateless.
StatusOr<std::unique_ptr<DeltaOperator>> MakeDeltaOperator(
    const Activity& activity, const std::vector<Schema>& input_schemas);

/// Reads rows PutRecords wrote as checkpointed state, rejecting any row
/// whose arity is not `arity`: a checksum proves only that the bytes are
/// the ones written, not that they fit the schema they are restored into.
StatusOr<std::vector<Record>> ReadStateRows(WireReader& reader,
                                           size_t arity);

}  // namespace etlopt

#endif  // ETLOPT_STREAM_DELTA_OPERATORS_H_
