// StreamExecutor: drives a workflow over a MicroBatchSource with delta
// propagation and exactly-once restart semantics.
//
// It plans each node once. Up to a chain's first refresh output, a
// stateful member runs its template's delta operator (delta_operators.h)
// and every other member runs its activity on the batch's delta. A node
// with a refresh input reruns its chain each batch over the full stream
// so far, accumulating what its delta-mode inputs deliver in per-port
// histories.
//
// The final result is byte-identical — as a multiset per target, with
// exactly equal rows_out — to one-shot ExecuteWorkflow over the whole
// capture (see DESIGN.md for the two documented order caveats).
//
// Each batch is transactional: operators and port histories stage every
// change and commit only when the whole batch succeeds, so transient
// faults retry the batch against unmodified state. With a
// checkpoint_dir set, the committed frontier (plus all operator state
// and accumulated targets) is persisted every checkpoint_every_batches
// batches in an ETLSTRM1 file keyed on workflow signature x capture
// fingerprint; a crashed run resumes at the frontier and applies every
// batch to the persistent state exactly once.

#ifndef ETLOPT_STREAM_STREAM_EXECUTOR_H_
#define ETLOPT_STREAM_STREAM_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "engine/executor.h"
#include "stream/micro_batch.h"
#include "stream/stream_options.h"

namespace etlopt {

struct StreamStats {
  /// Batches executed (and committed) by this run.
  size_t batches_run = 0;
  /// Batches skipped because a checkpoint already covered them.
  size_t batches_skipped = 0;
  /// True when the run restored state from a checkpoint.
  bool resumed = false;
  /// Checkpoints that failed to read or validate and were discarded.
  size_t checkpoints_rejected = 0;
  size_t checkpoints_written = 0;
  size_t checkpoint_write_failures = 0;
  /// Stale sibling stream_*.ckpt files GC'd after a successful run.
  size_t stale_checkpoints_pruned = 0;
  /// The checkpoint-every-k cadence this run actually used (the plan's
  /// Young interval when recovery_plan is enabled, else the knob).
  uint64_t checkpoint_interval = 0;
  /// Per-batch retries performed (transient faults absorbed).
  uint64_t retries = 0;
  /// Nodes running in delta mode / refresh (recompute) mode.
  size_t delta_nodes = 0;
  size_t refresh_nodes = 0;
  /// Wall latency of each executed batch, in microseconds (bench p99).
  std::vector<int64_t> batch_micros;
};

class StreamExecutor {
 public:
  explicit StreamExecutor(StreamOptions options);

  /// Streams `capture` through `workflow` batch by batch and returns the
  /// final accumulated result. The workflow must be fresh().
  StatusOr<ExecutionResult> Run(const Workflow& workflow,
                                const ExecutionInput& capture,
                                StreamStats* stats = nullptr);

  /// Removes the run's stream checkpoint (if any).
  Status ClearCheckpoints(const Workflow& workflow,
                          const ExecutionInput& capture) const;

 private:
  std::string CheckpointPathFor(uint64_t workflow_hash,
                                uint64_t fingerprint) const;

  StreamOptions options_;
};

}  // namespace etlopt

#endif  // ETLOPT_STREAM_STREAM_EXECUTOR_H_
