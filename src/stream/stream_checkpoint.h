// Stream-state checkpoints (magic ETLSTRM1): the exactly-once frontier.
//
// One file per (workflow signature x capture fingerprint) run, rewritten
// atomically after every committed batch: the next batch to process,
// the accumulated targets and rows_out bookkeeping, and every stateful
// operator's incremental state as an opaque blob. A crash mid-stream
// resumes by restoring the file and seeking the source to next_batch —
// every batch is applied to the persistent state exactly once.
//
// The payload sits in the checksummed envelope every persisted format
// shares (common/byte_codec.h) and is written via temp-file + rename.
// A reader rejects (rather than trusts) any file that is truncated,
// bit-flipped, or from a different run; the executor also rejects
// restored rows that do not fit their schema.

#ifndef ETLOPT_STREAM_STREAM_CHECKPOINT_H_
#define ETLOPT_STREAM_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/executor.h"

namespace etlopt {

struct StreamCheckpoint {
  /// Workflow::SignatureHash of the streamed workflow.
  uint64_t workflow_hash = 0;
  /// MicroBatchSource::CaptureFingerprint (capture x batching knobs).
  uint64_t capture_fingerprint = 0;
  /// The batch frontier: the next batch index to process.
  uint64_t next_batch = 0;
  /// Total batches of the run, as a paranoia cross-check.
  uint64_t batch_count = 0;
  std::map<NodeId, size_t> rows_out;
  std::map<std::string, std::vector<Record>> target_data;
  /// Per-node incremental state, keyed by a stable slot name "n<node>":
  /// each chain member's tagged operator state, or, for a node that
  /// recomputes, its port histories behind tag 0xFF.
  std::map<std::string, std::string> state_blobs;
};

std::string SerializeStreamCheckpoint(const StreamCheckpoint& checkpoint);

StatusOr<StreamCheckpoint> ParseStreamCheckpoint(std::string_view bytes);

}  // namespace etlopt

#endif  // ETLOPT_STREAM_STREAM_CHECKPOINT_H_
