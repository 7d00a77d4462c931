#include "stream/stream_executor.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "fault/fault_injector.h"
#include "records/record_io.h"
#include "stream/delta_operators.h"
#include "stream/stream_checkpoint.h"

namespace etlopt {

namespace {

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

// The checkpoint tags besides the operators' own: a stateless member's
// (no payload) and a recompute node's port histories.
constexpr uint8_t kTagStateless = 0;
constexpr uint8_t kTagRecompute = 0xFF;

// One chain member. Stateful templates upstream of the chain's first
// refresh output run their delta operator; every other member runs
// Activity::Execute on what reaches it, a delta or the full rows.
struct Member {
  const Activity* activity = nullptr;
  std::vector<Schema> input_schemas;
  std::unique_ptr<DeltaOperator> op;
};

// One node of the incremental plan, with the state it carries across
// batches.
struct StreamNode {
  bool is_recordset = false;
  bool is_source = false;
  bool is_target = false;
  /// Some input is refresh: rerun the whole chain on full inputs.
  bool recompute = false;
  /// This node emits its full output each batch (vs. a delta).
  bool refresh_output = false;
  std::vector<NodeId> providers;
  /// recompute only: ports whose provider emits deltas and therefore
  /// needs an accumulated history, with the history committed so far and
  /// the rows the current batch staged.
  std::vector<bool> port_history;
  std::vector<std::vector<Record>> history, staged_history;
  /// Activity nodes: their chain members.
  std::vector<Member> members;

  bool HasState() const {
    if (recompute) {
      return std::find(port_history.begin(), port_history.end(), true) !=
             port_history.end();
    }
    return std::any_of(members.begin(), members.end(),
                       [](const Member& m) { return m.op != nullptr; });
  }

  void Commit() {
    for (size_t p = 0; p < history.size(); ++p) {
      history[p].insert(history[p].end(),
                        std::make_move_iterator(staged_history[p].begin()),
                        std::make_move_iterator(staged_history[p].end()));
      staged_history[p].clear();
    }
    for (Member& m : members) {
      if (m.op) m.op->Commit();
    }
  }

  void Discard() {
    for (auto& rows : staged_history) rows.clear();
    for (Member& m : members) {
      if (m.op) m.op->Discard();
    }
  }

  std::string Save() const {
    std::string out;
    if (recompute) {
      out.push_back(static_cast<char>(kTagRecompute));
      PutU32(out, static_cast<uint32_t>(history.size()));
      for (const auto& rows : history) PutRecords(out, rows);
      return out;
    }
    PutU32(out, static_cast<uint32_t>(members.size()));
    for (const Member& m : members) {
      out.push_back(static_cast<char>(m.op ? m.op->tag() : kTagStateless));
      if (m.op) m.op->Save(out);
    }
    return out;
  }

  // Stages the state Save wrote, for Commit or Discard.
  Status Restore(std::string_view blob) {
    WireReader reader(blob);
    if (recompute) {
      ETLOPT_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
      if (tag != kTagRecompute) {
        return Status::InvalidArgument("stream checkpoint: state tag mismatch");
      }
      ETLOPT_ASSIGN_OR_RETURN(uint32_t ports, reader.U32());
      if (ports != history.size()) {
        return Status::InvalidArgument(
            "stream checkpoint: port count mismatch");
      }
      // Port histories fit the node's input schemas, which are its first
      // member's.
      for (uint32_t p = 0; p < ports; ++p) {
        ETLOPT_ASSIGN_OR_RETURN(
            staged_history[p],
            ReadStateRows(reader, members[0].input_schemas[p].size()));
      }
    } else {
      ETLOPT_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
      if (count != members.size()) {
        return Status::InvalidArgument(
            "stream checkpoint: member count mismatch");
      }
      for (Member& m : members) {
        ETLOPT_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
        if (tag != (m.op ? m.op->tag() : kTagStateless)) {
          return Status::InvalidArgument(
              "stream checkpoint: state tag mismatch");
        }
        if (m.op) ETLOPT_RETURN_NOT_OK(m.op->Restore(reader));
      }
    }
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("stream checkpoint: trailing state");
    }
    return Status::OK();
  }
};

// ---- the per-run driver --------------------------------------------------

class StreamRun {
 public:
  StreamRun(const StreamOptions& options, const Workflow& workflow,
            const ExecutionContext& context, std::string checkpoint_path,
            uint64_t checkpoint_every)
      : options_(options),
        workflow_(workflow),
        context_(context),
        checkpoint_path_(std::move(checkpoint_path)),
        checkpoint_every_(checkpoint_every),
        rng_(kRetrySeed) {}

  Status BuildPlan(StreamStats* stats) {
    for (NodeId id : workflow_.TopoOrder()) {
      StreamNode node;
      node.providers = workflow_.Providers(id);
      if (workflow_.IsRecordSet(id)) {
        node.is_recordset = true;
        node.is_source = node.providers.empty();
        node.is_target = !node.is_source && workflow_.Consumers(id).empty();
        node.refresh_output =
            !node.is_source && nodes_.at(node.providers[0]).refresh_output;
      } else {
        for (NodeId p : node.providers) {
          node.recompute |= nodes_.at(p).refresh_output;
        }
        if (node.recompute) {
          for (NodeId p : node.providers) {
            node.port_history.push_back(!nodes_.at(p).refresh_output);
          }
          node.history.resize(node.providers.size());
          node.staged_history.resize(node.providers.size());
        }
        ETLOPT_RETURN_NOT_OK(PlanMembers(id, &node));
        if (node.refresh_output) {
          ++stats->refresh_nodes;
        } else {
          ++stats->delta_nodes;
        }
      }
      nodes_.emplace(id, std::move(node));
    }
    return Status::OK();
  }

  /// Tries to restore from the run's checkpoint. Returns the batch
  /// frontier to start from (0 when starting fresh); fills `result`
  /// with the restored targets/rows_out on success.
  StatusOr<uint64_t> TryResume(const MicroBatchSource& source,
                               uint64_t workflow_hash,
                               ExecutionResult* result, StreamStats* stats) {
    if (checkpoint_path_.empty()) return uint64_t{0};
    std::error_code ec;
    if (!fs::exists(checkpoint_path_, ec) || ec) return uint64_t{0};
    auto reject = [&]() -> uint64_t {
      ++stats->checkpoints_rejected;
      return 0;
    };
#ifndef ETLOPT_NO_FAULT_INJECTION
    if (FaultInjector::Global().armed()) {
      Status hook =
          FaultInjector::Global().Hit(FaultSite::kStreamStateCheckpoint);
      if (!hook.ok()) {
        // A crash-point models the process dying here; any other
        // injected error just makes the checkpoint unreadable.
        if (IsInjectedCrash(hook)) return hook;
        return reject();
      }
    }
#endif
    auto bytes = ReadFileToString(checkpoint_path_);
    if (!bytes.ok()) return reject();
    auto checkpoint = ParseStreamCheckpoint(*bytes);
    if (!checkpoint.ok() || checkpoint->workflow_hash != workflow_hash ||
        checkpoint->capture_fingerprint != source.CaptureFingerprint() ||
        checkpoint->batch_count != source.batch_count() ||
        checkpoint->next_batch > checkpoint->batch_count) {
      return reject();
    }
    // Every restored target must be one of this workflow's, with rows
    // that fit its schema.
    size_t targets_matched = 0;
    for (const auto& [id, node] : nodes_) {
      if (!node.is_target) continue;
      const RecordSetDef& def = workflow_.recordset(id);
      auto rows = checkpoint->target_data.find(def.name);
      if (rows == checkpoint->target_data.end()) continue;
      if (!AllRowsHaveArity(rows->second, def.schema.size())) return reject();
      ++targets_matched;
    }
    if (targets_matched != checkpoint->target_data.size()) return reject();
    // Restore operator state all-or-nothing: a missing or malformed
    // blob rejects the whole checkpoint rather than resuming half the
    // state.
    bool restored = true;
    for (auto& [id, node] : nodes_) {
      if (!restored || !node.HasState()) continue;
      auto blob = checkpoint->state_blobs.find("n" + std::to_string(id));
      restored = blob != checkpoint->state_blobs.end() &&
                 node.Restore(blob->second).ok();
    }
    for (auto& [id, node] : nodes_) restored ? node.Commit() : node.Discard();
    if (!restored) return reject();
    result->rows_out = std::move(checkpoint->rows_out);
    result->target_data = std::move(checkpoint->target_data);
    stats->resumed = true;
    stats->batches_skipped = static_cast<size_t>(checkpoint->next_batch);
    return checkpoint->next_batch;
  }

  Status RunBatch(size_t b, MicroBatchSource& source,
                  ExecutionResult* result, StreamStats* stats) {
    auto attempt = [&]() -> Status {
      ETLOPT_RETURN_NOT_OK(source.Seek(b));
      ETLOPT_ASSIGN_OR_RETURN(MicroBatch batch, source.Next());
      for (auto& [id, node] : nodes_) node.Discard();
      flows_.clear();
      for (NodeId id : workflow_.TopoOrder()) {
        ETLOPT_ASSIGN_OR_RETURN(flows_[id], ExecuteNode(id, batch));
      }
      return Status::OK();
    };
    Status status = RetryWithBackoff(options_.retry, rng_,
                                     StrFormat("batch %zu", b).c_str(),
                                     attempt, &stats->retries);
    if (!status.ok()) return status;
    Commit(result);
    return Status::OK();
  }

  Status MaybeCheckpoint(uint64_t next_batch, uint64_t batch_count,
                         uint64_t workflow_hash, uint64_t fingerprint,
                         const ExecutionResult& result, StreamStats* stats) {
    if (checkpoint_path_.empty() ||
        (next_batch != batch_count && next_batch % checkpoint_every_ != 0)) {
      return Status::OK();
    }
    StreamCheckpoint checkpoint;
    checkpoint.workflow_hash = workflow_hash;
    checkpoint.capture_fingerprint = fingerprint;
    checkpoint.next_batch = next_batch;
    checkpoint.batch_count = batch_count;
    checkpoint.rows_out = result.rows_out;
    checkpoint.target_data = result.target_data;
    for (const auto& [id, node] : nodes_) {
      if (!node.HasState()) continue;
      checkpoint.state_blobs["n" + std::to_string(id)] = node.Save();
    }
    const std::string bytes = SerializeStreamCheckpoint(checkpoint);
    auto write_attempt = [&]() -> Status {
      if (options_.recovery_plan.enabled) {
        ETLOPT_FAULT_HIT(FaultSite::kRecoveryPlaceCheckpoint);
      }
      ETLOPT_FAULT_HIT(FaultSite::kStreamStateCheckpoint);
      std::error_code ec;
      fs::create_directories(options_.checkpoint_dir, ec);
      if (ec) {
        return Status::IOError("cannot create checkpoint dir: " +
                               options_.checkpoint_dir + ": " + ec.message());
      }
      return WriteFileAtomic(checkpoint_path_, bytes);
    };
    Status status =
        RetryWithBackoff(options_.retry, rng_, "stream checkpoint write",
                         write_attempt, &stats->retries);
    if (IsInjectedCrash(status)) return status;
    if (status.ok()) {
      ++stats->checkpoints_written;
    } else {
      // Best-effort, like the recovery checkpoints: the stream still
      // completes, it just resumes from an earlier frontier on a crash.
      ++stats->checkpoint_write_failures;
    }
    return Status::OK();
  }

 private:
  // Gives each chain member its input schemas and, up to the chain's
  // first refresh output, the delta operator of its template. Members of
  // a recompute node see full inputs, so none gets an operator.
  Status PlanMembers(NodeId id, StreamNode* node) {
    std::vector<Schema> inputs = workflow_.InputSchemas(id);
    bool refresh = node->recompute;
    for (const auto& chain_member : workflow_.chain(id).members()) {
      Member m;
      m.activity = &chain_member.activity;
      m.input_schemas = inputs;
      if (!refresh) {
        ETLOPT_ASSIGN_OR_RETURN(m.op,
                                MakeDeltaOperator(*m.activity, inputs));
        refresh = m.op != nullptr && m.op->refresh();
      }
      ETLOPT_ASSIGN_OR_RETURN(Schema output,
                              m.activity->ComputeOutputSchema(inputs));
      inputs = {std::move(output)};
      node->members.push_back(std::move(m));
    }
    node->refresh_output = refresh;
    return Status::OK();
  }

  StatusOr<std::vector<Record>> ExecuteNode(NodeId id,
                                            const MicroBatch& batch) {
    StreamNode& node = nodes_.at(id);
    if (node.is_recordset) {
      const RecordSetDef& def = workflow_.recordset(id);
      if (node.is_source) {
        ETLOPT_ASSIGN_OR_RETURN(const std::vector<Record>* rows,
                                BoundSourceRows(def, batch.source_rows));
        return *rows;
      }
      const NodeId provider = node.providers[0];
      return RealignRecords(flows_.at(provider),
                            workflow_.OutputSchema(provider), def.schema);
    }

    ETLOPT_FAULT_HIT(FaultSite::kActivityExecute);
    std::vector<std::vector<Record>> rows;
    rows.reserve(node.providers.size());
    for (size_t i = 0; i < node.providers.size(); ++i) {
      const std::vector<Record>& delta = flows_.at(node.providers[i]);
      if (node.recompute && node.port_history[i]) {
        node.staged_history[i] = delta;
        std::vector<Record> full = node.history[i];
        full.insert(full.end(), delta.begin(), delta.end());
        rows.push_back(std::move(full));
      } else {
        rows.push_back(delta);
      }
    }
    for (Member& m : node.members) {
      StatusOr<std::vector<Record>> produced =
          m.op ? m.op->Apply(rows)
               : m.activity->Execute(m.input_schemas, rows, context_);
      if (!produced.ok()) {
        return produced.status().WithContext(
            StrFormat("executing node %d ('%s')", id,
                      workflow_.chain(id).label().c_str()));
      }
      rows.clear();
      rows.push_back(std::move(produced).value());
    }
    return std::move(rows[0]);
  }

  // Commits staged state and folds the batch's outputs into the result.
  void Commit(ExecutionResult* result) {
    for (auto& [id, node] : nodes_) {
      node.Commit();
      const std::vector<Record>& rows = flows_.at(id);
      if (!node.is_recordset) {
        if (node.refresh_output) {
          result->rows_out[id] = rows.size();
        } else {
          result->rows_out[id] += rows.size();
        }
      } else if (node.is_target) {
        const std::string& name = workflow_.recordset(id).name;
        std::vector<Record>& target = result->target_data[name];
        if (node.refresh_output) {
          target = rows;
        } else {
          target.insert(target.end(), rows.begin(), rows.end());
        }
      }
    }
  }

  const StreamOptions& options_;
  const Workflow& workflow_;
  const ExecutionContext& context_;
  const std::string checkpoint_path_;
  const uint64_t checkpoint_every_;
  Rng rng_;
  std::map<NodeId, StreamNode> nodes_;
  // Each node's output for the batch in flight.
  std::map<NodeId, std::vector<Record>> flows_;
};

}  // namespace

StreamExecutor::StreamExecutor(StreamOptions options)
    : options_(std::move(options)) {}

std::string StreamExecutor::CheckpointPathFor(uint64_t workflow_hash,
                                              uint64_t fingerprint) const {
  if (options_.checkpoint_dir.empty()) return "";
  return options_.checkpoint_dir +
         StrFormat("/stream_%016llx_%016llx.ckpt",
                   static_cast<unsigned long long>(workflow_hash),
                   static_cast<unsigned long long>(fingerprint));
}

StatusOr<ExecutionResult> StreamExecutor::Run(const Workflow& workflow,
                                              const ExecutionInput& capture,
                                              StreamStats* stats_out) {
  ETLOPT_RETURN_NOT_OK(ValidateStreamOptions(options_));
  if (!workflow.fresh()) {
    return Status::FailedPrecondition(
        "workflow must pass Refresh() before streaming");
  }
  // Stats are published as they accrue, so every return reports them.
  StreamStats local_stats;
  StreamStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats = StreamStats{};
  ETLOPT_ASSIGN_OR_RETURN(MicroBatchSource source,
                          MicroBatchSource::Make(workflow, capture, options_));
  const uint64_t workflow_hash = workflow.SignatureHash();
  const uint64_t fingerprint = source.CaptureFingerprint();
  const std::string checkpoint_path =
      CheckpointPathFor(workflow_hash, fingerprint);
  const uint64_t checkpoint_every =
      options_.recovery_plan.enabled
          ? PlannedStreamCheckpointInterval(options_.recovery_plan,
                                            source.batch_count())
          : static_cast<uint64_t>(options_.checkpoint_every_batches);
  stats.checkpoint_interval = checkpoint_every;

  StreamRun run(options_, workflow, source.context(), checkpoint_path,
                checkpoint_every);
  ETLOPT_RETURN_NOT_OK(run.BuildPlan(&stats));

  ExecutionResult result;
  ETLOPT_ASSIGN_OR_RETURN(
      uint64_t frontier, run.TryResume(source, workflow_hash, &result, &stats));
  for (uint64_t b = frontier; b < source.batch_count(); ++b) {
    const SteadyClock::time_point start = SteadyClock::now();
    ETLOPT_RETURN_NOT_OK(
        run.RunBatch(static_cast<size_t>(b), source, &result, &stats));
    ++stats.batches_run;
    Status checkpointed = run.MaybeCheckpoint(
        b + 1, source.batch_count(), workflow_hash, fingerprint, result,
        &stats);
    stats.batch_micros.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(
            SteadyClock::now() - start)
            .count());
    ETLOPT_RETURN_NOT_OK(checkpointed);
  }

  if (!checkpoint_path.empty()) {
    if (options_.remove_checkpoints_on_success) {
      std::error_code ec;
      fs::remove(checkpoint_path, ec);  // best-effort cleanup
    }
    stats.stale_checkpoints_pruned = PruneOldestEntries(
        options_.checkpoint_dir, checkpoint_path,
        options_.max_retained_checkpoints,
        [](const fs::directory_entry& entry) {
          std::error_code ec;
          const std::string name = entry.path().filename().string();
          return entry.is_regular_file(ec) && !ec &&
                 StartsWith(name, "stream_") && EndsWith(name, ".ckpt");
        });
  }
  return result;
}

Status StreamExecutor::ClearCheckpoints(const Workflow& workflow,
                                        const ExecutionInput& capture) const {
  if (options_.checkpoint_dir.empty()) return Status::OK();
  ETLOPT_ASSIGN_OR_RETURN(MicroBatchSource source,
                          MicroBatchSource::Make(workflow, capture, options_));
  const std::string path = CheckpointPathFor(workflow.SignatureHash(),
                                             source.CaptureFingerprint());
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    return Status::IOError("cannot remove stream checkpoint: " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace etlopt
