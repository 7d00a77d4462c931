// stream_ingest: unpaced StreamExecutor replay of a large event-time
// capture in many micro-batches, with ETLSTRM1 checkpoints written
// every kCheckpointEvery batches to a directory under the run's output
// directory (written and renamed, never fsynced, the same on every
// commit).
//
// Why: the same operators run incrementally on small deltas, so fixed
// per-call costs that nightly_batch hides show up here, and checkpoints
// are written. No search runs; this is the only workload that measures
// checkpoint I/O.
//
// Sizes: the generator's medium workflow at generator seed 17 with event
// time (fixed, so every --seed streams the same workflow, unoptimized),
// 50k rows per source drawn from --seed, cut into 40 s event-time
// windows (about 13 micro-batches of ~15k rows per replay). Each replay
// streams the whole capture; a run replays it repeatedly. The windows
// are this wide so that a run holds a few hundred micro-batches: with
// thousands, tail_ms sits at p99.7 and measures host preemption rather
// than the stream.
//
// Oracle (setup): the one-shot serial ExecuteWorkflow over the capture.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <unistd.h>

#include "common/macros.h"
#include "engine/executor.h"
#include "stream/stream_executor.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace etlopt;

constexpr uint64_t kGeneratorSeed = 17;
constexpr size_t kRowsPerSource = 50000;
constexpr int64_t kKeyDomain = 5000;
constexpr int64_t kWindowMillis = 40000;
constexpr int64_t kCheckpointEvery = 8;

// Totals over the replays of one Measure().
struct StreamTotals {
  std::vector<double> batch_ms;
  double delta_nodes = 0, refresh_nodes = 0, checkpoints = 0;
  size_t replays = 0;
};

class StreamIngest : public Workload {
 public:
  explicit StreamIngest(const RunConfig& config)
      : config_(config),
        checkpoint_dir_(config.out_dir + "/stream_ckpt_" +
                        std::to_string(getpid())) {}

  ~StreamIngest() override {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir_, ec);
  }

  Status Setup() override {
    GeneratorOptions gen;
    gen.category = WorkloadCategory::kMedium;
    gen.seed = kGeneratorSeed;
    gen.with_event_time = true;
    ETLOPT_ASSIGN_OR_RETURN(GeneratedWorkflow generated, GenerateWorkflow(gen));
    workflow_ = std::move(generated.workflow);
    InputGenOptions input;
    input.rows_per_source = kRowsPerSource;
    input.key_domain = kKeyDomain;
    capture_ = GenerateInputFor(workflow_, Mix64(config_.seed), input);
    source_rows_ = SourceRows(capture_);
    ETLOPT_ASSIGN_OR_RETURN(ExecutionResult reference,
                            ExecuteWorkflow(workflow_, capture_));
    targets_fingerprint_ = TargetsFingerprint(reference.target_data);
    rows_out_ = std::move(reference.rows_out);
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir_, ec);
    if (ec) return Status::IOError("cannot create " + checkpoint_dir_);
    return Status::OK();
  }

  Phase Measure(double seconds, Tracer& tracer) override {
    Phase phase;
    totals_ = StreamTotals{};
    StreamExecutor executor(Options(/*checkpoints=*/true));
    Clock::time_point start = Clock::now();
    for (uint64_t replay = 0; MillisSince(start) < seconds * 1000.0;
         ++replay) {
      Replay(executor, replay + 1, tracer, phase, &totals_);
    }
    return phase;
  }

  void ReportEndToEnd(const Phase& phase, Report& report) override {
    ReportClosedLoop(phase, "micro-batches", report);
    report.Note(Format("%zu replays of %zu source rows in %zu micro-batches "
                       "each, checkpoint every %lld batches",
                       totals_.replays, source_rows_,
                       totals_.replays ? totals_.batch_ms.size() /
                                             totals_.replays
                                       : 0,
                       static_cast<long long>(kCheckpointEvery)));
  }

  void ReportLayers(const Phase&, LayerValues& layers,
                    Report& report) override {
    const double replays = std::max<double>(1.0, totals_.replays);
    layers["stream.batch_ms_p50"] = Median(totals_.batch_ms);
    layers["stream.delta_nodes"] = totals_.delta_nodes / replays;
    layers["stream.refresh_nodes"] = totals_.refresh_nodes / replays;
    layers["stream.checkpoints_written"] = totals_.checkpoints / replays;

    // Checkpoint-on against checkpoint-off replays, alternated, untraced.
    Tracer off(false);
    Phase control;
    std::vector<double> on_ms, off_ms;
    StreamExecutor with(Options(true));
    StreamExecutor without(Options(false));
    for (int i = 0; i < 3; ++i) {
      StreamTotals unused;
      Clock::time_point t0 = Clock::now();
      Replay(with, 1000 + i, off, control, &unused);
      on_ms.push_back(MillisSince(t0));
      t0 = Clock::now();
      Replay(without, 2000 + i, off, control, &unused);
      off_ms.push_back(MillisSince(t0));
    }
    layers["stream.checkpoint_overhead_ms"] = Median(on_ms) - Median(off_ms);

    // Size of the last checkpoint a replay leaves behind.
    StreamOptions keep = Options(true);
    keep.remove_checkpoints_on_success = false;
    StreamExecutor keeper(keep);
    StreamTotals unused;
    Replay(keeper, 3000, off, control, &unused);
    double bytes = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(checkpoint_dir_, ec)) {
      if (entry.is_regular_file()) {
        bytes += static_cast<double>(entry.file_size());
      }
    }
    layers["stream.checkpoint_bytes"] = bytes;
    Status cleared = keeper.ClearCheckpoints(workflow_, capture_);
    ++control.attempted;
    if (!cleared.ok() || bytes <= 0) ++control.failed;
    report.attempted += control.attempted;
    report.failed += control.failed;
  }

 private:
  StreamOptions Options(bool checkpoints) const {
    StreamOptions options;
    options.event_time_column = kEventTimeAttr;
    options.window_millis = kWindowMillis;
    if (checkpoints) {
      options.checkpoint_dir = checkpoint_dir_;
      options.checkpoint_every_batches = kCheckpointEvery;
    }
    return options;
  }

  void Replay(StreamExecutor& executor, uint64_t op, Tracer& tracer,
              Phase& phase, StreamTotals* totals) {
    ScopedSpan root(tracer, "bench.replay", op);
    StreamStats stats;
    Clock::time_point t0 = Clock::now();
    StatusOr<ExecutionResult> r = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "stream.run", op);
      r = executor.Run(workflow_, capture_, &stats);
    }
    const double wall = MillisSince(t0);
    bool ok;
    {
      ScopedSpan span(tracer, "check.verify", op);
      ok = r.ok() && r->rows_out == rows_out_ &&
           TargetsFingerprint(r->target_data) == targets_fingerprint_;
    }
    // Every micro-batch is an operation; a failed replay fails them all.
    const size_t batches = std::max<size_t>(1, stats.batch_micros.size());
    phase.attempted += batches;
    if (!ok) {
      phase.failed += batches;
      phase.latency_ms.insert(phase.latency_ms.end(), batches,
                              std::numeric_limits<double>::infinity());
      return;
    }
    for (int64_t us : stats.batch_micros) {
      const double ms = static_cast<double>(us) / 1000.0;
      phase.latency_ms.push_back(ms);
      totals->batch_ms.push_back(ms);
    }
    phase.busy_ms += wall;
    phase.round_ops_per_s.push_back(1000.0 * batches / wall);
    phase.source_rows += static_cast<double>(source_rows_);
    totals->delta_nodes += static_cast<double>(stats.delta_nodes);
    totals->refresh_nodes += static_cast<double>(stats.refresh_nodes);
    totals->checkpoints += static_cast<double>(stats.checkpoints_written);
    ++totals->replays;
  }

  RunConfig config_;
  std::string checkpoint_dir_;
  Workflow workflow_;
  ExecutionInput capture_;
  size_t source_rows_ = 0;
  uint64_t targets_fingerprint_ = 0;
  std::map<NodeId, size_t> rows_out_;
  StreamTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamIngest(const RunConfig& config) {
  return std::make_unique<StreamIngest>(config);
}

}  // namespace perfbench
