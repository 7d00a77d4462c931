// The benchmark's four workloads behind one interface. main.cc times
// Setup() (repeated; its median is setup_s), runs Measure() for the
// run's seconds, and asks the workload for its end-to-end metrics or, in
// a traced run, its per-layer metrics.
//
// Each workload file states its sizes and why it was chosen; README.md
// collects them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "workload/generator.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where scratch files (checkpoints, plan files) and the span dump go.
  std::string out_dir;
  /// Client connections and the tN of traced engine comparisons:
  /// min(hardware threads, 4).
  size_t threads = 4;
  /// Engine threads in the measured loops: half of `threads`. With every
  /// core busy, a core the host takes away stalls the engine's
  /// partition barriers, and run-to-run spread grew to 16-27%.
  size_t loop_threads = 2;
};

/// What one Measure() call observed.
struct Phase {
  /// Per operation (job, request, tenant run or micro-batch), from its
  /// start (or, for open-loop requests, its due time) to its result.
  std::vector<double> latency_ms;
  /// Operations attempted and failed (failed Status, wrong output, shed
  /// reply or deadline miss).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Sum of the end-to-end walls of the closed-loop units of work the
  /// workload times (jobs, tenant runs, replays); for an open loop, the
  /// wall of its phases.
  double busy_ms = 0.0;
  /// Source rows those units of work consumed.
  double source_rows = 0.0;
  /// Operations per second of each closed-loop round (a pass over the
  /// job list, a night, a replay); ops_per_s is their median, so a slow
  /// spell on a shared host moves it only if it spans most rounds.
  std::vector<double> round_ops_per_s;
};

/// Per-layer metric values by name (see kLayerMetrics in main.cc).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, plans and oracles from the run's seed, replacing any
  /// earlier setup. A failing Status aborts the run.
  virtual etlopt::Status Setup() = 0;

  /// Runs the measured loop for about `seconds`, recording spans into
  /// `tracer` when it is enabled.
  virtual Phase Measure(double seconds, Tracer& tracer) = 0;

  /// Fills the end-to-end metrics other than setup_s and peak_rss_mb
  /// (p50_ms, ops_per_s) and summary lines, tail_ms among them.
  virtual void ReportEndToEnd(const Phase& phase, Report& report) = 0;

  /// Traced run only: fills per-layer values from the traced phase and
  /// from the workload's own control measurements, which may count
  /// further attempted/failed operations into `report`.
  virtual void ReportLayers(const Phase& traced, LayerValues& layers,
                            Report& report) = 0;
};

std::unique_ptr<Workload> MakeNightlyBatch(const RunConfig& config);
std::unique_ptr<Workload> MakePlanService(const RunConfig& config);
std::unique_ptr<Workload> MakeTenantOverlap(const RunConfig& config);
std::unique_ptr<Workload> MakeStreamIngest(const RunConfig& config);

/// One nightly_batch job as a seed lays it out.
struct JobSpec {
  std::string name;  // "<family>-<generator seed>"
  etlopt::WorkloadCategory category = etlopt::WorkloadCategory::kMedium;
  uint64_t generator_seed = 0;
  uint64_t input_seed = 0;  // drawn from the run's seed
};

/// nightly_batch's jobs in arrival order; equal seeds give equal lists.
std::vector<JobSpec> NightlyJobList(uint64_t seed);

/// Shared end-to-end figures of a closed-loop phase: p50_ms and ops_per_s
/// (the median round), plus the tail_ms (with its percentile and sample
/// count), rows_per_s and fail_frac summary lines.
void ReportClosedLoop(const Phase& phase, const std::string& ops_name,
                      Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
