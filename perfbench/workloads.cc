#include "workloads.h"

namespace perfbench {

void ReportClosedLoop(const Phase& phase, const std::string& ops_name,
                      Report& report) {
  const Tail tail = TailOf(phase.latency_ms);
  const double busy_s = phase.busy_ms / 1000.0;
  report.Add("p50_ms", Median(phase.latency_ms), "ms");
  report.Add("ops_per_s", Median(phase.round_ops_per_s), "1/s");
  report.Note(Format("tail_ms: %.4f ms, p%.2f of %zu %s (%s)", tail.value,
                     tail.percentile, tail.samples, ops_name.c_str(),
                     tail.defined ? "10+ samples beyond"
                                  : "UNDEFINED: <= 10 samples, median shown"));
  report.Note(Format("rows_per_s: %.0f source rows/s over %.3f s busy wall",
                     busy_s > 0 ? phase.source_rows / busy_s : 0.0, busy_s));
  report.Note(Format("fail_frac: %.6f (%llu of %llu)",
                     phase.attempted ? static_cast<double>(phase.failed) /
                                           static_cast<double>(phase.attempted)
                                     : 0.0,
                     static_cast<unsigned long long>(phase.failed),
                     static_cast<unsigned long long>(phase.attempted)));
}

}  // namespace perfbench
