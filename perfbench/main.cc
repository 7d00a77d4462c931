// End-to-end benchmark program.
//
//   etl_perfbench --workload <nightly_batch|plan_service|tenant_overlap|
//                             stream_ingest>
//                 --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics, self time per layer from the
// benchmark's spans, and the tracing overhead. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the command to use.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Setup runs this many times; setup_s is the median.
constexpr int kSetupRepeats = 3;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every traced run reports all of these (BENCHMARK.json's per_layer
// list); a layer a workload does not exercise reads 0 there.
constexpr LayerMetric kLayerMetrics[] = {
    {"io.parse_us", "us"},
    {"io.print_us", "us"},
    {"optimizer.search_ms", "ms"},
    {"optimizer.states_visited", "count"},
    {"optimizer.model_gain_pct", "%"},
    {"optimizer.measured_gain_pct", "%"},
    {"optimizer.gain_gap_pct", "%"},
    {"cost.state_eval_us", "us"},
    {"cost.delta_recost_share", "ratio"},
    {"engine.exec_ms.serial", "ms"},
    {"engine.exec_ms.vectorized_t1", "ms"},
    {"engine.exec_ms.vectorized_tN", "ms"},
    {"engine.exec_ms.parallel_t1", "ms"},
    {"engine.exec_ms.parallel_tN", "ms"},
    {"engine.scaling_tN_over_t1", "ratio"},
    {"engine.exec_share", "ratio"},
    {"columnar.from_rows_ms", "ms"},
    {"columnar.to_rows_ms", "ms"},
    {"columnar.fallback_row_share", "ratio"},
    {"records.input_copy_ms", "ms"},
    {"graph.signature_us", "us"},
    {"service.plan_cache_hit_rate", "ratio"},
    {"service.server_ms_p50", "ms"},
    {"service.server_ms_tail", "ms"},
    {"service.shed", "count"},
    {"result_cache.hit_rate", "ratio"},
    {"result_cache.work_ratio", "ratio"},
    {"result_cache.evictions", "count"},
    {"result_cache.bytes", "bytes"},
    {"result_cache.overhead_ms", "ms"},
    {"net.wire_ms_p50", "ms"},
    {"net.frame_encode_us", "us"},
    {"net.frame_decode_us", "us"},
    {"net.bytes_per_request", "bytes"},
    {"loadgen.late_ms_tail", "ms"},
    {"stream.batch_ms_p50", "ms"},
    {"stream.delta_nodes", "count"},
    {"stream.refresh_nodes", "count"},
    {"stream.checkpoints_written", "count"},
    {"stream.checkpoint_bytes", "bytes"},
    {"stream.checkpoint_overhead_ms", "ms"},
    {"self_ms.bench", "ms"},
    {"self_ms.check", "ms"},
    {"self_ms.io", "ms"},
    {"self_ms.optimizer", "ms"},
    {"self_ms.engine", "ms"},
    {"self_ms.net", "ms"},
    {"self_ms.stream", "ms"},
    {"bench.tail_ms", "ms"},
    {"bench.tail_percentile", "%"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: etl_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               msg);
  return 2;
}

// Median cost of opening and closing one span on an enabled tracer.
double SpanCostNs() {
  constexpr int kSpans = 20000;
  std::vector<double> per_round;
  for (int round = 0; round < 5; ++round) {
    Tracer tracer(true);
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      ScopedSpan span(tracer, "bench.probe", static_cast<uint64_t>(i));
    }
    per_round.push_back(MillisSince(start) * 1e6 / kSpans);
  }
  return Median(per_round);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_trace = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0.0) ||
          config.seconds > 600.0) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.out_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --out-dir are required");
  }
  config.threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  config.loop_threads = std::max<size_t>(1, config.threads / 2);

  std::unique_ptr<Workload> workload;
  if (config.workload == "nightly_batch") {
    workload = MakeNightlyBatch(config);
  } else if (config.workload == "plan_service") {
    workload = MakePlanService(config);
  } else if (config.workload == "tenant_overlap") {
    workload = MakeTenantOverlap(config);
  } else if (config.workload == "stream_ingest") {
    workload = MakeStreamIngest(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) return Usage(("cannot create --out-dir: " + ec.message()).c_str());

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point start = Clock::now();
    etlopt::Status status = workload->Setup();
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(MillisSince(start) / 1000.0);
  }

  Report report;
  Tracer tracer(config.trace);
  if (!config.trace) {
    Phase phase = workload->Measure(config.seconds, tracer);
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    report.Add("setup_s", Median(setup_s), "s");
    workload->ReportEndToEnd(phase, report);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    Phase traced = workload->Measure(config.seconds, tracer);
    report.attempted += traced.attempted;
    report.failed += traced.failed;

    LayerValues layers;
    for (const LayerMetric& m : kLayerMetrics) layers[m.name] = 0.0;
    workload->ReportLayers(traced, layers, report);

    // Self time per layer, per root span (one job, request, night or
    // replay).
    std::vector<Span> spans = tracer.spans();
    double roots = 0;
    for (const Span& s : spans) roots += s.parent < 0 ? 1 : 0;
    for (const auto& [layer, ms] : SelfMillisByLayer(spans)) {
      const std::string name = "self_ms." + layer;
      if (layers.count(name) == 0) {
        std::fprintf(stderr, "span layer '%s' has no self_ms metric\n",
                     layer.c_str());
        return 1;
      }
      layers[name] = ms / std::max(1.0, roots);
    }
    // Tracing overhead: the spans recorded times the measured cost of
    // one span, as a share of the traced run's busy wall.
    const double span_ns = SpanCostNs();
    // The operation tail of the traced loop. It is printed but not gated
    // in untraced runs (see README.md), so traced runs record it here.
    const Tail tail = TailOf(traced.latency_ms);
    layers["bench.tail_ms"] = tail.value;
    layers["bench.tail_percentile"] = tail.percentile;
    layers["trace.spans"] = static_cast<double>(spans.size());
    layers["trace.overhead_pct"] =
        traced.busy_ms > 0 ? 100.0 * static_cast<double>(spans.size()) *
                                 span_ns / (traced.busy_ms * 1e6)
                           : 0.0;
    report.Note(Format("tracing: %zu spans at %.0f ns each; traced mean "
                       "operation latency %.4f ms (compare the untraced run)",
                       spans.size(), span_ns, Mean(traced.latency_ms)));

    const std::string trace_path =
        config.out_dir + "/trace_" + config.workload + "_" +
        std::to_string(config.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    report.Note("spans written to " + trace_path);
    if (layers.size() != std::size(kLayerMetrics)) {
      std::fprintf(stderr, "workload reported an unlisted layer metric\n");
      return 1;
    }
    for (const LayerMetric& m : kLayerMetrics) {
      report.Add(m.name, layers[m.name], m.unit);
    }
  }

  const bool correct = report.failed == 0;
  std::printf(
      "workload %s seed %llu seconds %g trace %d threads %zu loop threads "
      "%zu\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, config.threads,
      config.loop_threads);
  std::printf("setup_s runs:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  for (const std::string& line : report.summary) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(report, correct).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
