// Helpers shared by the end-to-end benchmark's workloads: percentile and
// tail rules, the open-loop backlog detector, output fingerprints, the
// in-memory span tracer, and the result/metric report.
//
// Everything here is the benchmark's own code; it times calls into the
// etlopt libraries from outside and never changes them.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double MillisSince(Clock::time_point from) {
  return MillisBetween(from, Clock::now());
}

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank percentile (pct in (0, 100]): the smallest sample with at
/// least pct% of all samples at or below it. Empty input yields 0.
double NearestRank(std::vector<double> samples, double pct);

inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0);
}

/// Samples a reported tail must leave beyond it.
inline constexpr size_t kTailBeyond = 10;

/// The highest nearest-rank percentile that still has at least
/// kTailBeyond samples above its rank: with n samples that is rank
/// n - kTailBeyond, i.e. the (kTailBeyond + 1)-th largest sample, at
/// percentile 100 * (n - kTailBeyond) / n. With n <= kTailBeyond no
/// percentile qualifies: `defined` is false and value is the median.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  bool defined = false;
};
Tail TailOf(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Open-loop backlog.

/// Requests due but not yet completed, observed at time t_ms of a phase.
struct BacklogSample {
  double t_ms = 0.0;
  double outstanding = 0.0;
};

/// True when the outstanding count grows over the second half of a phase
/// of length run_ms: the mean over its last quarter exceeds the mean over
/// its third quarter by more than `slack` requests. A quarter with no
/// samples counts as zero outstanding.
bool BacklogGrows(const std::vector<BacklogSample>& samples, double run_ms,
                  double slack);

// ---------------------------------------------------------------------------
// Output and input fingerprints.

/// Order-insensitive fingerprint of a row multiset: equal multisets give
/// equal fingerprints whatever the row order.
uint64_t RowsMultisetFingerprint(const std::vector<etlopt::Record>& rows);

/// Multiset fingerprint of every target, folded with the target names.
uint64_t TargetsFingerprint(
    const std::map<std::string, std::vector<etlopt::Record>>& targets);

/// Order-sensitive content fingerprint of a run input (source rows and
/// surrogate-key lookups): equal inputs give equal fingerprints.
uint64_t InputFingerprint(const etlopt::ExecutionInput& input);

/// Total source rows of a run input.
size_t SourceRows(const etlopt::ExecutionInput& input);

/// splitmix64 finalizer, for seed derivation.
uint64_t Mix64(uint64_t x);

/// A seed-determined permutation of [0, n).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Tracing.

/// One recorded interval. `name` is "<layer>.<what>"; `parent` indexes the
/// enclosing span on the same thread (-1 for a root); `op` ties the spans
/// of one job or request together.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t op = 0;
};

/// Records spans in memory when enabled; a disabled tracer records
/// nothing and its spans cost one branch. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span under this thread's innermost open span; returns its
  /// index, or -1 when disabled.
  int64_t Begin(const std::string& name, uint64_t op);
  void End(int64_t index);

  std::vector<Span> spans() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span on the current thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, uint64_t op)
      : tracer_(tracer), index_(tracer.Begin(name, op)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  int64_t index_;
};

/// The layer of a span name: the text before its first '.'.
std::string LayerOf(const std::string& span_name);

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// children clipped to the parent), in milliseconds, index-aligned with
/// `spans`.
std::vector<double> SelfMillis(const std::vector<Span>& spans);

/// Self time summed per layer, in milliseconds.
std::map<std::string, double> SelfMillisByLayer(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Result report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts failed
/// Status, wrong output, shed replies and deadline misses among
/// `attempted` operations. `summary` lines are printed before the JSON.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> summary;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { summary.push_back(line); }
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Non-finite values are written as 0 and make the run incorrect.
std::string ResultJson(const Report& report, bool correct);

/// printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
