#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "common/random.h"

namespace perfbench {

double NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.size() <= kTailBeyond) {
    tail.value = Median(std::move(samples));
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = samples.size() - kTailBeyond;  // 1-based
  tail.value = samples[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) /
                    static_cast<double>(samples.size());
  tail.defined = true;
  return tail;
}

bool BacklogGrows(const std::vector<BacklogSample>& samples, double run_ms,
                  double slack) {
  const double q3_start = run_ms * 0.5;
  const double q4_start = run_ms * 0.75;
  double q3_sum = 0.0, q4_sum = 0.0;
  size_t q3_n = 0, q4_n = 0;
  for (const BacklogSample& s : samples) {
    if (s.t_ms < q3_start || s.t_ms > run_ms) continue;
    if (s.t_ms < q4_start) {
      q3_sum += s.outstanding;
      ++q3_n;
    } else {
      q4_sum += s.outstanding;
      ++q4_n;
    }
  }
  const double q3 = q3_n == 0 ? 0.0 : q3_sum / static_cast<double>(q3_n);
  const double q4 = q4_n == 0 ? 0.0 : q4_sum / static_cast<double>(q4_n);
  return q4 - q3 > slack;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  etlopt::Rng rng(seed);
  rng.Shuffle(&order);
  return order;
}

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<unsigned char>(v >> (8 * i))) * kFnvPrime;
  }
  return h;
}

uint64_t FoldString(uint64_t h, const std::string& s) {
  h = Fold(h, s.size());
  for (unsigned char c : s) h = (h ^ c) * kFnvPrime;
  return h;
}

}  // namespace

uint64_t RowsMultisetFingerprint(const std::vector<etlopt::Record>& rows) {
  // Two independent commutative sums of mixed row hashes plus the count:
  // reordering rows cannot change them, a changed row changes both.
  uint64_t sum_a = 0, sum_b = 0;
  for (const etlopt::Record& r : rows) {
    const uint64_t h = r.Hash();
    sum_a += Mix64(h);
    sum_b += Mix64(h ^ 0x5bd1e9955bd1e995ull);
  }
  return Fold(Fold(Fold(kFnvBasis, rows.size()), sum_a), sum_b);
}

uint64_t TargetsFingerprint(
    const std::map<std::string, std::vector<etlopt::Record>>& targets) {
  uint64_t h = Fold(kFnvBasis, targets.size());
  for (const auto& [name, rows] : targets) {
    h = Fold(FoldString(h, name), RowsMultisetFingerprint(rows));
  }
  return h;
}

uint64_t InputFingerprint(const etlopt::ExecutionInput& input) {
  uint64_t h = Fold(kFnvBasis, input.source_data.size());
  for (const auto& [name, rows] : input.source_data) {
    h = Fold(FoldString(h, name), rows.size());
    for (const etlopt::Record& r : rows) h = Fold(h, r.Hash());
  }
  h = Fold(h, input.context.lookups.size());
  for (const auto& [name, lookup] : input.context.lookups) {
    h = Fold(FoldString(h, name), lookup.size());
    for (const auto& [key, value] : lookup) {
      for (const etlopt::Value& v : key) h = Fold(h, v.Hash());
      h = Fold(h, value.Hash());
    }
  }
  return h;
}

size_t SourceRows(const etlopt::ExecutionInput& input) {
  size_t n = 0;
  for (const auto& [name, rows] : input.source_data) n += rows.size();
  return n;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::Begin(const std::string& name, uint64_t op) {
  if (!enabled()) return -1;
  const int64_t start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - epoch_)
                            .count();
  const int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  int64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, start, start, parent, op});
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<double> SelfMillis(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, lo);
      end = std::min(end, hi);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = static_cast<double>(hi - lo - covered) / 1e6;
  }
  return self;
}

std::map<std::string, double> SelfMillisByLayer(
    const std::vector<Span>& spans) {
  std::vector<double> self = SelfMillis(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[LayerOf(spans[i].name)] += self[i];
  }
  return by_layer;
}

// ---------------------------------------------------------------------------

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string ResultJson(const Report& report, bool correct) {
  std::string metrics;
  for (const Metric& m : report.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      value = 0.0;
      correct = false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.name.c_str(), value, m.unit.c_str());
  }
  return Format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace perfbench
