// Tests of the benchmark's own helpers: nearest-rank percentiles and the
// "10 samples beyond" tail rule, span self time with nested and
// overlapping children, the open-loop backlog detector, fingerprints,
// and seed determinism of nightly_batch's job list and inputs.
//
// Run with: python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: FAILED: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                 \
    }                                                             \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestNearestRank() {
  EXPECT(NearestRank({}, 50) == 0.0);
  EXPECT(NearestRank({7}, 1) == 7.0);
  EXPECT(NearestRank({7}, 100) == 7.0);
  EXPECT(NearestRank(OneTo(10), 50) == 5.0);
  EXPECT(NearestRank(OneTo(10), 90) == 9.0);
  EXPECT(NearestRank(OneTo(10), 91) == 10.0);
  EXPECT(NearestRank(OneTo(10), 100) == 10.0);
  EXPECT(NearestRank(OneTo(10), 0.1) == 1.0);
  EXPECT(NearestRank(OneTo(100), 99) == 99.0);
  EXPECT(Median(OneTo(4)) == 2.0);
}

void TestTail() {
  // 100 samples: rank 90 leaves exactly 10 beyond it.
  Tail t = TailOf(OneTo(100));
  EXPECT(t.defined);
  EXPECT(t.samples == 100);
  EXPECT(t.value == 90.0);
  EXPECT(Near(t.percentile, 90.0));
  // 1000 samples: p99.
  t = TailOf(OneTo(1000));
  EXPECT(t.value == 990.0);
  EXPECT(Near(t.percentile, 99.0));
  // The smallest count with a defined tail: 11 samples, 10 beyond the
  // first.
  t = TailOf(OneTo(11));
  EXPECT(t.defined);
  EXPECT(t.value == 1.0);
  EXPECT(Near(t.percentile, 100.0 / 11.0));
  // Ten samples or fewer: no percentile qualifies; the median is shown.
  t = TailOf(OneTo(10));
  EXPECT(!t.defined);
  EXPECT(t.value == 5.0);
  // Whatever n, exactly 10 samples lie beyond the tail (distinct values),
  // and the next rank up would leave only 9.
  for (int n : {11, 37, 250, 4999}) {
    std::vector<double> v = OneTo(n);
    t = TailOf(v);
    int beyond = 0;
    for (double x : v) beyond += x > t.value ? 1 : 0;
    EXPECT(beyond == 10);
  }
}

Span At(const std::string& name, double start_ms, double end_ms,
        int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = static_cast<int64_t>(start_ms * 1e6);
  s.end_ns = static_cast<int64_t>(end_ms * 1e6);
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  std::vector<Span> spans = {
      At("bench.job", 0, 100, -1),        // 0
      At("io.parse", 10, 30, 0),          // 1
      At("engine.execute", 20, 50, 0),    // 2: overlaps 1
      At("engine.kernel", 25, 45, 2),     // 3: grandchild of 0
      At("check.verify", 90, 120, 0),     // 4: runs past its parent
      At("bench.job", 200, 210, -1),      // 5: a second root
  };
  std::vector<double> self = SelfMillis(spans);
  // Root 0: children cover [10,50] and [90,100] = 50 ms.
  EXPECT(Near(self[0], 50.0));
  EXPECT(Near(self[1], 20.0));
  EXPECT(Near(self[2], 10.0));  // 30 minus its child's 20
  EXPECT(Near(self[3], 20.0));
  EXPECT(Near(self[4], 30.0));
  EXPECT(Near(self[5], 10.0));
  std::map<std::string, double> by_layer = SelfMillisByLayer(spans);
  EXPECT(Near(by_layer["bench"], 60.0));
  EXPECT(Near(by_layer["engine"], 30.0));
  EXPECT(Near(by_layer["io"], 20.0));
  EXPECT(Near(by_layer["check"], 30.0));
  EXPECT(LayerOf("engine.exec.tN") == "engine");
  EXPECT(LayerOf("bench") == "bench");
}

void TestTracer() {
  Tracer off(false);
  {
    ScopedSpan a(off, "bench.job", 1);
    EXPECT(a.index() == -1);
  }
  EXPECT(off.spans().empty());

  Tracer tracer(true);
  {
    ScopedSpan root(tracer, "bench.job", 7);
    { ScopedSpan child(tracer, "io.parse", 7); }
    {
      ScopedSpan child(tracer, "engine.execute", 7);
      ScopedSpan grandchild(tracer, "columnar.convert", 7);
    }
  }
  // A span opened on another thread is a root there.
  std::thread([&tracer] { ScopedSpan s(tracer, "net.optimize", 8); }).join();
  std::vector<Span> spans = tracer.spans();
  EXPECT(spans.size() == 5);
  EXPECT(spans[0].parent == -1);
  EXPECT(spans[1].parent == 0);
  EXPECT(spans[2].parent == 0);
  EXPECT(spans[3].parent == 2);
  EXPECT(spans[4].parent == -1);
  EXPECT(spans[3].op == 7 && spans[4].op == 8);
  for (const Span& s : spans) EXPECT(s.end_ns >= s.start_ns);
  std::vector<double> self = SelfMillis(spans);
  for (double s : self) EXPECT(s >= 0.0);
}

void TestBacklog() {
  // Flat: outstanding hovers around 3 for the whole run.
  std::vector<BacklogSample> flat;
  for (int i = 0; i < 1000; ++i) flat.push_back({i * 1.0, 3.0 + (i % 3)});
  EXPECT(!BacklogGrows(flat, 1000, 4));
  // Overload: outstanding grows linearly, 0.2 per ms.
  std::vector<BacklogSample> growing;
  for (int i = 0; i < 1000; ++i) growing.push_back({i * 1.0, i * 0.2});
  EXPECT(BacklogGrows(growing, 1000, 4));
  // A start-up burst that drains by mid-run is not growth.
  std::vector<BacklogSample> burst;
  for (int i = 0; i < 1000; ++i) {
    burst.push_back({i * 1.0, i < 300 ? 50.0 - i / 6.0 : 1.0});
  }
  EXPECT(!BacklogGrows(burst, 1000, 4));
  // Growth smaller than the slack is tolerated.
  std::vector<BacklogSample> slow;
  for (int i = 0; i < 1000; ++i) slow.push_back({i * 1.0, i * 0.004});
  EXPECT(!BacklogGrows(slow, 1000, 4));
  EXPECT(!BacklogGrows({}, 1000, 4));
}

void TestFingerprints() {
  auto row = [](int64_t k, const std::string& s) {
    etlopt::Record r;
    r.Append(etlopt::Value::Int(k));
    r.Append(etlopt::Value::String(s));
    return r;
  };
  std::vector<etlopt::Record> a = {row(1, "x"), row(2, "y"), row(2, "y")};
  std::vector<etlopt::Record> b = {row(2, "y"), row(1, "x"), row(2, "y")};
  std::vector<etlopt::Record> c = {row(2, "y"), row(1, "x"), row(3, "y")};
  std::vector<etlopt::Record> d = {row(1, "x"), row(2, "y")};
  EXPECT(RowsMultisetFingerprint(a) == RowsMultisetFingerprint(b));
  EXPECT(RowsMultisetFingerprint(a) != RowsMultisetFingerprint(c));
  EXPECT(RowsMultisetFingerprint(a) != RowsMultisetFingerprint(d));
  std::map<std::string, std::vector<etlopt::Record>> ta = {{"DW", a}};
  std::map<std::string, std::vector<etlopt::Record>> tb = {{"DW", b}};
  std::map<std::string, std::vector<etlopt::Record>> tc = {{"DW2", a}};
  EXPECT(TargetsFingerprint(ta) == TargetsFingerprint(tb));
  EXPECT(TargetsFingerprint(ta) != TargetsFingerprint(tc));
}

void TestSeedDeterminism() {
  EXPECT(SeededOrder(8, 3) == SeededOrder(8, 3));
  EXPECT(SeededOrder(8, 3) != SeededOrder(8, 4));

  auto names = [](const std::vector<JobSpec>& jobs) {
    std::vector<std::string> out;
    for (const JobSpec& j : jobs) {
      out.push_back(j.name + "/" + std::to_string(j.input_seed));
    }
    return out;
  };
  const std::vector<JobSpec> first = NightlyJobList(5);
  EXPECT(names(first) == names(NightlyJobList(5)));
  EXPECT(names(first) != names(NightlyJobList(6)));
  EXPECT(first.size() == 5);

  // Same seed, same inputs: fingerprints of the first job's generated
  // input agree across calls and differ for another seed.
  etlopt::GeneratorOptions gen;
  gen.category = first[0].category;
  gen.seed = first[0].generator_seed;
  auto generated = etlopt::GenerateWorkflow(gen);
  EXPECT(generated.ok());
  if (!generated.ok()) return;
  etlopt::InputGenOptions input;
  input.rows_per_source = 500;
  auto fingerprint = [&](uint64_t input_seed) {
    return InputFingerprint(
        etlopt::GenerateInputFor(generated->workflow, input_seed, input));
  };
  EXPECT(fingerprint(first[0].input_seed) ==
         fingerprint(NightlyJobList(5)[0].input_seed));
  const std::vector<JobSpec> second = NightlyJobList(6);
  const JobSpec* other = nullptr;
  for (const JobSpec& j : second) {
    if (j.name == first[0].name) other = &j;
  }
  EXPECT(other != nullptr);
  if (other != nullptr) {
    EXPECT(fingerprint(first[0].input_seed) != fingerprint(other->input_seed));
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestNearestRank();
  perfbench::TestTail();
  perfbench::TestSelfTime();
  perfbench::TestTracer();
  perfbench::TestBacklog();
  perfbench::TestFingerprints();
  perfbench::TestSeedDeterminism();
  if (perfbench::failures != 0) {
    std::printf("%d helper check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("all helper checks passed\n");
  return 0;
}
