// K-tenant shared-result-cache bench: the tentpole gate of the shared
// intermediate-result cache. K=8 tenants run workflows generated with
// GeneratorOptions::backbone_overlap swept over {0, 0.5, 1.0}; at each
// overlap the bench measures total executed work (sum of rows produced
// by actually-executed activity nodes) across all tenants, cached vs.
// K independent uncached runs.
//
// Hard gates (full runs; ETLOPT_BENCH_QUICK=1 shrinks inputs and
// demotes them to informational):
//
//   1. At overlap=1.0 the cached fleet executes >= 3x less total work
//      than 8 independent uncached runs — superlinear sharing, since a
//      single tenant saves nothing.
//   2. Every tenant's cached output is byte-identical to its own
//      uncached run (target bytes and per-node rows_out).
//   3. Cache-off execution is bit-identical to the plain engine run
//      (the CacheOptions default must change nothing).
//
// The gated pass runs tenants as sequential arrivals (tenant t starts
// after t-1 finished) — the steady-state sharing a warm fleet sees. A
// second, informational pass starts all K tenants in the same instant
// on one thread each: simultaneous cold start is the cache's worst
// case (the deadlock-free lease protocol refuses to wait while holding
// a lease, so racing tenants degrade to recomputation), and the bench
// reports how much sharing survives it rather than gating on timing.
// Fleet wall time (sum of per-tenant ExecuteWorkflow calls, uncached vs
// the gated cached pass) is reported alongside the row counts so a
// probe that costs more than it saves shows up; it is informational and
// carries no gate. Emits BENCH_shared_cache.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/executor.h"
#include "service/shared_result_cache.h"
#include "suite_runner.h"
#include "workload/generator.h"

namespace {

using namespace etlopt;
using namespace etlopt::bench;

constexpr size_t kTenants = 8;

struct Tenant {
  Workflow workflow;
  ExecutionInput input;
  ExecutionResult uncached;
  size_t uncached_work = 0;
  double uncached_ms = 0;
};

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

size_t TotalRowsOut(const ExecutionResult& r) {
  size_t n = 0;
  for (const auto& [id, rows] : r.rows_out) n += rows;
  return n;
}

bool SameResult(const ExecutionResult& a, const ExecutionResult& b) {
  return a.target_data == b.target_data && a.rows_out == b.rows_out;
}

std::vector<Tenant> MakeTenants(double overlap, size_t rows_per_source) {
  std::vector<Tenant> tenants(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    GeneratorOptions gen;
    gen.category = WorkloadCategory::kMedium;
    gen.seed = 7000 + t;
    gen.backbone_overlap = overlap;
    auto g = GenerateWorkflow(gen);
    ETLOPT_CHECK_OK(g.status());
    tenants[t].workflow = std::move(g->workflow);
    // One shared input seed: overlapping flows read identical source
    // data across tenants — the premise of cross-tenant sharing.
    tenants[t].input =
        GenerateInputFor(tenants[t].workflow, 4242, rows_per_source);
    auto t0 = std::chrono::steady_clock::now();
    auto r = ExecuteWorkflow(tenants[t].workflow, tenants[t].input);
    tenants[t].uncached_ms = MillisSince(t0);
    ETLOPT_CHECK_OK(r.status());
    tenants[t].uncached = std::move(r).value();
    tenants[t].uncached_work = TotalRowsOut(tenants[t].uncached);
  }
  return tenants;
}

struct OverlapFigures {
  size_t uncached_work = 0;
  size_t cached_work = 0;        // sequential arrivals (the gated pass)
  size_t concurrent_work = 0;    // simultaneous cold start (informational)
  double uncached_ms = 0;        // fleet wall time, summed over tenants
  double cached_ms = 0;          // same, for the gated cached pass
  double work_ratio = 0;
  double concurrent_ratio = 0;
  double hit_rate_pct = 0;
  size_t cache_bytes = 0;
  uint64_t concurrent_coalesced = 0;
  uint64_t concurrent_busy = 0;
  bool byte_identical = true;
};

double Ratio(size_t uncached, size_t cached) {
  return cached == 0 ? 0.0
                     : static_cast<double>(uncached) /
                           static_cast<double>(cached);
}

OverlapFigures RunOverlap(double overlap, size_t rows_per_source) {
  std::vector<Tenant> tenants = MakeTenants(overlap, rows_per_source);

  OverlapFigures figures;
  for (const Tenant& t : tenants) {
    figures.uncached_work += t.uncached_work;
    figures.uncached_ms += t.uncached_ms;
  }

  // Gate 3 material: the cache-off path (default CacheOptions) must be
  // bit-identical to the plain engine run.
  {
    auto off = ExecuteWorkflow(tenants[0].workflow, tenants[0].input,
                               CacheOptions{});
    ETLOPT_CHECK_OK(off.status());
    if (!SameResult(*off, tenants[0].uncached)) {
      std::fprintf(stderr, "FAIL: cache-off run differs from plain run\n");
      std::exit(1);
    }
  }

  // Gated pass: sequential arrivals against one shared cache. Tenant 0
  // pays full price and publishes; later tenants hit at every shared
  // cut point and compute only their tenant-specific work.
  {
    SharedResultCache cache;
    CacheOptions copts;
    copts.cache = &cache;
    for (size_t t = 0; t < kTenants; ++t) {
      auto t0 = std::chrono::steady_clock::now();
      auto r = ExecuteWorkflow(tenants[t].workflow, tenants[t].input, copts);
      figures.cached_ms += MillisSince(t0);
      ETLOPT_CHECK_OK(r.status());
      figures.cached_work += r->cache.rows_computed;
      if (!SameResult(*r, tenants[t].uncached)) {
        figures.byte_identical = false;
      }
    }
    ResultCacheStats stats = cache.Stats();
    figures.hit_rate_pct = 100.0 * stats.hit_rate();
    figures.cache_bytes = stats.bytes;
  }
  figures.work_ratio = Ratio(figures.uncached_work, figures.cached_work);

  // Informational pass: all K tenants start in the same instant against
  // a fresh cache (worst case for the no-wait-while-leasing protocol).
  {
    SharedResultCache cache;
    std::vector<ExecutionResult> results(kTenants);
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        CacheOptions copts;
        copts.cache = &cache;
        auto r = ExecuteWorkflow(tenants[t].workflow, tenants[t].input, copts);
        if (!r.ok()) {
          failed = true;
          return;
        }
        results[t] = std::move(r).value();
      });
    }
    for (std::thread& th : threads) th.join();
    if (failed.load()) {
      std::fprintf(stderr, "FAIL: concurrent cached execution errored\n");
      std::exit(1);
    }
    for (size_t t = 0; t < kTenants; ++t) {
      figures.concurrent_work += results[t].cache.rows_computed;
      if (!SameResult(results[t], tenants[t].uncached)) {
        figures.byte_identical = false;
      }
    }
    ResultCacheStats stats = cache.Stats();
    figures.concurrent_coalesced = stats.coalesced;
    figures.concurrent_busy = stats.busy;
  }
  figures.concurrent_ratio =
      Ratio(figures.uncached_work, figures.concurrent_work);
  return figures;
}

int Run() {
  const bool quick = []() {
    const char* q = std::getenv("ETLOPT_BENCH_QUICK");
    return q != nullptr && q[0] == '1';
  }();
  const size_t rows_per_source = quick ? 200 : 2000;

  JsonReport report("shared_cache");
  report.Add("config.tenants", static_cast<double>(kTenants), "tenants");
  report.Add("config.rows_per_source",
             static_cast<double>(rows_per_source), "rows");

  double gate_ratio = 0.0;
  bool all_identical = true;
  for (double overlap : {0.0, 0.5, 1.0}) {
    OverlapFigures f = RunOverlap(overlap, rows_per_source);
    std::printf(
        "overlap=%.1f  work uncached=%10zu cached=%10zu ratio=%6.2fx  "
        "hit=%5.1f%% bytes=%zu  wall uncached=%.1fms cached=%.1fms  "
        "concurrent=%6.2fx (coalesced=%llu busy=%llu) %s\n",
        overlap, f.uncached_work, f.cached_work, f.work_ratio,
        f.hit_rate_pct, f.cache_bytes, f.uncached_ms, f.cached_ms,
        f.concurrent_ratio,
        static_cast<unsigned long long>(f.concurrent_coalesced),
        static_cast<unsigned long long>(f.concurrent_busy),
        f.byte_identical ? "" : "OUTPUT-MISMATCH");
    const std::string prefix = StrFormat("overlap_%.0f", overlap * 100.0);
    report.Add(prefix + ".uncached_work",
               static_cast<double>(f.uncached_work), "rows");
    report.Add(prefix + ".cached_work",
               static_cast<double>(f.cached_work), "rows");
    report.Add(prefix + ".work_ratio", f.work_ratio, "x");
    report.Add(prefix + ".hit_rate", f.hit_rate_pct, "percent");
    report.Add(prefix + ".cache_bytes",
               static_cast<double>(f.cache_bytes), "bytes");
    report.Add(prefix + ".uncached_wall_ms", f.uncached_ms, "ms");
    report.Add(prefix + ".cached_wall_ms", f.cached_ms, "ms");
    report.Add(prefix + ".concurrent_work_ratio", f.concurrent_ratio, "x");
    report.Add(prefix + ".concurrent_coalesced",
               static_cast<double>(f.concurrent_coalesced), "flights");
    report.Add(prefix + ".concurrent_busy",
               static_cast<double>(f.concurrent_busy), "flights");
    if (overlap == 1.0) gate_ratio = f.work_ratio;
    all_identical = all_identical && f.byte_identical;
  }
  report.Write();

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: cached tenant outputs differ from uncached runs\n");
    return 1;
  }
  std::printf("full-overlap work reduction at K=%zu: %.2fx (gate: >= 3x)\n",
              kTenants, gate_ratio);
  if (gate_ratio < 3.0) {
    std::fprintf(stderr, "%s: %.2fx < 3x work-reduction gate at K=%zu\n",
                 quick ? "note (quick mode)" : "FAIL", gate_ratio, kTenants);
    if (!quick) return 1;
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
