// tenant_overlap: several "nights". Each night a fresh source snapshot
// arrives, and the medium workflows of kTenants tenants, generated with
// backbone_overlap = 0.5, run on it one after another from one thread.
// Each executes its setup-optimized (HS-Greedy) plan on the vectorized
// engine at `loop_threads` workers through one SharedResultCache per night.
//
// Why: the engine sees many mid-size runs rather than a few huge ones,
// and the result cache both reads and writes. HS-Greedy plans share no
// cached subgraph across tenants today (a probe found 0 hits in 60
// probes, against 7 of 42 for unoptimized plans): Distribute pushes each
// tenant's own filters into the shared flows, so the shared prefixes
// differ. This workload therefore shows the cache's overhead today and
// will show any gain from cache-aware planning later.
//
// Sizes: 7 tenants (generator seeds 7000-7006, fixed so every --seed
// runs the same plans), 6000 rows per source, two source snapshots
// drawn from --seed that alternate night by night; --seed also draws
// each night's arrival order. The cache budget (kCacheBudget) is below
// what one night publishes; setup measures and prints both.
//
// Oracle (setup): each tenant's targets and rows_out from the serial
// engine without a cache, per snapshot.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/macros.h"
#include "cost/cost_model.h"
#include "engine/executor.h"
#include "graph/subgraph_signature.h"
#include "optimizer/search.h"
#include "service/shared_result_cache.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace etlopt;

// Odd, so the median tenant-run latency falls inside one tenant's runs.
constexpr size_t kTenants = 7;
constexpr uint64_t kFirstGeneratorSeed = 7000;
constexpr double kOverlap = 0.5;
constexpr size_t kRowsPerSource = 6000;
constexpr int64_t kKeyDomain = 2000;
constexpr size_t kSnapshots = 2;
constexpr size_t kSearchStates = 300;
constexpr size_t kCacheBudget = static_cast<size_t>(4) << 20;

struct TenantRun {
  ExecutionInput input;
  size_t source_rows = 0;
  uint64_t targets_fingerprint = 0;  // oracle
  std::map<NodeId, size_t> rows_out;  // oracle
};

struct Tenant {
  Workflow plan;
  std::vector<TenantRun> runs;  // one per snapshot
};

// Totals over the nights of one Measure().
struct CacheTotals {
  uint64_t hits = 0, misses = 0, evictions = 0;
  double end_bytes = 0;
  double rows_computed = 0, rows_out = 0;
  double exec_ms = 0, night_ms = 0;
  size_t nights = 0;
};

double TotalRowsOut(const ExecutionResult& r) {
  double n = 0;
  for (const auto& [id, rows] : r.rows_out) n += static_cast<double>(rows);
  return n;
}

class TenantOverlap : public Workload {
 public:
  explicit TenantOverlap(const RunConfig& config) : config_(config) {
    search_.max_states = kSearchStates;
    search_.max_millis = 600000;
  }

  Status Setup() override {
    tenants_.assign(kTenants, Tenant{});
    for (size_t t = 0; t < kTenants; ++t) {
      GeneratorOptions gen;
      gen.category = WorkloadCategory::kMedium;
      gen.seed = kFirstGeneratorSeed + t;
      gen.backbone_overlap = kOverlap;
      ETLOPT_ASSIGN_OR_RETURN(GeneratedWorkflow generated,
                              GenerateWorkflow(gen));
      ETLOPT_ASSIGN_OR_RETURN(
          SearchResult searched,
          HeuristicSearchGreedy(generated.workflow, model_, search_));
      tenants_[t].plan = std::move(searched.best.workflow);
      for (size_t k = 0; k < kSnapshots; ++k) {
        InputGenOptions input;
        input.rows_per_source = kRowsPerSource;
        input.key_domain = kKeyDomain;
        TenantRun run;
        // One seed per snapshot: flows the tenants share read identical
        // source rows.
        run.input = GenerateInputFor(tenants_[t].plan,
                                     Mix64(config_.seed * 131 + k), input);
        run.source_rows = SourceRows(run.input);
        ETLOPT_ASSIGN_OR_RETURN(ExecutionResult reference,
                                ExecuteWorkflow(tenants_[t].plan, run.input));
        run.targets_fingerprint = TargetsFingerprint(reference.target_data);
        run.rows_out = std::move(reference.rows_out);
        tenants_[t].runs.push_back(std::move(run));
      }
    }
    // What one night publishes with an unbounded cache, against the
    // budget the measured nights run under.
    SharedResultCacheOptions unbounded;
    unbounded.byte_budget = std::numeric_limits<size_t>::max() / 2;
    SharedResultCache cache(unbounded);
    for (size_t t = 0; t < kTenants; ++t) {
      ETLOPT_ASSIGN_OR_RETURN(ExecutionResult r,
                              Execute(t, 0, &cache));
      if (!Matches(r, tenants_[t].runs[0])) {
        return Status::Internal("cached tenant run differs from its oracle");
      }
    }
    night_published_bytes_ = cache.Stats().bytes;
    if (night_published_bytes_ <= kCacheBudget) {
      return Status::Internal(Format(
          "one night publishes %zu bytes, within the %zu-byte budget",
          night_published_bytes_, kCacheBudget));
    }
    return Status::OK();
  }

  Phase Measure(double seconds, Tracer& tracer) override {
    Phase phase;
    totals_ = CacheTotals{};
    Clock::time_point start = Clock::now();
    for (uint64_t night = 0; MillisSince(start) < seconds * 1000.0; ++night) {
      RunNight(night, /*cached=*/true, tracer, phase, &totals_);
    }
    return phase;
  }

  void ReportEndToEnd(const Phase& phase, Report& report) override {
    ReportClosedLoop(phase, "tenant runs", report);
    report.Note(Format(
        "%zu nights of %zu tenants; result cache budget %zu bytes, one "
        "night publishes %zu bytes; hits %llu of %llu probes",
        totals_.nights, kTenants, kCacheBudget, night_published_bytes_,
        static_cast<unsigned long long>(totals_.hits),
        static_cast<unsigned long long>(totals_.hits + totals_.misses)));
  }

  void ReportLayers(const Phase&, LayerValues& layers,
                    Report& report) override {
    const CacheTotals& c = totals_;
    const double probes = static_cast<double>(c.hits + c.misses);
    const double nights = std::max<double>(1.0, c.nights);
    layers["result_cache.hit_rate"] =
        probes > 0 ? static_cast<double>(c.hits) / probes : 0.0;
    layers["result_cache.work_ratio"] =
        c.rows_out > 0 ? c.rows_computed / c.rows_out : 0.0;
    layers["result_cache.evictions"] = static_cast<double>(c.evictions) / nights;
    layers["result_cache.bytes"] = c.end_bytes / nights;
    layers["engine.exec_share"] = c.night_ms > 0 ? c.exec_ms / c.night_ms : 0.0;

    // Cache-on against cache-off nights, alternated, untraced.
    Tracer off(false);
    Phase control;
    std::vector<double> on_ms, off_ms;
    for (uint64_t night = 0; night < 4; ++night) {
      CacheTotals on;
      RunNight(1000 + night, true, off, control, &on);
      on_ms.push_back(on.night_ms);
      CacheTotals plain;
      RunNight(1000 + night, false, off, control, &plain);
      off_ms.push_back(plain.night_ms);
    }
    report.attempted += control.attempted;
    report.failed += control.failed;
    layers["result_cache.overhead_ms"] = Median(on_ms) - Median(off_ms);
    layers["engine.exec_ms.vectorized_tN"] = Median(off_ms);

    std::vector<double> signature_us;
    SubgraphSignatureInputs inputs;
    inputs.source_fingerprint = [](const std::string& name) {
      return std::hash<std::string>{}(name);
    };
    inputs.lookup_fingerprint = inputs.source_fingerprint;
    for (const Tenant& t : tenants_) {
      for (int i = 0; i < 5; ++i) {
        Clock::time_point t0 = Clock::now();
        std::vector<uint64_t> sigs = AllSubgraphResultSignatures(t.plan, inputs);
        signature_us.push_back(1000.0 * MillisSince(t0));
        ++report.attempted;
        if (sigs.empty()) ++report.failed;
      }
    }
    layers["graph.signature_us"] = Median(signature_us);
    report.Note(Format("result cache budget %zu bytes; one night publishes "
                       "%zu bytes; engine.exec_ms.vectorized_tN is one "
                       "cache-off night of %zu tenant runs",
                       kCacheBudget, night_published_bytes_, kTenants));
  }

 private:
  StatusOr<ExecutionResult> Execute(size_t tenant, size_t snapshot,
                                    SharedResultCache* cache) const {
    ExecutionOptions exec;
    exec.engine = EngineKind::kVectorized;
    exec.num_threads = config_.loop_threads;
    exec.cache.cache = cache;
    return ExecuteWith(tenants_[tenant].plan,
                       tenants_[tenant].runs[snapshot].input, exec);
  }

  static bool Matches(const ExecutionResult& r, const TenantRun& oracle) {
    return r.rows_out == oracle.rows_out &&
           TargetsFingerprint(r.target_data) == oracle.targets_fingerprint;
  }

  void RunNight(uint64_t night, bool cached, Tracer& tracer, Phase& phase,
                CacheTotals* totals) {
    const size_t snapshot = night % kSnapshots;
    SharedResultCacheOptions options;
    options.byte_budget = kCacheBudget;
    SharedResultCache cache(options);
    ScopedSpan night_span(tracer, "bench.night", night + 1);
    Clock::time_point night_start = Clock::now();
    double round_ms = 0;
    for (size_t t : SeededOrder(kTenants, Mix64(config_.seed * 31 + night))) {
      const uint64_t op = (night + 1) * 100 + t;
      ScopedSpan root(tracer, "bench.tenant_run", op);
      const TenantRun& oracle = tenants_[t].runs[snapshot];
      Clock::time_point t0 = Clock::now();
      StatusOr<ExecutionResult> r = Status::Internal("not run");
      {
        ScopedSpan span(tracer, "engine.execute", op);
        r = Execute(t, snapshot, cached ? &cache : nullptr);
      }
      const double wall = MillisSince(t0);
      round_ms += wall;
      bool ok;
      {
        ScopedSpan span(tracer, "check.verify", op);
        ok = r.ok() && Matches(*r, oracle);
      }
      ++phase.attempted;
      if (!ok) {
        ++phase.failed;
        phase.latency_ms.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      phase.latency_ms.push_back(wall);
      phase.busy_ms += wall;
      phase.source_rows += static_cast<double>(oracle.source_rows);
      totals->exec_ms += wall;
      totals->rows_computed += static_cast<double>(r->cache.rows_computed);
      totals->rows_out += TotalRowsOut(*r);
    }
    totals->night_ms += MillisSince(night_start);
    phase.round_ops_per_s.push_back(1000.0 * kTenants / round_ms);
    const ResultCacheStats stats = cache.Stats();
    totals->hits += stats.hits;
    totals->misses += stats.misses;
    totals->evictions += stats.evictions;
    totals->end_bytes += static_cast<double>(stats.bytes);
    ++totals->nights;
  }

  RunConfig config_;
  LinearLogCostModel model_;
  SearchOptions search_;
  std::vector<Tenant> tenants_;
  size_t night_published_bytes_ = 0;
  CacheTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantOverlap(const RunConfig& config) {
  return std::make_unique<TenantOverlap>(config);
}

}  // namespace perfbench
