// nightly_batch: the paper's use case. Closed-loop sequential jobs; each
// job takes a workflow's DSL text through ParseWorkflowText, HS-Greedy
// and the vectorized engine at `loop_threads` workers to its warehouse rows.
//
// Why: engine operators, row<->column conversion and search do most of
// the work here; the network, the plan cache, the result cache and
// checkpoints do none. The vectorized engine is the one the ROADMAP
// keeps.
//
// Sizes: five workflows, the generator's medium family at generator
// seeds 1-3 and large family at seeds 1-2 (39-76 nodes), each fed 60k
// source rows split
// evenly over its sources (key domain 5000). HS-Greedy runs with a
// 300-state budget so that execution, not search, takes most of a job's
// wall. The workflow set is fixed so that runs with different --seed
// values measure the same jobs; --seed draws each job's input data and
// the order in which jobs arrive.
//
// Oracles (setup): the targets of the serial ExecuteWorkflow on the
// *unoptimized* workflow (the paper's equivalence), and rows_out plus
// plan signature of the serial engine on the HS-Greedy plan.

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "columnar/record_batch.h"
#include "common/macros.h"
#include "cost/cost_model.h"
#include "engine/executor.h"
#include "engine/parallel.h"
#include "engine/vectorized.h"
#include "io/text_format.h"
#include "optimizer/search.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace etlopt;

// An odd number of jobs, so the median job latency falls inside one
// job's samples instead of between two jobs.
constexpr std::pair<WorkloadCategory, uint64_t> kJobs[] = {
    {WorkloadCategory::kMedium, 1}, {WorkloadCategory::kMedium, 2},
    {WorkloadCategory::kMedium, 3}, {WorkloadCategory::kLarge, 1},
    {WorkloadCategory::kLarge, 2}};
constexpr size_t kRowsPerJob = 60000;
constexpr int64_t kKeyDomain = 5000;
constexpr size_t kSearchStates = 300;

struct Job {
  std::string name;
  std::string text;   // the job's input: canonical DSL
  Workflow initial;   // parsed `text`, for the control runs
  Workflow plan;      // HS-Greedy's plan, for the control runs
  ExecutionInput input;
  size_t source_rows = 0;
  uint64_t input_fingerprint = 0;
  double model_gain_pct = 0.0;
  // Oracles.
  uint64_t targets_fingerprint = 0;
  std::map<NodeId, size_t> rows_out;
  uint64_t plan_signature = 0;
};

// One measured job's split of its wall.
struct JobTiming {
  double parse_ms = 0, search_ms = 0, exec_ms = 0, wall_ms = 0;
  size_t states = 0;
  double delta_share = 0;
};

double TimedMs(const std::function<void()>& fn) {
  Clock::time_point start = Clock::now();
  fn();
  return MillisSince(start);
}

class NightlyBatch : public Workload {
 public:
  explicit NightlyBatch(const RunConfig& config) : config_(config) {
    search_.max_states = kSearchStates;
    search_.max_millis = 600000;  // the state budget binds, never the clock
    exec_.engine = EngineKind::kVectorized;
    exec_.num_threads = config.loop_threads;
  }

  Status Setup() override {
    jobs_.clear();
    for (const JobSpec& spec : NightlyJobList(config_.seed)) {
      Job job;
      ETLOPT_RETURN_NOT_OK(MakeJob(spec, job));
      jobs_.push_back(std::move(job));
    }
    return Status::OK();
  }

  Phase Measure(double seconds, Tracer& tracer) override {
    Phase phase;
    timings_.clear();
    double round_ms = 0;
    Clock::time_point start = Clock::now();
    for (uint64_t k = 0; MillisSince(start) < seconds * 1000.0; ++k) {
      if (k % jobs_.size() == 0 && k > 0) {
        phase.round_ops_per_s.push_back(1000.0 * jobs_.size() / round_ms);
        round_ms = 0;
      }
      const Job& job = jobs_[k % jobs_.size()];
      const uint64_t op = k + 1;
      ScopedSpan root(tracer, "bench.job", op);
      JobTiming t;
      bool ok = false;
      Clock::time_point job_start = Clock::now();
      StatusOr<Workflow> workflow = Status::Internal("not run");
      {
        ScopedSpan span(tracer, "io.parse", op);
        workflow = ParseWorkflowText(job.text);
      }
      t.parse_ms = MillisSince(job_start);
      StatusOr<SearchResult> searched = Status::Internal("not run");
      if (workflow.ok()) {
        ScopedSpan span(tracer, "optimizer.search", op);
        Clock::time_point s = Clock::now();
        searched = HeuristicSearchGreedy(*workflow, model_, search_);
        t.search_ms = MillisSince(s);
      }
      StatusOr<ExecutionResult> result = Status::Internal("not run");
      if (searched.ok()) {
        ScopedSpan span(tracer, "engine.execute", op);
        Clock::time_point s = Clock::now();
        result = ExecuteWith(searched->best.workflow, job.input, exec_);
        t.exec_ms = MillisSince(s);
      }
      t.wall_ms = MillisSince(job_start);
      round_ms += t.wall_ms;
      {
        ScopedSpan span(tracer, "check.verify", op);
        ok = result.ok() &&
             searched->best.signature_hash == job.plan_signature &&
             result->rows_out == job.rows_out &&
             TargetsFingerprint(result->target_data) ==
                 job.targets_fingerprint;
      }
      ++phase.attempted;
      if (!ok) {
        ++phase.failed;
        phase.latency_ms.push_back(kFailedLatency);
        continue;
      }
      t.states = searched->visited_states;
      t.delta_share = searched->perf.delta_share();
      phase.latency_ms.push_back(t.wall_ms);
      phase.busy_ms += t.wall_ms;
      phase.source_rows += static_cast<double>(job.source_rows);
      timings_.push_back(t);
    }
    return phase;
  }

  void ReportEndToEnd(const Phase& phase, Report& report) override {
    ReportClosedLoop(phase, "jobs", report);
    double search = 0, exec = 0, parse = 0, wall = 0;
    for (const JobTiming& t : timings_) {
      parse += t.parse_ms;
      search += t.search_ms;
      exec += t.exec_ms;
      wall += t.wall_ms;
    }
    if (wall > 0) {
      report.Note(Format(
          "job wall split: execution %.1f%%, search %.1f%%, parse %.2f%%",
          100 * exec / wall, 100 * search / wall, 100 * parse / wall));
    }
    for (size_t i = 0; i < jobs_.size(); ++i) {
      const Job& job = jobs_[i];
      report.Note(Format("job %zu: %s, %zu source rows, input %016llx",
                         i, job.name.c_str(), job.source_rows,
                         static_cast<unsigned long long>(
                             job.input_fingerprint)));
    }
  }

  void ReportLayers(const Phase&, LayerValues& layers,
                    Report& report) override {
    std::vector<double> parse_us, search_ms, delta_share;
    double states = 0, exec = 0, wall = 0;
    for (const JobTiming& t : timings_) {
      parse_us.push_back(t.parse_ms * 1000.0);
      search_ms.push_back(t.search_ms);
      delta_share.push_back(t.delta_share);
      states += static_cast<double>(t.states);
      exec += t.exec_ms;
      wall += t.wall_ms;
    }
    const double n = std::max<double>(1.0, timings_.size());
    layers["io.parse_us"] = Median(parse_us);
    layers["optimizer.search_ms"] = Median(search_ms);
    layers["optimizer.states_visited"] = states / n;
    layers["cost.delta_recost_share"] = Median(delta_share);
    layers["engine.exec_share"] = wall > 0 ? exec / wall : 0.0;

    // Control measurements, one pass over the distinct jobs. Every
    // engine's output is checked against the job's oracles.
    auto check = [&report](const StatusOr<ExecutionResult>& r,
                           const Job& job, bool same_plan) {
      ++report.attempted;
      bool ok = r.ok() && TargetsFingerprint(r->target_data) ==
                              job.targets_fingerprint;
      if (ok && same_plan) ok = r->rows_out == job.rows_out;
      if (!ok) ++report.failed;
    };
    std::vector<double> state_eval_us;
    double serial = 0, vec1 = 0, vecn = 0, par1 = 0, parn = 0;
    double from_rows = 0, to_rows = 0, input_copy = 0;
    double fallback_rows = 0, all_rows = 0;
    double model_gain = 0, measured_gain = 0, gap = 0;
    for (const Job& job : jobs_) {
      std::vector<double> evals;
      for (int i = 0; i < 5; ++i) {
        Workflow copy = job.initial;
        evals.push_back(1000.0 * TimedMs([&] {
                          (void)MakeState(std::move(copy), model_);
                        }));
      }
      state_eval_us.push_back(Median(evals));

      // The paper's claim as measured wall: serial engine, unoptimized
      // against optimized, alternated, median of three each.
      StatusOr<ExecutionResult> r = Status::Internal("not run");
      std::vector<double> initial_ms, plan_ms;
      for (int i = 0; i < 3; ++i) {
        initial_ms.push_back(
            TimedMs([&] { r = ExecuteWorkflow(job.initial, job.input); }));
        check(r, job, false);
        plan_ms.push_back(
            TimedMs([&] { r = ExecuteWorkflow(job.plan, job.input); }));
        check(r, job, true);
      }
      const double serial_initial = Median(initial_ms);
      const double serial_plan = Median(plan_ms);
      serial += serial_plan;
      const double measured =
          100.0 * (serial_initial - serial_plan) / serial_initial;
      model_gain += job.model_gain_pct;
      measured_gain += measured;
      gap += std::abs(job.model_gain_pct - measured);
      report.Note(Format("gain %s: model %.1f%%, measured serial %.1f%% "
                         "(%.1f -> %.1f ms)",
                         job.name.c_str(), job.model_gain_pct, measured,
                         serial_initial, serial_plan));

      VectorizedOptions v;
      v.num_threads = 1;
      vec1 += TimedMs([&] { r = ExecuteVectorized(job.plan, job.input, v); });
      check(r, job, true);
      VectorizedStats stats;
      v.num_threads = config_.threads;
      vecn += TimedMs(
          [&] { r = ExecuteVectorized(job.plan, job.input, v, &stats); });
      check(r, job, true);
      fallback_rows += static_cast<double>(stats.fallback_rows);
      all_rows += static_cast<double>(stats.fallback_rows + stats.vectorized_rows);

      ParallelOptions p;
      p.num_threads = 1;
      par1 += TimedMs([&] { r = ExecuteParallel(job.plan, job.input, p); });
      check(r, job, true);
      p.num_threads = config_.threads;
      parn += TimedMs([&] { r = ExecuteParallel(job.plan, job.input, p); });
      check(r, job, true);

      input_copy += TimedMs([&] {
        ExecutionInput copy = job.input;
        (void)copy;
      });
      for (NodeId id : job.plan.SourceRecordSets()) {
        const RecordSetDef& def = job.plan.recordset(id);
        const std::vector<Record>& rows = job.input.source_data.at(def.name);
        std::vector<RecordBatch> batches;
        from_rows += TimedMs(
            [&] { batches = BatchRows(def.schema, rows, kDefaultBatchSize); });
        std::vector<Record> back;
        to_rows += TimedMs([&] { back = FlattenBatches(batches); });
        ++report.attempted;
        if (back != rows) ++report.failed;
      }
    }
    const double jobs = static_cast<double>(jobs_.size());
    layers["cost.state_eval_us"] = Median(state_eval_us);
    layers["optimizer.model_gain_pct"] = model_gain / jobs;
    layers["optimizer.measured_gain_pct"] = measured_gain / jobs;
    layers["optimizer.gain_gap_pct"] = gap / jobs;
    layers["engine.exec_ms.serial"] = serial;
    layers["engine.exec_ms.vectorized_t1"] = vec1;
    layers["engine.exec_ms.vectorized_tN"] = vecn;
    layers["engine.exec_ms.parallel_t1"] = par1;
    layers["engine.exec_ms.parallel_tN"] = parn;
    layers["engine.scaling_tN_over_t1"] = vecn > 0 ? vec1 / vecn : 0.0;
    layers["columnar.from_rows_ms"] = from_rows;
    layers["columnar.to_rows_ms"] = to_rows;
    layers["columnar.fallback_row_share"] =
        all_rows > 0 ? fallback_rows / all_rows : 0.0;
    layers["records.input_copy_ms"] = input_copy;
    report.Note(Format("engine figures: one pass over the %zu jobs, tN = %zu",
                       jobs_.size(), config_.threads));
    ReportServingLayers(layers, report);
  }

  // The serving layers (service, net, loadgen, client-side printing),
  // measured by a short plan_service open loop. plan_service is not one
  // of the gated workloads (see README.md), so its layers ride on this
  // traced run.
  void ReportServingLayers(LayerValues& layers, Report& report) const {
    RunConfig serving = config_;
    serving.seconds = kServingSeconds;
    std::unique_ptr<Workload> service = MakePlanService(serving);
    ++report.attempted;
    Status ready = service->Setup();
    if (!ready.ok()) {
      ++report.failed;
      return;
    }
    Tracer off(false);
    Phase phase = service->Measure(serving.seconds, off);
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    LayerValues served;
    service->ReportLayers(phase, served, report);
    for (const auto& [name, value] : served) {
      if (name.rfind("service.", 0) == 0 || name.rfind("net.", 0) == 0 ||
          name.rfind("loadgen.", 0) == 0 || name == "io.print_us") {
        layers[name] = value;
      }
    }
    report.Note(Format("serving layers: a %.0f s plan_service open loop",
                       kServingSeconds));
  }

 private:
  static constexpr double kServingSeconds = 4;
  static constexpr double kFailedLatency =
      std::numeric_limits<double>::infinity();

  Status MakeJob(const JobSpec& spec, Job& job) {
    GeneratorOptions gen;
    gen.category = spec.category;
    gen.seed = spec.generator_seed;
    ETLOPT_ASSIGN_OR_RETURN(GeneratedWorkflow generated,
                            GenerateWorkflow(gen));
    job.name = spec.name;
    ETLOPT_ASSIGN_OR_RETURN(job.text, PrintWorkflowText(generated.workflow));
    ETLOPT_ASSIGN_OR_RETURN(job.initial, ParseWorkflowText(job.text));

    InputGenOptions input;
    input.rows_per_source =
        kRowsPerJob / std::max<size_t>(1, job.initial.SourceRecordSets().size());
    input.key_domain = kKeyDomain;
    job.input = GenerateInputFor(job.initial, spec.input_seed, input);
    job.source_rows = SourceRows(job.input);
    job.input_fingerprint = InputFingerprint(job.input);

    ETLOPT_ASSIGN_OR_RETURN(ExecutionResult reference,
                            ExecuteWorkflow(job.initial, job.input));
    job.targets_fingerprint = TargetsFingerprint(reference.target_data);

    ETLOPT_ASSIGN_OR_RETURN(SearchResult searched,
                            HeuristicSearchGreedy(job.initial, model_, search_));
    job.model_gain_pct = searched.improvement_pct();
    job.plan_signature = searched.best.signature_hash;
    job.plan = std::move(searched.best.workflow);
    ETLOPT_ASSIGN_OR_RETURN(ExecutionResult planned,
                            ExecuteWorkflow(job.plan, job.input));
    if (TargetsFingerprint(planned.target_data) != job.targets_fingerprint) {
      return Status::Internal("HS-Greedy plan of " + job.name +
                              " changes the warehouse rows");
    }
    job.rows_out = std::move(planned.rows_out);
    return Status::OK();
  }

  RunConfig config_;
  LinearLogCostModel model_;
  SearchOptions search_;
  ExecutionOptions exec_;
  std::vector<Job> jobs_;  // in arrival order
  std::vector<JobTiming> timings_;  // last Measure()'s successful jobs
};

}  // namespace

std::vector<JobSpec> NightlyJobList(uint64_t seed) {
  std::vector<JobSpec> specs;
  for (const auto& [category, gen_seed] : kJobs) {
    JobSpec spec;
    spec.name = Format("%s-%llu",
                       std::string(WorkloadCategoryToString(category)).c_str(),
                       static_cast<unsigned long long>(gen_seed));
    spec.category = category;
    spec.generator_seed = gen_seed;
    spec.input_seed = Mix64(seed * 1009 + specs.size());
    specs.push_back(std::move(spec));
  }
  std::vector<JobSpec> arrival;
  for (size_t i : SeededOrder(specs.size(), Mix64(seed))) {
    arrival.push_back(specs[i]);
  }
  return arrival;
}

std::unique_ptr<Workload> MakeNightlyBatch(const RunConfig& config) {
  return std::make_unique<NightlyBatch>(config);
}

}  // namespace perfbench
