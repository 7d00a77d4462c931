#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "activity/templates.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// Source cardinalities are drawn uniformly from this range.
constexpr double kMinCardinality = 1000;
constexpr double kMaxCardinality = 50000;
// A generated event-time clock advances by a step drawn uniformly from
// [0, kEventTimeMaxStep] per row.
constexpr int64_t kEventTimeMaxStep = 20;

// Sizing knobs per category, tuned to land in the paper's 15-70 activity
// range (small ~15-20, medium ~40, large ~70).
struct CategoryParams {
  size_t flows;
  size_t min_flow_filters;
  size_t max_flow_filters;
  size_t post_filters;
  double aggregation_probability;
};

// Seed of the tenant-independent stream overlap mode draws shared flows
// from. Per-flow streams are derived as kSharedFlowSeed + 1 + flow_idx
// so a shared flow's content depends only on its index, never on how
// many filters earlier flows consumed.
constexpr uint64_t kSharedFlowSeed = 0x73686172656466ull;  // "sharedf"

CategoryParams ParamsFor(WorkloadCategory c) {
  switch (c) {
    case WorkloadCategory::kSmall:
      return {2, 3, 5, 2, 0.5};
    case WorkloadCategory::kMedium:
      return {4, 5, 7, 3, 0.6};
    case WorkloadCategory::kLarge:
      return {6, 7, 9, 4, 0.6};
  }
  return {2, 3, 5, 2, 0.5};
}

Schema SourceSchema(bool with_event_time) {
  std::vector<Attribute> attrs = {{"K", DataType::kInt64},
                                  {"SRC", DataType::kString},
                                  {"DATE", DataType::kString},
                                  {"V1", DataType::kDouble},
                                  {"V2", DataType::kDouble}};
  if (with_event_time) attrs.push_back({kEventTimeAttr, DataType::kInt64});
  auto schema = Schema::Make(std::move(attrs));
  ETLOPT_CHECK_OK(schema.status());
  return *std::move(schema);
}

// The shared backbone of entity-changing stages every flow applies (in
// this order), making sibling flows carry homologous activities.
struct Backbone {
  bool rename_v1 = true;   // dollar2euro: V1 -> V1E, drop V1
  bool normalize_date = false;  // a2e_date in place
  bool surrogate_key = false;   // {K} -> SKEY, drop K
  size_t size() const {
    return (rename_v1 ? 1 : 0) + (normalize_date ? 1 : 0) +
           (surrogate_key ? 1 : 0);
  }
};

// One step of a flow plan: either a backbone stage index or a filter.
struct PlanStep {
  enum class Kind { kRename, kDate, kSk, kFilter };
  Kind kind = Kind::kFilter;
};

// Makes a random filter over the attributes currently in `schema`.
StatusOr<Activity> MakeRandomFilter(const Schema& schema,
                                    const std::string& label, Rng* rng) {
  // Numeric candidates for SEL/DOM; all attributes qualify for NN.
  std::vector<std::string> numeric;
  std::vector<std::string> any;
  for (const auto& a : schema.attributes()) {
    any.push_back(a.name);
    if (a.type == DataType::kDouble) numeric.push_back(a.name);
  }
  double selectivity = rng->UniformDouble(0.2, 0.8);
  int kind = static_cast<int>(rng->UniformInt(0, numeric.empty() ? 0 : 2));
  switch (kind) {
    case 1: {
      const std::string& attr = rng->Pick(numeric);
      double threshold = rng->UniformDouble(0.0, 800.0);
      return MakeSelection(
          label,
          Compare(CompareOp::kGe, Column(attr),
                  Literal(Value::Double(threshold))),
          selectivity);
    }
    case 2: {
      const std::string& attr = rng->Pick(numeric);
      double lo = rng->UniformDouble(0.0, 300.0);
      double hi = rng->UniformDouble(400.0, 1000.0);
      return MakeDomainCheck(label, attr, lo, hi, selectivity);
    }
    default:
      return MakeNotNull(label, rng->Pick(any),
                         rng->UniformDouble(0.85, 0.99));
  }
}

// Builds one flow: source recordset + its activity chain; returns the
// last node and the flow's final schema.
struct FlowResult {
  NodeId last = kInvalidNode;
  Schema schema;
  size_t activities = 0;
};

StatusOr<FlowResult> BuildFlow(Workflow* w, size_t flow_idx,
                               const Backbone& backbone, size_t n_filters,
                               const GeneratorOptions& options, Rng* rng) {
  double cardinality =
      rng->UniformDouble(kMinCardinality, kMaxCardinality);
  NodeId src = w->AddRecordSet({StrFormat("SRC%zu", flow_idx),
                                SourceSchema(options.with_event_time),
                                cardinality});

  // Interleave the backbone stages (fixed relative order) with filters.
  // Filter positions are biased towards the end of the flow: real-world
  // designers bolt cleansing checks on late, which is exactly the
  // sub-optimality the optimizer is meant to repair (paper §1).
  std::vector<PlanStep> plan;
  if (backbone.rename_v1) plan.push_back({PlanStep::Kind::kRename});
  if (backbone.normalize_date) plan.push_back({PlanStep::Kind::kDate});
  if (backbone.surrogate_key) plan.push_back({PlanStep::Kind::kSk});
  for (size_t i = 0; i < n_filters; ++i) {
    int64_t lo = rng->Bernoulli(0.75)
                     ? static_cast<int64_t>(plan.size())  // append at end
                     : 0;
    plan.insert(plan.begin() + rng->UniformInt(lo, plan.size()),
                {PlanStep::Kind::kFilter});
  }

  FlowResult out;
  out.schema = SourceSchema(options.with_event_time);
  NodeId cur = src;
  size_t step_idx = 0;
  for (const auto& step : plan) {
    Activity activity = [&]() -> Activity {
      std::string label =
          StrFormat("f%zu_s%zu", flow_idx, step_idx);
      switch (step.kind) {
        case PlanStep::Kind::kRename: {
          // Identical params across flows => homologous.
          auto a = MakeFunction("to_euro", "dollar2euro", {"V1"}, "V1E",
                                DataType::kDouble, {"V1"});
          ETLOPT_CHECK_OK(a.status());
          return *a;
        }
        case PlanStep::Kind::kDate: {
          auto a = MakeInPlaceFunction("norm_date", "a2e_date", "DATE",
                                       DataType::kString);
          ETLOPT_CHECK_OK(a.status());
          return *a;
        }
        case PlanStep::Kind::kSk: {
          auto a = MakeSurrogateKey("assign_skey", {"K"}, "SKEY", "gen_lut",
                                    {"K"});
          ETLOPT_CHECK_OK(a.status());
          return *a;
        }
        case PlanStep::Kind::kFilter: {
          auto a = MakeRandomFilter(out.schema, label, rng);
          ETLOPT_CHECK_OK(a.status());
          return *a;
        }
      }
      ETLOPT_CHECK(false);
      return *MakeUnion("unreachable");
    }();
    ETLOPT_ASSIGN_OR_RETURN(out.schema, activity.ComputeOutputSchema(
                                            std::vector<Schema>{out.schema}));
    ETLOPT_ASSIGN_OR_RETURN(cur, w->AddActivity(std::move(activity), {cur}));
    ++out.activities;
    ++step_idx;
  }
  out.last = cur;
  return out;
}

}  // namespace

std::string_view WorkloadCategoryToString(WorkloadCategory c) {
  switch (c) {
    case WorkloadCategory::kSmall:
      return "small";
    case WorkloadCategory::kMedium:
      return "medium";
    case WorkloadCategory::kLarge:
      return "large";
  }
  return "?";
}

StatusOr<GeneratedWorkflow> GenerateWorkflow(const GeneratorOptions& options) {
  Rng rng(options.seed);
  CategoryParams params = ParamsFor(options.category);
  // Overlap mode (backbone_overlap in [0,1]) makes the first
  // round(overlap * F) flows tenant-independent: their every draw — and
  // the backbone variant, which must be uniform across a workflow's
  // flows for union schemas to line up — comes from fixed-seed streams.
  // The legacy path (negative overlap) is untouched draw-for-draw.
  const bool overlap_mode = options.backbone_overlap >= 0.0;
  const size_t shared_flows =
      overlap_mode
          ? std::min(params.flows,
                     static_cast<size_t>(std::llround(
                         std::min(1.0, options.backbone_overlap) *
                         static_cast<double>(params.flows))))
          : 0;
  Backbone backbone;
  backbone.rename_v1 = true;
  if (overlap_mode) {
    Rng shared(kSharedFlowSeed);
    backbone.normalize_date = shared.Bernoulli(0.7);
    backbone.surrogate_key = shared.Bernoulli(0.5);
  } else {
    backbone.normalize_date = rng.Bernoulli(0.7);
    backbone.surrogate_key = rng.Bernoulli(0.5);
  }

  Workflow w;
  size_t total_activities = 0;

  // Flows.
  std::vector<FlowResult> flows;
  flows.reserve(params.flows);
  for (size_t f = 0; f < params.flows; ++f) {
    Rng shared(kSharedFlowSeed + 1 + f);
    Rng* flow_rng = f < shared_flows ? &shared : &rng;
    size_t n_filters = static_cast<size_t>(flow_rng->UniformInt(
        static_cast<int64_t>(params.min_flow_filters),
        static_cast<int64_t>(params.max_flow_filters)));
    ETLOPT_ASSIGN_OR_RETURN(
        FlowResult flow,
        BuildFlow(&w, f, backbone, n_filters, options, flow_rng));
    total_activities += flow.activities;
    flows.push_back(std::move(flow));
  }

  // Pair sibling flows with unions, then fold the pair outputs left-deep
  // (pairing maximizes homologous opportunities).
  std::vector<NodeId> layer;
  Schema flow_schema = flows[0].schema;
  size_t i = 0;
  for (; i + 1 < flows.size(); i += 2) {
    ETLOPT_ASSIGN_OR_RETURN(Activity u, MakeUnion(StrFormat("u_%zu", i / 2)));
    ETLOPT_ASSIGN_OR_RETURN(
        NodeId un, w.AddActivity(u, {flows[i].last, flows[i + 1].last}));
    ++total_activities;
    layer.push_back(un);
  }
  if (i < flows.size()) layer.push_back(flows[i].last);
  NodeId joined = layer[0];
  for (size_t j = 1; j < layer.size(); ++j) {
    ETLOPT_ASSIGN_OR_RETURN(Activity u,
                            MakeUnion(StrFormat("u_top_%zu", j)));
    ETLOPT_ASSIGN_OR_RETURN(joined, w.AddActivity(u, {joined, layer[j]}));
    ++total_activities;
  }

  // Post-union chain: filters, optionally around an aggregation.
  Schema post_schema = flow_schema;
  NodeId cur = joined;
  bool has_agg = rng.Bernoulli(params.aggregation_probability);
  size_t agg_at = has_agg ? rng.UniformIndex(params.post_filters + 1)
                          : params.post_filters + 1;
  for (size_t p = 0; p <= params.post_filters; ++p) {
    if (p == agg_at) {
      std::vector<std::string> group_by = {"SRC", "DATE"};
      if (post_schema.Contains("SKEY")) group_by.push_back("SKEY");
      std::string agg_attr = post_schema.Contains("V1E") ? "V1E" : "V2";
      ETLOPT_ASSIGN_OR_RETURN(
          Activity agg,
          MakeAggregation("post_agg", group_by,
                          {{AggFn::kSum, agg_attr, agg_attr}},
                          rng.UniformDouble(0.1, 0.5)));
      ETLOPT_ASSIGN_OR_RETURN(
          post_schema,
          agg.ComputeOutputSchema(std::vector<Schema>{post_schema}));
      ETLOPT_ASSIGN_OR_RETURN(cur, w.AddActivity(std::move(agg), {cur}));
      ++total_activities;
    }
    if (p == params.post_filters) break;
    ETLOPT_ASSIGN_OR_RETURN(
        Activity filter,
        MakeRandomFilter(post_schema, StrFormat("post_%zu", p), &rng));
    ETLOPT_ASSIGN_OR_RETURN(cur, w.AddActivity(std::move(filter), {cur}));
    ++total_activities;
  }

  NodeId target = w.AddRecordSet({"DW", post_schema, 0});
  ETLOPT_RETURN_NOT_OK(w.Connect(cur, target));
  ETLOPT_RETURN_NOT_OK(w.Finalize());

  GeneratedWorkflow out;
  out.workflow = std::move(w);
  out.activity_count = total_activities;
  return out;
}

StatusOr<std::vector<GeneratedWorkflow>> GenerateSuite(
    WorkloadCategory category, size_t count, uint64_t base_seed) {
  std::vector<GeneratedWorkflow> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    GeneratorOptions options;
    options.category = category;
    options.seed = base_seed + i;
    ETLOPT_ASSIGN_OR_RETURN(GeneratedWorkflow g, GenerateWorkflow(options));
    out.push_back(std::move(g));
  }
  return out;
}

ExecutionInput GenerateInputFor(const Workflow& workflow, uint64_t seed,
                                const InputGenOptions& options) {
  Rng rng(seed);
  ExecutionInput input;
  for (NodeId src : workflow.SourceRecordSets()) {
    const RecordSetDef& def = workflow.recordset(src);
    std::vector<Record> rows;
    rows.reserve(options.rows_per_source);
    int64_t event_clock = options.event_time_start;
    for (size_t i = 0; i < options.rows_per_source; ++i) {
      Record r;
      for (const auto& attr : def.schema.attributes()) {
        if (attr.type == DataType::kInt64 &&
            attr.name == options.event_time_column) {
          // Non-decreasing per source, so event-time windows preserve
          // the capture's row order when sliced.
          event_clock += rng.UniformInt(0, kEventTimeMaxStep);
          r.Append(Value::Int(event_clock));
        } else if (attr.type == DataType::kInt64) {
          r.Append(Value::Int(rng.UniformInt(1, options.key_domain)));
        } else if (attr.type == DataType::kDouble) {
          // A few NULLs keep the NotNull cleansing activities honest.
          if (rng.Bernoulli(0.05)) {
            r.Append(Value::Null());
          } else {
            r.Append(Value::Double(rng.UniformDouble(0.0, 1000.0)));
          }
        } else if (attr.name == "DATE") {
          r.Append(Value::String(
              StrFormat("%02d/%02d/2004",
                        static_cast<int>(rng.UniformInt(1, 12)),
                        static_cast<int>(rng.UniformInt(1, 12)))));
        } else {
          r.Append(Value::String(def.name));
        }
      }
      rows.push_back(std::move(r));
    }
    input.source_data.emplace(def.name, std::move(rows));
  }
  // Bind every surrogate-key lookup: generated SK keys range over the int
  // domain [1, key_domain].
  for (NodeId id : workflow.ActivityNodeIds()) {
    for (const auto& m : workflow.chain(id).members()) {
      if (m.activity.kind() != ActivityKind::kSurrogateKey) continue;
      const auto& p = m.activity.params_as<SurrogateKeyParams>();
      auto& lut = input.context.lookups[p.lookup_name];
      if (!lut.empty()) continue;
      int64_t next = 1000;
      for (int64_t k = 1; k <= options.key_domain; ++k) {
        lut.emplace(std::vector<Value>{Value::Int(k)}, Value::Int(next++));
      }
    }
  }
  return input;
}

ExecutionInput GenerateInputFor(const Workflow& workflow, uint64_t seed,
                                size_t rows_per_source) {
  InputGenOptions options;
  options.rows_per_source = rows_per_source;
  return GenerateInputFor(workflow, seed, options);
}

}  // namespace etlopt
