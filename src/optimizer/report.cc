#include "optimizer/report.h"

#include <map>

#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

std::string Truncate(const std::string& s, size_t width) {
  if (s.size() <= width) return s;
  return s.substr(0, width - 3) + "...";
}

// Input cardinality of a node = its first provider's output cardinality.
double InputRows(const Workflow& w, NodeId id, const CostBreakdown& bd) {
  std::vector<NodeId> providers = w.Providers(id);
  double rows = 0;
  for (NodeId p : providers) rows += bd.node_output_cardinality.at(p);
  return rows;
}

}  // namespace

StatusOr<std::string> CostReport(const Workflow& workflow,
                                 const CostModel& model) {
  Workflow copy = workflow;
  if (!copy.fresh()) {
    ETLOPT_RETURN_NOT_OK(copy.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(CostBreakdown bd, ComputeCostBreakdown(copy, model));
  std::string out = StrFormat("%-9s %-22s %-34s %10s %12s\n", "priority",
                              "activity", "semantics", "rows in", "cost");
  for (NodeId id : copy.TopoOrder()) {
    if (!copy.IsActivity(id)) continue;
    const ActivityChain& chain = copy.chain(id);
    out += StrFormat("%-9s %-22s %-34s %10.0f %12.0f\n",
                     copy.PriorityLabelOf(id).c_str(),
                     Truncate(chain.label(), 22).c_str(),
                     Truncate(chain.SemanticsString(), 34).c_str(),
                     InputRows(copy, id, bd), bd.node_cost.at(id));
  }
  out += StrFormat("%-9s %-22s %-34s %10s %12.0f\n", "total", "", "", "",
                   bd.total);
  return out;
}

StatusOr<std::string> OptimizationReport(const Workflow& initial,
                                         const SearchResult& result,
                                         const CostModel& model) {
  std::string out = StrFormat(
      "cost %.0f -> %.0f (%.1f%% improvement), %zu states visited in %lld "
      "ms%s\n",
      result.initial_cost, result.best.cost, result.improvement_pct(),
      result.visited_states,
      static_cast<long long>(result.elapsed_millis),
      result.exhausted ? "" : " (budget hit)");
  if (result.perf.full_recosts + result.perf.delta_recosts > 0) {
    out += StrFormat(
        "search perf: %.0f states/s, %.0f%% delta recosts, "
        "%.0f%% node cache hits\n",
        result.elapsed_millis > 0
            ? 1000.0 * static_cast<double>(result.visited_states) /
                  static_cast<double>(result.elapsed_millis)
            : static_cast<double>(result.visited_states),
        100.0 * result.perf.delta_share(),
        100.0 * result.perf.node_cache_hit_rate());
    out += StrFormat(
        "state memory: %zu workflow copies, %zu undo applies, "
        "%.1f KiB peak state\n",
        result.perf.workflow_copies, result.perf.undo_applies,
        static_cast<double>(result.perf.peak_state_bytes) / 1024.0);
  }
  if (!result.best_path.empty()) {
    out += "rewrite path:\n";
    for (const auto& rec : result.best_path) {
      out += "  " + rec.description + "\n";
    }
  }
  out += "\n--- initial plan ---\n";
  ETLOPT_ASSIGN_OR_RETURN(std::string before, CostReport(initial, model));
  out += before;
  out += "\n--- optimized plan ---\n";
  ETLOPT_ASSIGN_OR_RETURN(std::string after,
                          CostReport(result.best.workflow, model));
  out += after;
  return out;
}

}  // namespace etlopt
