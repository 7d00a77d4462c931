#include "engine/executor.h"

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/shared_cache_exec.h"
#include "fault/fault_injector.h"

namespace etlopt {

StatusOr<std::vector<Record>> RealignRecords(const std::vector<Record>& rows,
                                             const Schema& from,
                                             const Schema& to) {
  if (from == to) return rows;
  std::vector<size_t> mapping;
  mapping.reserve(to.size());
  for (const auto& a : to.attributes()) {
    auto idx = from.IndexOf(a.name);
    if (!idx.has_value()) {
      return Status::Internal("realign: missing attribute " + a.name);
    }
    mapping.push_back(*idx);
  }
  std::vector<Record> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    Record nr;
    for (size_t idx : mapping) nr.Append(r.value(idx));
    out.push_back(std::move(nr));
  }
  return out;
}

StatusOr<const std::vector<Record>*> BoundSourceRows(
    const RecordSetDef& def,
    const std::map<std::string, std::vector<Record>>& source_data) {
  auto it = source_data.find(def.name);
  if (it == source_data.end()) {
    return Status::NotFound("no data bound for source recordset '" +
                            def.name + "'");
  }
  for (const auto& r : it->second) {
    if (r.size() != def.schema.size()) {
      return Status::InvalidArgument(
          StrFormat("source '%s': record arity %zu != schema arity %zu",
                    def.name.c_str(), r.size(), def.schema.size()));
    }
  }
  return &it->second;
}

StatusOr<std::vector<Record>> ComputeNodeRows(
    const Workflow& workflow, NodeId id, const ExecutionInput& input,
    const std::map<NodeId, std::vector<Record>>& flows) {
  std::vector<NodeId> providers = workflow.Providers(id);
  if (workflow.IsRecordSet(id)) {
    const RecordSetDef& def = workflow.recordset(id);
    if (providers.empty()) {
      ETLOPT_ASSIGN_OR_RETURN(const std::vector<Record>* rows,
                              BoundSourceRows(def, input.source_data));
      return *rows;
    }
    // Staging or target recordset: realign to the declared schema.
    return RealignRecords(flows.at(providers[0]),
                          workflow.OutputSchema(providers[0]), def.schema);
  }
  ETLOPT_FAULT_HIT(FaultSite::kActivityExecute);
  std::vector<std::vector<Record>> inputs;
  inputs.reserve(providers.size());
  for (NodeId p : providers) inputs.push_back(flows.at(p));
  auto rows = workflow.chain(id).Execute(workflow.InputSchemas(id), inputs,
                                         input.context);
  if (!rows.ok()) {
    return rows.status().WithContext(StrFormat(
        "executing node %d ('%s')", id, workflow.chain(id).label().c_str()));
  }
  return rows;
}

StatusOr<ExecutionResult> ExecuteWorkflow(const Workflow& workflow,
                                          const ExecutionInput& input) {
  return ExecuteWorkflow(workflow, input, CacheOptions{});
}

StatusOr<ExecutionResult> ExecuteWorkflow(const Workflow& workflow,
                                          const ExecutionInput& input,
                                          const CacheOptions& cache_options) {
  if (!workflow.fresh()) {
    return Status::FailedPrecondition(
        "workflow must pass Refresh() before execution");
  }
  ExecutionResult result;
  CachePlan plan(workflow, input, cache_options);
  std::map<NodeId, std::vector<Record>> flows;
  for (NodeId id : workflow.TopoOrder()) {
    if (plan.Skip(id)) continue;
    if (const CachedSubgraphResult* served = plan.Served(id)) {
      flows[id] = served->rows;
      continue;
    }
    ETLOPT_ASSIGN_OR_RETURN(flows[id],
                            ComputeNodeRows(workflow, id, input, flows));
    if (workflow.IsRecordSet(id)) {
      if (workflow.Consumers(id).empty()) {
        result.target_data.emplace(workflow.recordset(id).name, flows[id]);
      }
    } else {
      result.rows_out[id] = flows[id].size();
      if (plan.Leased(id)) {
        plan.OnActivityComputed(id, flows[id], result.rows_out);
      }
    }
  }
  plan.Finalize(result);
  return result;
}

Status ExecuteWorkflowInto(const Workflow& workflow,
                           const ExecutionInput& input,
                           const std::map<std::string, RecordSet*>& targets) {
  ETLOPT_ASSIGN_OR_RETURN(ExecutionResult result,
                          ExecuteWorkflow(workflow, input));
  for (const auto& [name, rows] : result.target_data) {
    auto it = targets.find(name);
    if (it == targets.end()) continue;
    RecordSet* rs = it->second;
    ETLOPT_RETURN_NOT_OK(rs->Truncate());
    for (const auto& r : rows) {
      ETLOPT_RETURN_NOT_OK(rs->Append(r));
    }
  }
  return Status::OK();
}

StatusOr<bool> ProduceSameOutput(const Workflow& a, const Workflow& b,
                                 const ExecutionInput& input) {
  ETLOPT_ASSIGN_OR_RETURN(ExecutionResult ra, ExecuteWorkflow(a, input));
  ETLOPT_ASSIGN_OR_RETURN(ExecutionResult rb, ExecuteWorkflow(b, input));
  if (ra.target_data.size() != rb.target_data.size()) return false;
  for (const auto& [name, rows] : ra.target_data) {
    auto it = rb.target_data.find(name);
    if (it == rb.target_data.end()) return false;
    if (!SameRecordMultiset(rows, it->second)) return false;
  }
  return true;
}

}  // namespace etlopt
