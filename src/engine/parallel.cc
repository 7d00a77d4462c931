#include "engine/parallel.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/partition.h"
#include "engine/shared_cache_exec.h"
#include "engine/thread_pool.h"
#include "fault/fault_injector.h"

namespace etlopt {

namespace {

constexpr size_t kDefaultMorselSize = 2048;

// Shared run state threaded through the per-operator helpers.
struct Engine {
  ThreadPool* pool = nullptr;
  size_t morsel_size = kDefaultMorselSize;
  size_t num_partitions = 1;
  const ExecutionContext* ctx = nullptr;
};

StatusOr<std::vector<size_t>> AttrIndices(
    const Schema& schema, const std::vector<std::string>& attrs) {
  std::vector<size_t> idx;
  idx.reserve(attrs.size());
  for (const auto& a : attrs) {
    auto i = schema.IndexOf(a);
    if (!i.has_value()) {
      return Status::Internal("parallel: missing attribute " + a);
    }
    idx.push_back(*i);
  }
  return idx;
}

std::vector<Value> ExtractKey(const Record& row,
                              const std::vector<size_t>& idx) {
  std::vector<Value> key;
  key.reserve(idx.size());
  for (size_t i : idx) key.push_back(row.value(i));
  return key;
}

// Copies (and optionally re-lays-out) `rows` morsel-parallel. With
// from == to this is a parallel copy; otherwise each row is rebuilt in
// `to`'s attribute order, exactly like the serial engines' realign.
StatusOr<std::vector<Record>> ParallelRealign(const Engine& eng,
                                              const std::vector<Record>& rows,
                                              const Schema& from,
                                              const Schema& to) {
  const bool identity = from == to;
  std::vector<size_t> mapping;
  if (!identity) {
    std::vector<std::string> to_names;
    for (const auto& a : to.attributes()) to_names.push_back(a.name);
    ETLOPT_ASSIGN_OR_RETURN(mapping, AttrIndices(from, to_names));
  }
  std::vector<Record> out(rows.size());
  std::vector<Morsel> morsels = MakeMorsels(rows.size(), eng.morsel_size);
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t) -> Status {
        for (size_t i = morsels[m].begin; i < morsels[m].end; ++i) {
          if (identity) {
            out[i] = rows[i];
          } else {
            Record nr;
            for (size_t src : mapping) nr.Append(rows[i].value(src));
            out[i] = std::move(nr);
          }
        }
        return Status::OK();
      }));
  return out;
}

// Streaming unary activity: data-parallel over morsels, per-morsel
// batches delegated to Activity::Execute, so the engines cannot diverge
// on per-row behaviour.
// Filters and 1:1 transforms preserve input order within a morsel, and
// morsel outputs concatenate in morsel order, so the result is exactly
// the serial output.
StatusOr<std::vector<Record>> RunStreaming(const Engine& eng,
                                           const Activity& activity,
                                           const Schema& in_schema,
                                           const std::vector<Record>& rows) {
  std::vector<Morsel> morsels = MakeMorsels(rows.size(), eng.morsel_size);
  std::vector<std::vector<Record>> outs(morsels.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t) -> Status {
        std::vector<std::vector<Record>> input(1);
        input[0].assign(rows.begin() + morsels[m].begin,
                        rows.begin() + morsels[m].end);
        ETLOPT_ASSIGN_OR_RETURN(
            outs[m], activity.Execute({in_schema}, input, *eng.ctx));
        return Status::OK();
      }));
  size_t total = 0;
  for (const auto& o : outs) total += o.size();
  std::vector<Record> out;
  out.reserve(total);
  for (auto& o : outs) {
    for (auto& r : o) out.push_back(std::move(r));
  }
  return out;
}

// Union: left rows followed by the right rows realigned into the output
// layout — both sides copied morsel-parallel into their final slots.
StatusOr<std::vector<Record>> RunUnion(const Engine& eng,
                                       const std::vector<Schema>& in_schemas,
                                       const Schema& out_schema,
                                       const std::vector<Record>& left,
                                       const std::vector<Record>& right) {
  std::vector<std::string> out_names;
  for (const auto& a : out_schema.attributes()) out_names.push_back(a.name);
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_map,
                          AttrIndices(in_schemas[1], out_names));
  std::vector<Record> out(left.size() + right.size());
  std::vector<Morsel> lm = MakeMorsels(left.size(), eng.morsel_size);
  std::vector<Morsel> rm = MakeMorsels(right.size(), eng.morsel_size);
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      lm.size() + rm.size(), [&](size_t t, size_t) -> Status {
        if (t < lm.size()) {
          for (size_t i = lm[t].begin; i < lm[t].end; ++i) out[i] = left[i];
        } else {
          const Morsel& m = rm[t - lm.size()];
          for (size_t i = m.begin; i < m.end; ++i) {
            Record nr;
            for (size_t src : right_map) nr.Append(right[i].value(src));
            out[left.size() + i] = std::move(nr);
          }
        }
        return Status::OK();
      }));
  return out;
}

// Duplicate elimination: hash-exchange on the key attributes, keep-first
// per partition (each partition sees its rows in input order), then
// rebuild the kept rows in input order from the survivor bitmap.
StatusOr<std::vector<Record>> RunPkCheck(const Engine& eng,
                                         const Activity& activity,
                                         const Schema& in_schema,
                                         const std::vector<Record>& rows) {
  const auto& p = activity.params_as<PrimaryKeyParams>();
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                          AttrIndices(in_schema, p.key_attrs));
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices parts,
      HashPartitionIndices(rows, in_schema, p.key_attrs, eng.num_partitions,
                           eng.morsel_size, eng.pool));
  std::vector<uint8_t> keep(rows.size(), 0);
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      parts.size(), [&](size_t pt, size_t) -> Status {
        std::map<std::vector<Value>, bool> seen;
        for (uint32_t i : parts[pt]) {
          if (seen.emplace(ExtractKey(rows[i], key_idx), true).second) {
            keep[i] = 1;
          }
        }
        return Status::OK();
      }));
  std::vector<Record> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (keep[i]) out.push_back(rows[i]);
  }
  return out;
}

// Aggregation: hash-exchange on the group-by keys so every partition
// owns a disjoint set of groups; per-partition Execute yields key-sorted
// groups (Activity::Execute uses an ordered map), and a k-way merge on
// the key prefix restores the serial engines' global key order.
StatusOr<std::vector<Record>> RunAggregation(const Engine& eng,
                                             const Activity& activity,
                                             const Schema& in_schema,
                                             const std::vector<Record>& rows) {
  const auto& p = activity.params_as<AggregationParams>();
  if (p.group_by.empty()) {
    // One global group: nothing to exchange on.
    std::vector<std::vector<Record>> input(1);
    input[0] = rows;
    return activity.Execute({in_schema}, input, *eng.ctx);
  }
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices parts,
      HashPartitionIndices(rows, in_schema, p.group_by, eng.num_partitions,
                           eng.morsel_size, eng.pool));
  std::vector<std::vector<Record>> outs(parts.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      parts.size(), [&](size_t pt, size_t) -> Status {
        if (parts[pt].empty()) return Status::OK();
        std::vector<std::vector<Record>> input(1);
        input[0].reserve(parts[pt].size());
        for (uint32_t i : parts[pt]) input[0].push_back(rows[i]);
        ETLOPT_ASSIGN_OR_RETURN(
            outs[pt], activity.Execute({in_schema}, input, *eng.ctx));
        return Status::OK();
      }));

  // Merge the key-sorted partition outputs. Group keys are the leading
  // values of every output record and are disjoint across partitions.
  const size_t g = p.group_by.size();
  auto key_less = [g](const Record& a, const Record& b) {
    for (size_t i = 0; i < g; ++i) {
      if (a.value(i) < b.value(i)) return true;
      if (b.value(i) < a.value(i)) return false;
    }
    return false;
  };
  size_t total = 0;
  for (const auto& o : outs) total += o.size();
  std::vector<Record> out;
  out.reserve(total);
  std::vector<size_t> pos(outs.size(), 0);
  while (out.size() < total) {
    size_t best = outs.size();
    for (size_t pt = 0; pt < outs.size(); ++pt) {
      if (pos[pt] >= outs[pt].size()) continue;
      if (best == outs.size() ||
          key_less(outs[pt][pos[pt]], outs[best][pos[best]])) {
        best = pt;
      }
    }
    out.push_back(std::move(outs[best][pos[best]]));
    ++pos[best];
  }
  return out;
}

// Join: partition the build (right) side on the join keys, build one hash
// index per partition in parallel, then probe the left side
// morsel-parallel in input order. Matches are emitted in build-side input
// order per key, so the concatenated morsel outputs replay the serial
// nested emit exactly.
StatusOr<std::vector<Record>> RunJoin(const Engine& eng,
                                      const Activity& activity,
                                      const std::vector<Schema>& in_schemas,
                                      const std::vector<Record>& left,
                                      const std::vector<Record>& right) {
  const auto& p = activity.params_as<JoinParams>();
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> left_key,
                          AttrIndices(in_schemas[0], p.key_attrs));
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> right_key,
                          AttrIndices(in_schemas[1], p.key_attrs));
  // Passthrough: right attributes that are not join keys, in schema order.
  std::vector<size_t> right_pass;
  for (size_t i = 0; i < in_schemas[1].size(); ++i) {
    const auto& name = in_schemas[1].attribute(i).name;
    if (std::find(p.key_attrs.begin(), p.key_attrs.end(), name) ==
        p.key_attrs.end()) {
      right_pass.push_back(i);
    }
  }

  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices parts,
      HashPartitionIndices(right, in_schemas[1], p.key_attrs,
                           eng.num_partitions, eng.morsel_size, eng.pool));

  using ShardIndex = std::map<std::vector<Value>, std::vector<uint32_t>>;
  std::vector<ShardIndex> shards(parts.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      parts.size(), [&](size_t pt, size_t) -> Status {
        for (uint32_t i : parts[pt]) {
          std::vector<Value> key = ExtractKey(right[i], right_key);
          // NULL keys never join (SQL semantics).
          if (std::any_of(key.begin(), key.end(),
                          [](const Value& v) { return v.is_null(); })) {
            continue;
          }
          shards[pt][std::move(key)].push_back(i);
        }
        return Status::OK();
      }));

  std::vector<Morsel> morsels = MakeMorsels(left.size(), eng.morsel_size);
  std::vector<std::vector<Record>> outs(morsels.size());
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      morsels.size(), [&](size_t m, size_t) -> Status {
        std::vector<Record>& out = outs[m];
        for (size_t i = morsels[m].begin; i < morsels[m].end; ++i) {
          std::vector<Value> key = ExtractKey(left[i], left_key);
          if (std::any_of(key.begin(), key.end(),
                          [](const Value& v) { return v.is_null(); })) {
            continue;
          }
          const ShardIndex& shard =
              shards[PartitionOfKey(left[i], left_key, parts.size())];
          auto hit = shard.find(key);
          if (hit == shard.end()) continue;
          for (uint32_t r : hit->second) {
            Record nr = left[i];
            for (size_t src : right_pass) nr.Append(right[r].value(src));
            out.push_back(std::move(nr));
          }
        }
        return Status::OK();
      }));
  size_t total = 0;
  for (const auto& o : outs) total += o.size();
  std::vector<Record> out;
  out.reserve(total);
  for (auto& o : outs) {
    for (auto& r : o) out.push_back(std::move(r));
  }
  return out;
}

// Bag difference / intersection: realign the right side into the output
// layout, exchange *both* sides on the whole record (equal records land
// in the same partition), replay the serial count-and-decrement logic per
// partition over ascending row indices, and rebuild the kept left rows in
// input order.
StatusOr<std::vector<Record>> RunDiffIntersect(
    const Engine& eng, const Activity& activity,
    const std::vector<Schema>& in_schemas, const Schema& out_schema,
    const std::vector<Record>& left, const std::vector<Record>& right) {
  ETLOPT_ASSIGN_OR_RETURN(
      std::vector<Record> right_aligned,
      ParallelRealign(eng, right, in_schemas[1], out_schema));
  const std::vector<std::string> whole_record;  // empty = whole record
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices left_parts,
      HashPartitionIndices(left, in_schemas[0], whole_record,
                           eng.num_partitions, eng.morsel_size, eng.pool));
  ETLOPT_ASSIGN_OR_RETURN(
      PartitionIndices right_parts,
      HashPartitionIndices(right_aligned, out_schema, whole_record,
                           eng.num_partitions, eng.morsel_size, eng.pool));

  const bool keep_matched = activity.kind() == ActivityKind::kIntersection;
  std::vector<uint8_t> keep(left.size(), 0);
  ETLOPT_RETURN_NOT_OK(eng.pool->ParallelFor(
      left_parts.size(), [&](size_t pt, size_t) -> Status {
        std::map<Record, int64_t> right_counts;
        for (uint32_t i : right_parts[pt]) ++right_counts[right_aligned[i]];
        for (uint32_t i : left_parts[pt]) {
          auto it = right_counts.find(left[i]);
          bool matched = it != right_counts.end() && it->second > 0;
          if (matched) --it->second;
          if (matched == keep_matched) keep[i] = 1;
        }
        return Status::OK();
      }));
  std::vector<Record> out;
  for (size_t i = 0; i < left.size(); ++i) {
    if (keep[i]) out.push_back(left[i]);
  }
  return out;
}

StatusOr<std::vector<Record>> RunMember(const Engine& eng,
                                        const Activity& activity,
                                        const std::vector<Schema>& in_schemas,
                                        const std::vector<Record>& left,
                                        const std::vector<Record>* right) {
  ETLOPT_ASSIGN_OR_RETURN(Schema out_schema,
                          activity.ComputeOutputSchema(in_schemas));
  switch (activity.kind()) {
    case ActivityKind::kUnion:
      return RunUnion(eng, in_schemas, out_schema, left, *right);
    case ActivityKind::kJoin:
      return RunJoin(eng, activity, in_schemas, left, *right);
    case ActivityKind::kDifference:
    case ActivityKind::kIntersection:
      return RunDiffIntersect(eng, activity, in_schemas, out_schema, left,
                              *right);
    case ActivityKind::kPrimaryKeyCheck:
      return RunPkCheck(eng, activity, in_schemas[0], left);
    case ActivityKind::kAggregation:
      return RunAggregation(eng, activity, in_schemas[0], left);
    default:
      return RunStreaming(eng, activity, in_schemas[0], left);
  }
}

}  // namespace

StatusOr<ExecutionResult> ExecuteParallel(const Workflow& workflow,
                                          const ExecutionInput& input,
                                          const ParallelOptions& options) {
  if (!workflow.fresh()) {
    return Status::FailedPrecondition(
        "workflow must pass Refresh() before execution");
  }
  const size_t threads = options.num_threads != 0
                             ? options.num_threads
                             : ThreadPool::DefaultThreads();
  ThreadPool pool(threads);

  Engine eng;
  eng.pool = &pool;
  eng.morsel_size =
      options.morsel_size != 0 ? options.morsel_size : kDefaultMorselSize;
  eng.num_partitions =
      options.num_partitions != 0
          ? options.num_partitions
          : std::min<size_t>(64, pool.num_threads() * 4);
  eng.ctx = &input.context;

  ExecutionResult result;
  CachePlan plan(workflow, input, options.cache);
  std::map<NodeId, std::vector<Record>> flows;
  std::map<NodeId, size_t> remaining_consumers;
  for (NodeId id : workflow.NodeIds()) {
    remaining_consumers[id] = workflow.Consumers(id).size();
  }
  // Hands a provider's rows to one consumer: the last consumer takes the
  // buffer by move so peak memory tracks live edges, earlier ones copy.
  auto take_input = [&](NodeId p) {
    auto it = flows.find(p);
    if (--remaining_consumers[p] == 0) {
      std::vector<Record> rows = std::move(it->second);
      flows.erase(it);
      return rows;
    }
    return it->second;
  };

  for (NodeId id : workflow.TopoOrder()) {
    if (plan.Skip(id)) continue;
    if (const CachedSubgraphResult* served = plan.Served(id)) {
      flows[id] = served->rows;
      continue;
    }
    std::vector<NodeId> providers = workflow.Providers(id);
    if (workflow.IsRecordSet(id)) {
      const RecordSetDef& def = workflow.recordset(id);
      std::vector<Record> rows;
      if (providers.empty()) {
        ETLOPT_ASSIGN_OR_RETURN(const std::vector<Record>* source,
                                BoundSourceRows(def, input.source_data));
        ETLOPT_ASSIGN_OR_RETURN(
            rows, ParallelRealign(eng, *source, def.schema, def.schema));
      } else {
        std::vector<Record> upstream = take_input(providers[0]);
        const Schema& from = workflow.OutputSchema(providers[0]);
        if (from == def.schema) {
          rows = std::move(upstream);
        } else {
          ETLOPT_ASSIGN_OR_RETURN(
              rows, ParallelRealign(eng, upstream, from, def.schema));
        }
      }
      if (workflow.Consumers(id).empty()) {
        result.target_data.emplace(def.name, std::move(rows));
      } else {
        flows[id] = std::move(rows);
      }
      continue;
    }

    // Activity node: run the chain member by member; the first member may
    // be binary, later members are unary by the chain invariant.
    ETLOPT_FAULT_HIT(FaultSite::kActivityExecute);
    std::vector<std::vector<Record>> inputs;
    inputs.reserve(providers.size());
    for (NodeId p : providers) inputs.push_back(take_input(p));
    const ActivityChain& chain = workflow.chain(id);
    std::vector<Schema> in_schemas = workflow.InputSchemas(id);
    std::vector<Record> cur;
    Schema cur_schema;
    for (size_t m = 0; m < chain.size(); ++m) {
      const Activity& member = chain.members()[m].activity;
      std::vector<Schema> member_schemas =
          m == 0 ? in_schemas : std::vector<Schema>{cur_schema};
      const std::vector<Record>& left = m == 0 ? inputs[0] : cur;
      const std::vector<Record>* right =
          (m == 0 && member.is_binary()) ? &inputs[1] : nullptr;
      auto rows = RunMember(eng, member, member_schemas, left, right);
      if (!rows.ok()) {
        return rows.status().WithContext(
            StrFormat("executing node %d ('%s')", id,
                      chain.label().c_str()));
      }
      ETLOPT_ASSIGN_OR_RETURN(cur_schema,
                              member.ComputeOutputSchema(member_schemas));
      cur = std::move(rows).value();
    }
    result.rows_out[id] = cur.size();
    flows[id] = std::move(cur);
    if (plan.Leased(id)) {
      plan.OnActivityComputed(id, flows[id], result.rows_out);
    }
  }
  plan.Finalize(result);
  return result;
}

}  // namespace etlopt
