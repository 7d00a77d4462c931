// CachePlan: the shared-result-cache integration all three engines use.
//
// The serial, morsel-parallel and vectorized executors share one topo-
// loop shape; this helper factors the cache logic out of it so the loops
// stay engine-specific only in how they move rows. A plan is built once
// per run:
//
//  1. signature pass — subgraph result signatures for every node, with
//     source/lookup fingerprints bound from the run's ExecutionInput;
//  2. cut-point selection per CutPointPolicy;
//  3. acquire pass, downstream-first (reverse topo): each cut point not
//     inside an already-served cone is probed. A hit serves the whole
//     upstream cone (rows injected at the cut node, per-node rows_out
//     transferred positionally via SubtreeNodes); a lease obliges this
//     run to publish the node's rows once computed. Only the FIRST probe
//     may block on another run's in-flight lease — after this run holds
//     any lease itself, probes are non-blocking (kBusy ⇒ recompute),
//     which keeps the cross-run wait graph acyclic;
//  4. needed-set pruning — reverse reachability from the targets that
//     stops descending at served nodes. Skip(id) nodes never execute.
//
// During the loop the engine asks Served(id) (inject these rows instead
// of computing), hands a computed activity node's rows to
// OnActivityComputed when Leased(id) (publication), and calls Finalize
// at the end (merges transferred rows_out, fills ExecutionResult::cache).
// The destructor aborts any lease the run did not get to publish — error
// paths and injected faults degrade to other runs recomputing, never to
// a hang.
//
// With CacheOptions::cache == nullptr the plan is inert: every query
// returns the legacy answer and the engine takes its old path bit for
// bit.

#ifndef ETLOPT_ENGINE_SHARED_CACHE_EXEC_H_
#define ETLOPT_ENGINE_SHARED_CACHE_EXEC_H_

#include <map>
#include <memory>
#include <vector>

#include "engine/executor.h"
#include "graph/subgraph_signature.h"
#include "service/shared_result_cache.h"

namespace etlopt {

class CachePlan {
 public:
  /// Builds the plan (signature, acquire, pruning passes). `workflow`
  /// must be fresh and must outlive the plan; `input` is only read
  /// during construction.
  CachePlan(const Workflow& workflow, const ExecutionInput& input,
            const CacheOptions& options);
  ~CachePlan();

  CachePlan(const CachePlan&) = delete;
  CachePlan& operator=(const CachePlan&) = delete;

  bool enabled() const { return enabled_; }

  /// True iff the node need not run at all: every path from it to a
  /// target passes through a cache-served cut point.
  bool Skip(NodeId id) const;

  /// Non-null iff `id` is a served cut point: the engine injects
  /// entry->rows as the node's output instead of executing its cone.
  const CachedSubgraphResult* Served(NodeId id) const;

  /// True iff the run holds an unpublished lease on `id`. Engines ask
  /// this after computing an activity node, so rows are copied (or, in
  /// the vectorized engine, flattened) only where a publication happens.
  bool Leased(NodeId id) const { return enabled_ && leases_.count(id) != 0; }

  /// Publishes a leased node's computed rows for other runs; the entry
  /// takes ownership of `rows`. `rows_out` holds the run's counts for
  /// every node computed so far. A call for a node without a lease is a
  /// no-op.
  void OnActivityComputed(NodeId id, std::vector<Record> rows,
                          const std::map<NodeId, size_t>& rows_out);

  /// Merges cache-transferred rows_out entries into `result` and fills
  /// `result.cache`. Call once, after the loop, before returning.
  void Finalize(ExecutionResult& result);

 private:
  bool IsCutPoint(NodeId id) const;

  const Workflow& workflow_;
  SharedResultCache* cache_ = nullptr;
  CutPointPolicy options_cut_points_ = CutPointPolicy::kAuto;
  bool enabled_ = false;
  bool publish_ = false;
  std::vector<uint64_t> signatures_;  // NodeId-indexed
  ProviderIndex providers_;           // built once; every cone walk reuses it
  std::vector<char> needed_;          // NodeId-indexed
  std::map<NodeId, std::shared_ptr<const CachedSubgraphResult>> served_;
  std::map<NodeId, uint64_t> leases_;  // unreleased leases, by cut node
  std::map<NodeId, size_t> transferred_rows_out_;
  CacheRunStats stats_;
};

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_SHARED_CACHE_EXEC_H_
