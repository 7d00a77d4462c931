// State evaluation for the search algorithms: costing and signing by
// delta recosting against a base state's cached CostBreakdown, with hashed
// signatures that avoid materializing the canonical string on the hot
// path.

#ifndef ETLOPT_OPTIMIZER_STATE_EVAL_H_
#define ETLOPT_OPTIMIZER_STATE_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cost/reliability_model.h"
#include "cost/state_cost.h"
#include "graph/subgraph_signature.h"
#include "graph/workflow.h"

// Exactness cross-checks (delta recost == full recost, hash/string
// signature consistency) run in debug builds, or anywhere when
// ETLOPT_PARANOID is defined (the CI sanitizer job sets it so optimized
// NDEBUG builds still exercise them).
#if !defined(NDEBUG) || defined(ETLOPT_PARANOID)
#define ETLOPT_PARANOID_CHECKS 1
#endif

namespace etlopt {

/// Cache-aware costing hook. When a shared result cache already holds
/// the materialized output of a subgraph, executing a plan that keeps
/// that subgraph intact costs (almost) nothing for the covered cone —
/// so search should prefer such plans. The hook discounts State costs:
/// every node whose subgraph result signature the predicate claims is
/// materialized has its upstream cone's node costs scaled down to
/// `residual` (the cost of reading the rows back). A transition that
/// rewrites inside a materialized cone changes the signatures, loses
/// the discount, and correctly looks expensive.
///
/// The discount applies to State/NeighborEval cost only; CostBreakdown
/// stays the exact execution-cost ledger (delta recosting depends on
/// its exactness). `is_materialized` must be pure and stable for the
/// duration of one search run — serving layers should consult a
/// snapshot, never a live mutating cache. The optimizer service never
/// sets this hook; its plan-cache keys are unaffected.
struct CacheCostHint {
  /// True when a subgraph result with this signature is materialized.
  std::function<bool(uint64_t)> is_materialized;
  /// Fingerprint bindings for signature computation. Must match the
  /// executor's bindings (engine/shared_cache_exec) or the hint's keys
  /// never meet the cache's.
  SubgraphSignatureInputs inputs;
  /// Fraction of an avoided node's cost still charged (re-read cost).
  double residual = 0.1;
  /// Identity of the materialized-set snapshot, folded into
  /// ResultFingerprint so hinted results are never conflated with
  /// unhinted (or differently-hinted) ones.
  uint64_t snapshot_id = 0;
};

/// A state of the search space: a workflow plus its cost and identity.
struct State {
  Workflow workflow;
  double cost = 0.0;

  /// Workflow::SignatureHash() of the workflow — the identity the search
  /// algorithms key their visited/queued sets on.
  uint64_t signature_hash = 0;

  /// Canonical string signature. The search algorithms leave this empty
  /// for interior states and materialize it only for the states they
  /// return; MakeState and EnumerateSuccessors always fill it.
  std::string signature;

  /// Per-node cost figures, shared so derived states can delta-recost
  /// against this state without copying the maps.
  std::shared_ptr<const CostBreakdown> breakdown;
};

/// The light evaluation of a neighbor produced by in-place transition
/// surgery: everything the search needs to decide the neighbor's fate
/// (visited-set identity, cost comparison) without materializing a State,
/// and to probe further transitions against it. Only a neighbor that
/// survives is promoted via MaterializeState — that is the single full
/// Workflow copy a neighbor can cost.
struct NeighborEval {
  uint64_t signature_hash = 0;
  double cost = 0.0;
  /// Per-node figures of the neighbor, reused verbatim by MaterializeState
  /// so promotion never recosts.
  std::shared_ptr<const CostBreakdown> breakdown;
  /// Canonical string signature; filled only when paranoid checks are on
  /// (the SignatureInterner cross-check needs it), empty otherwise.
  std::string signature;
};

/// Counters describing how a search run spent its costing work.
struct SearchPerf {
  /// States costed from scratch (ComputeCostBreakdown).
  size_t full_recosts = 0;
  /// States costed by delta against their base (IncrementalCostBreakdown).
  size_t delta_recosts = 0;
  /// Node-level cache behavior across all delta recosts.
  size_t reused_nodes = 0;
  size_t recosted_nodes = 0;
  /// Full Workflow copies made during the run (delta of the process-wide
  /// Workflow::TotalCopies() counter — approximate when other searches run
  /// concurrently in the same process). In-place neighbor evaluation keeps
  /// this near the number of *enqueued* states. The twin copies paranoid
  /// builds take for their restore checks are left out, so every build
  /// reports the same count.
  size_t workflow_copies = 0;
  /// Surgery sessions rolled back (Workflow::TotalUndos() delta) — the
  /// neighbors that were evaluated in place instead of being copied.
  size_t undo_applies = 0;
  /// Largest ApproxMemoryBytes() over the states this run materialized
  /// (from-scratch evals and promoted neighbors).
  size_t peak_state_bytes = 0;

  /// Share of states costed by delta rather than from scratch.
  double delta_share() const {
    size_t n = full_recosts + delta_recosts;
    return n == 0 ? 0.0 : static_cast<double>(delta_recosts) / n;
  }
  /// Share of per-node costings answered from the base state's cache.
  double node_cache_hit_rate() const {
    size_t n = reused_nodes + recosted_nodes;
    return n == 0 ? 0.0 : static_cast<double>(reused_nodes) / n;
  }
};

/// Costs and signs workflows on behalf of one search run. States are
/// signed by hash (no canonical string), and a state derived from a base
/// is recosted only for the delta its transitions touched. Not
/// thread-safe: one search run owns one evaluator.
class StateEvaluator {
 public:
  /// `hint` (optional, unowned, may outlive-checked by caller) turns on
  /// cache-aware costing: all returned costs become effective costs
  /// (exact cost minus the materialized-cone discount). Null reproduces
  /// plain costing bit for bit. `reliability` (optional, unowned) adds
  /// the expected checkpoint + recovery cost of the state's optimal
  /// recovery-point placement (see cost/reliability_model.h) on top;
  /// null reproduces legacy costing bit for bit.
  explicit StateEvaluator(const CostModel& model,
                          const CacheCostHint* hint = nullptr,
                          const ReliabilityParams* reliability = nullptr)
      : model_(model), hint_(hint), reliability_(reliability) {}

  /// Costs and signs a workflow from scratch (refreshing if needed).
  StatusOr<State> Eval(Workflow workflow) const;

  /// Costs and signs a workflow derived from `base` by transitions,
  /// reusing the base's per-node figures for everything the transitions
  /// did not touch (see IncrementalCostBreakdown). `base` must carry a
  /// breakdown, as every State built by Eval or MakeState does. Exact:
  /// paranoid builds assert the delta recost equals a full recost bit for
  /// bit.
  StatusOr<State> EvalFrom(Workflow workflow, const State& base) const;

  /// Light evaluation of a neighbor mutated in place from a base workflow
  /// whose breakdown is `base` (the surgery session is still open): hashes
  /// its signature and delta-costs it against the base without copying
  /// the workflow or building a State. Counts one delta recost per call,
  /// as EvalFrom does.
  StatusOr<NeighborEval> EvalNeighbor(const Workflow& applied,
                                      const CostBreakdown& base) const;

  /// Promotes a surviving neighbor to a State with the figures EvalNeighbor
  /// already computed (no recosting). Passing the still-mutated workflow
  /// by const reference pays THE copy of the neighbor (the caller rolls
  /// back afterwards); moving in an already-committed scratch workflow
  /// copies nothing, and the scratch counts as consumed.
  State MaterializeState(Workflow applied, const NeighborEval& ne) const;

  /// Paranoid-build assertion that an apply→undo round trip restored the
  /// base exactly: DebugEquals against `base_wf` (an untouched twin of the
  /// base), the base's signature hash, and its cost bits (full recost of
  /// the restored workflow == base_cost). No-op in release builds without
  /// ETLOPT_PARANOID.
  void ParanoidCheckRestore(const Workflow& restored, const Workflow& base_wf,
                            uint64_t base_hash, double base_cost) const;

  /// A copy of `workflow` for ParanoidCheckRestore to compare against.
  /// Twins are check instrumentation, so perf() leaves them out of
  /// workflow_copies.
  Workflow ParanoidTwin(const Workflow& workflow) const;

  /// Snapshot of the counters. workflow_copies and undo_applies count from
  /// this evaluator's construction.
  SearchPerf perf() const;

  /// The cost this evaluator assigns a fresh workflow given its exact
  /// breakdown: bd.total minus the cache discount, plus the reliability
  /// surcharge (bd.total verbatim when neither knob is set).
  /// Deterministic in (workflow content, bd), so restore checks can
  /// recompute it bit for bit.
  double EffectiveCost(const Workflow& workflow,
                       const CostBreakdown& bd) const;

 private:
  /// bd.total minus the materialized-cone discount (no reliability term).
  double CacheDiscountedCost(const Workflow& workflow,
                             const CostBreakdown& bd) const;

  /// The exact breakdown of `workflow`, delta-recosted against `base`
  /// (paranoid builds assert it equals a full recost bit for bit).
  StatusOr<CostBreakdown> DeltaRecost(const Workflow& workflow,
                                      const CostBreakdown& base) const;

  void TrackPeakStateBytes(size_t bytes) const;

  const CostModel& model_;
  const CacheCostHint* hint_ = nullptr;
  const ReliabilityParams* reliability_ = nullptr;
  mutable SearchPerf perf_;
  const size_t copies0_ = Workflow::TotalCopies();
  const size_t undos0_ = Workflow::TotalUndos();
  mutable size_t twin_copies_ = 0;
};

/// Guards the "equal hashes mean equal states" assumption the search sets
/// rely on. In release builds Intern() is a pass-through; with paranoid
/// checks it records every hash's string signature and aborts on a
/// collision (two distinct signatures, one hash) or an inconsistency.
class SignatureInterner {
 public:
  uint64_t Intern(const State& state);

  /// Hash-first form for in-place neighbors, where no State exists yet.
  /// `signature` is consulted only under paranoid checks (NeighborEval
  /// fills it there; it may stay empty in release builds).
  uint64_t Intern(uint64_t hash, const std::string& signature);

 private:
#ifdef ETLOPT_PARANOID_CHECKS
  std::map<uint64_t, std::string> table_;
#endif
};

}  // namespace etlopt

#endif  // ETLOPT_OPTIMIZER_STATE_EVAL_H_
