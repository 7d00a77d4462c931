#include "optimizer/search.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "graph/analysis.h"
#include "optimizer/budget.h"
#include "optimizer/state_eval.h"
#include "optimizer/transitions.h"

namespace etlopt {

namespace {

bool IsUnaryActivityNode(const Workflow& w, NodeId id) {
  return w.IsActivity(id) && w.chain(id).is_unary();
}

// Shared handle to an immutable search state. The bookkeeping structures
// (visited maps, worklists, BFS queues, running minima) all alias the
// same underlying State, so shuffling a state between them never copies
// its workflow — only candidate evaluation and materialization touch
// workflow storage, which is what the copy counters measure.
using StateRef = std::shared_ptr<const State>;

StateRef ShareState(State&& st) {
  // The pointee is built non-const: candidate evaluation temporarily
  // mutates a base state's workflow under an open surgery session (and
  // rolls it back); casting constness off a genuinely const object would
  // be undefined.
  return std::make_shared<State>(std::move(st));
}

// Transition surgery runs *directly on the base state's workflow* — apply,
// evaluate, roll back — so evaluating a candidate copies nothing. Every
// session is rolled back before the state is read again, so the state is
// logically immutable even while it hosts a probe.
Workflow& SurgeryBase(const State& s) {
  return const_cast<Workflow&>(s.workflow);
}

// The figures of a state (hash, cost, breakdown): all that probing
// against it reads. They describe bases whose workflow lives elsewhere —
// a scratch slot or a replayed reconstruction — as well as States.
NeighborEval FiguresOf(const State& s) {
  NeighborEval f;
  f.signature_hash = s.signature_hash;
  f.cost = s.cost;
  f.breakdown = s.breakdown;
  return f;
}

// Probes transitions on one base workflow. Each Probe applies a transition
// in place, evaluates the neighbor against the base's figures, hands it to
// `visit` while it is still applied (so the visitor may copy it), and rolls
// it back. Paranoid builds byte-compare the base after every probe against
// a twin copy taken at construction, and re-derive its hash and cost: the
// base itself is the object being mutated, so only a twin can show that a
// rollback restored it.
class Prober {
 public:
  Prober(Workflow& wf, NeighborEval base, const StateEvaluator& eval,
         Workflow::UndoLog& log)
      : wf_(wf),
        base_(std::move(base)),
        eval_(eval),
        log_(log)
#ifdef ETLOPT_PARANOID_CHECKS
        ,
        twin_(eval.ParanoidTwin(wf))
#endif
  {
  }

  // `apply(wf, log)` opens a session and mutates `wf`, or rolls back and
  // fails when the transition is illegal here. `visit(applied, ne)` sees
  // each legal neighbor. Returns false for an illegal transition.
  template <typename Apply, typename Visit>
  StatusOr<bool> Probe(const Apply& apply, const Visit& visit) {
    const bool legal = apply(wf_, log_).ok();
    Status status = Status::OK();
    if (legal) {
      auto ne = eval_.EvalNeighbor(wf_, *base_.breakdown);
      if (ne.ok()) {
        visit(static_cast<const Workflow&>(wf_), ne.value());
      } else {
        status = ne.status();
      }
      wf_.RollbackSurgery();
    }
#ifdef ETLOPT_PARANOID_CHECKS
    eval_.ParanoidCheckRestore(wf_, twin_, base_.signature_hash, base_.cost);
#endif
    ETLOPT_RETURN_NOT_OK(status);
    return legal;
  }

 private:
  Workflow& wf_;
  const NeighborEval base_;
  const StateEvaluator& eval_;
  Workflow::UndoLog& log_;
#ifdef ETLOPT_PARANOID_CHECKS
  Workflow twin_;
#endif
};

// The in-place form of SWA(u, d), as a Prober transition.
auto SwapOf(NodeId u, NodeId d) {
  return [u, d](Workflow& s, Workflow::UndoLog& log) {
    return ApplySwapInPlace(s, u, d, log);
  };
}

// One scratch workflow for transition sequences that advance away from a
// base by committing (a hill-climb past its first winner, a Phase III
// cascade). Reuse is keyed on the *source instance* (address of the
// immutable base workflow) plus its signature hash — not the hash alone:
// two states can share a canonical signature yet differ byte-wise
// (node-id layout and table order depend on the derivation path), and a
// byte-different twin would break the exact-restore contract. Paranoid
// builds byte-verify every reuse.
class ScratchSlot {
 public:
  // A workflow equal to `base_wf`: free when the slot already mirrors
  // this very instance, one copy otherwise.
  Workflow& Sync(const Workflow& base_wf, uint64_t base_hash) {
    if (valid_ && src_ == &base_wf && hash_ == base_hash) {
#ifdef ETLOPT_PARANOID_CHECKS
      ETLOPT_CHECK(workflow_.DebugEquals(base_wf));
#endif
    } else {
      workflow_ = base_wf;
      Rekey(&base_wf, base_hash);
    }
    return workflow_;
  }

  // Re-keys the slot after its workflow was mutated and committed in
  // place. `src` names the instance the slot now mirrors (e.g. the State
  // just copied from it), or nullptr when the content has no durable twin.
  void Rekey(const void* src, uint64_t hash) {
    src_ = src;
    hash_ = hash;
    valid_ = true;
  }

  // Marks the slot's content as consumed (moved-from).
  void Invalidate() { valid_ = false; }

 private:
  Workflow workflow_;
  const void* src_ = nullptr;
  uint64_t hash_ = 0;
  bool valid_ = false;
};

// One not-yet-applied transition: its in-place form (see Prober) and the
// trace record. The in-place form captures only node ids, so it applies to
// any workflow equal to the one it was collected from.
struct Candidate {
  std::function<Status(Workflow&, Workflow::UndoLog&)> apply;
  TransitionRecord rec;
};

// The candidate successors of `w` under SWA, FAC, DIS, in the canonical
// enumeration order (ascending node ids; analysis order for pairs).
std::vector<Candidate> CollectSuccessorCandidates(const Workflow& w) {
  std::vector<Candidate> out;

  // SWA over every adjacent unary pair.
  for (NodeId u : w.ActivityNodeIds()) {
    if (!IsUnaryActivityNode(w, u)) continue;
    std::vector<NodeId> consumers = w.Consumers(u);
    if (consumers.size() != 1 || !IsUnaryActivityNode(w, consumers[0]))
      continue;
    NodeId d = consumers[0];
    out.push_back({SwapOf(u, d),
                   TransitionRecord{TransitionRecord::Kind::kSwap,
                                    StrFormat("SWA(%s,%s)",
                                              w.PriorityLabelOf(u).c_str(),
                                              w.PriorityLabelOf(d).c_str())}});
  }

  // FAC over homologous pairs adjacent to their binary.
  for (const auto& h : FindHomologousPairs(w)) {
    out.push_back(
        {[h](Workflow& s, Workflow::UndoLog& log) {
           return ApplyFactorizeInPlace(s, h.binary, h.a1, h.a2, log);
         },
         TransitionRecord{TransitionRecord::Kind::kFactorize,
                          StrFormat("FAC(%s,%s,%s)",
                                    w.PriorityLabelOf(h.binary).c_str(),
                                    w.PriorityLabelOf(h.a1).c_str(),
                                    w.PriorityLabelOf(h.a2).c_str())}});
  }

  // DIS of direct consumers of binary activities.
  for (const auto& d : FindDistributable(w)) {
    out.push_back(
        {[d](Workflow& s, Workflow::UndoLog& log) {
           return ApplyDistributeInPlace(s, d.binary, d.node, log);
         },
         TransitionRecord{TransitionRecord::Kind::kDistribute,
                          StrFormat("DIS(%s,%s)",
                                    w.PriorityLabelOf(d.binary).c_str(),
                                    w.PriorityLabelOf(d.node).c_str())}});
  }
  return out;
}

// Read-only legality walk of a downstream shift chain: true when every
// node between `a` and `stop` is a single-consumer unary activity — the
// exact sequence of structural checks ShiftDownstream performs, evaluated
// before a surgery session opens. A semantically illegal swap can still
// fail inside the chain afterwards; the walk only screens out chains that
// are structurally doomed, so skipping them never changes search results.
bool CanShiftDownstream(const Workflow& w, NodeId a, NodeId stop) {
  NodeId cur = a;
  while (true) {
    std::vector<NodeId> consumers = w.Consumers(cur);
    if (consumers.size() != 1) return false;
    if (consumers[0] == stop) return true;
    if (!IsUnaryActivityNode(w, consumers[0])) return false;
    cur = consumers[0];
  }
}

// Upstream twin of CanShiftDownstream, mirroring ShiftUpstream's checks.
bool CanShiftUpstream(const Workflow& w, NodeId a, NodeId stop) {
  NodeId cur = a;
  while (true) {
    std::vector<NodeId> providers = w.Providers(cur);
    if (providers.size() != 1) return false;
    if (providers[0] == stop) return true;
    if (!IsUnaryActivityNode(w, providers[0])) return false;
    cur = providers[0];
  }
}

// Moves `a` downstream via swaps until its consumer is `stop`, rewiring
// `w` directly. Meant to run inside an open surgery session so a failed
// chain rolls back whole.
Status ShiftDownstream(Workflow& w, NodeId a, NodeId stop) {
  while (true) {
    std::vector<NodeId> consumers = w.Consumers(a);
    if (consumers.size() != 1) {
      return Status::FailedPrecondition("shift-forward: no single consumer");
    }
    if (consumers[0] == stop) return Status::OK();
    if (!IsUnaryActivityNode(w, consumers[0])) {
      return Status::FailedPrecondition(
          "shift-forward: blocked by a non-unary node");
    }
    ETLOPT_RETURN_NOT_OK(ApplySwapDirect(w, a, consumers[0]));
  }
}

// Moves `a` upstream via swaps until its provider is `stop`.
Status ShiftUpstream(Workflow& w, NodeId a, NodeId stop) {
  while (true) {
    std::vector<NodeId> providers = w.Providers(a);
    if (providers.size() != 1) {
      return Status::FailedPrecondition("shift-backward: not unary");
    }
    if (providers[0] == stop) return Status::OK();
    if (!IsUnaryActivityNode(w, providers[0])) {
      return Status::FailedPrecondition(
          "shift-backward: blocked by a non-unary node");
    }
    ETLOPT_RETURN_NOT_OK(ApplySwapDirect(w, providers[0], a));
  }
}

// One Phase II chain attempt: shifts the homologous pair `h` down to its
// binary and factorizes it, all as one surgery session on `base`'s own
// workflow. A rejected chain rolls back for free and yields nullptr; an
// accepted one pays exactly one copy (the State it becomes) and is then
// rolled back too.
StatusOr<StateRef> TryFactorizeChain(const State& base,
                                     const HomologousPair& h,
                                     const StateEvaluator& eval,
                                     Workflow::UndoLog& log) {
  StateRef kept;
  Prober prober(SurgeryBase(base), FiguresOf(base), eval, log);
  ETLOPT_RETURN_NOT_OK(
      prober
          .Probe(
              [&h](Workflow& wf, Workflow::UndoLog& l) {
                wf.BeginSurgery(&l);
                Status s = ShiftDownstream(wf, h.a1, h.binary);
                if (s.ok()) s = ShiftDownstream(wf, h.a2, h.binary);
                if (s.ok()) s = ApplyFactorizeDirect(wf, h.binary, h.a1, h.a2);
                if (!s.ok()) wf.RollbackSurgery();
                return s;
              },
              [&](const Workflow& applied, NeighborEval& ne) {
                kept = ShareState(eval.MaterializeState(applied, ne));
              })
          .status());
  return kept;
}

// Adjacent pairs (u, d) with both endpoints inside `group`.
std::vector<std::pair<NodeId, NodeId>> AdjacentPairsInGroup(
    const Workflow& w, const std::set<NodeId>& group) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u : group) {
    if (!w.Exists(u)) continue;
    std::vector<NodeId> consumers = w.Consumers(u);
    if (consumers.size() == 1 && group.count(consumers[0])) {
      out.push_back({u, consumers[0]});
    }
  }
  return out;
}

// Zero-copy hill-climb over one group's swaps: repeatedly applies the best
// cost-improving swap (strict <, first winner in candidate order). The
// climb probes right on the base workflow — a sweep that never improves
// (the common case for Phase IV re-sweeps) costs zero copies. At the first
// winner it moves onto the scratch slot (one sync, free when the slot
// already mirrors `start`), because committing must not alter `start`;
// each round's winner is re-applied and *committed* there, and the final
// state is moved, not copied, out of the slot.
StatusOr<StateRef> HillClimbSwaps(StateRef start,
                                  const std::set<NodeId>& group,
                                  const StateEvaluator& eval,
                                  ScratchSlot* scratch,
                                  Workflow::UndoLog& log, Budget* budget) {
  Workflow* sweep = &SurgeryBase(*start);
  bool on_slot = false;
  // The figures of the sweep's current state; its workflow is `*sweep`.
  NeighborEval figs = FiguresOf(*start);
  bool improved = true;
  while (improved && !budget->Exhausted()) {
    improved = false;
    const auto pairs = AdjacentPairsInGroup(*sweep, group);
    double best_cost = figs.cost;
    size_t best_i = pairs.size();
    NeighborEval best_ne;
    Prober prober(*sweep, figs, eval, log);
    for (size_t i = 0; i < pairs.size(); ++i) {
      ETLOPT_ASSIGN_OR_RETURN(
          bool legal,
          prober.Probe(SwapOf(pairs[i].first, pairs[i].second),
                       [&](const Workflow&, NeighborEval& ne) {
                         if (ne.cost < best_cost) {
                           best_cost = ne.cost;
                           best_i = i;
                           best_ne = std::move(ne);
                           improved = true;
                         }
                       }));
      if (legal) ++budget->visited;
    }
    budget->generated += pairs.size();
    if (!improved) break;
    if (!on_slot) {
      sweep = &scratch->Sync(start->workflow, start->signature_hash);
      on_slot = true;
    }
    // Advance the sweep: re-apply the winner and keep it.
    ETLOPT_RETURN_NOT_OK(ApplySwapInPlace(*sweep, pairs[best_i].first,
                                          pairs[best_i].second, log));
#ifdef ETLOPT_PARANOID_CHECKS
    ETLOPT_CHECK(sweep->SignatureHash() == best_ne.signature_hash);
#endif
    sweep->CommitSurgery();
    sweep->ClearDirtyNodes();
    // No durable twin exists for the advanced sweep state; the nullptr key
    // keeps the slot private to this climb.
    scratch->Rekey(nullptr, best_ne.signature_hash);
    figs = std::move(best_ne);
  }
  if (!on_slot) return start;  // nothing improved; nothing copied
  scratch->Invalidate();
  return ShareState(eval.MaterializeState(std::move(*sweep), figs));
}

// Phase I / IV inner loop: optimizes the order of one local group's
// activities by swaps only.
//
// HS-Greedy hill-climbs, accepting only cost-improving swaps (§4.2's
// greedy variant). HS seeds a bounded BFS over every reachable ordering of
// the group (Heuristic 4's divide-and-conquer) with the hill-climbed
// ordering, so its sweep is never worse than the greedy one.
StatusOr<StateRef> OptimizeGroupSwaps(StateRef start,
                                      const std::vector<NodeId>& group_nodes,
                                      const StateEvaluator& eval,
                                      SignatureInterner* interner,
                                      ScratchSlot* scratch,
                                      Workflow::UndoLog& log, bool greedy,
                                      const SearchOptions& options,
                                      Budget* budget) {
  std::set<NodeId> group(group_nodes.begin(), group_nodes.end());
  ETLOPT_ASSIGN_OR_RETURN(
      StateRef best, HillClimbSwaps(start, group, eval, scratch, log, budget));
  if (greedy) return best;
  // Light BFS: a queue entry is (root, swap path) plus the figures the
  // candidate evaluation already computed — enqueueing a state costs no
  // workflow copy at all. A popped entry is reconstructed by replaying its
  // path on a cached copy of its root inside a surgery session; candidates
  // are probed against the reconstruction in nested sessions, and the
  // outer rollback returns the cache to its root. Only the overall winner
  // is materialized, once, at the end.
  //
  // Replay is deterministic: in-group swaps never create or destroy nodes,
  // so node ids are stable along any path, and re-applying the same swaps
  // to a byte-identical root reproduces the evaluated state bit for bit.
  struct Entry {
    StateRef root;
    std::vector<std::pair<NodeId, NodeId>> path;
    NeighborEval figs;
  };
  std::deque<Entry> queue;
  queue.push_back(Entry{best, {}, FiguresOf(*best)});
  queue.push_back(Entry{start, {}, FiguresOf(*start)});
  std::set<uint64_t> seen{interner->Intern(*best), interner->Intern(*start)};
  // One replay cache per seed root; a rolled-back cache equals its root,
  // so alternating between the two costs no re-copy.
  struct RootCache {
    Workflow wf;
    uint64_t hash = 0;
    bool valid = false;
  };
  RootCache roots[2];
  Workflow::UndoLog path_log;
  double best_cost = best->cost;
  std::optional<Entry> winner;
  while (!queue.empty() && seen.size() < options.max_states_per_group &&
         !budget->Exhausted()) {
    Entry cur = std::move(queue.front());
    queue.pop_front();
    Workflow* base_wf = &SurgeryBase(*cur.root);
    Workflow* replayed = nullptr;
    if (!cur.path.empty()) {
      RootCache* rc = nullptr;
      for (RootCache& r : roots) {
        if (r.valid && r.hash == cur.root->signature_hash) rc = &r;
      }
      if (rc == nullptr) {
        rc = !roots[0].valid ? &roots[0] : &roots[1];
        rc->wf = cur.root->workflow;
        rc->hash = cur.root->signature_hash;
        rc->valid = true;
      }
      replayed = &rc->wf;
      replayed->BeginSurgery(&path_log);
      Status step = Status::OK();
      for (const auto& [u, d] : cur.path) {
        step = ApplySwapDirect(*replayed, u, d);
        if (!step.ok()) break;
      }
      if (step.ok()) step = replayed->Refresh();
      if (!step.ok()) {
        replayed->RollbackSurgery();
        return step;  // replay of accepted swaps: a real error
      }
      // The entry's breakdown is current for the reconstruction, so the
      // dirty set restarts empty — candidate evaluations delta-recost only
      // their own swap. Rollback restores the root's (empty) set.
      replayed->ClearDirtyNodes();
#ifdef ETLOPT_PARANOID_CHECKS
      ETLOPT_CHECK(replayed->SignatureHash() == cur.figs.signature_hash);
#endif
      base_wf = replayed;
    }
    const auto pairs = AdjacentPairsInGroup(*base_wf, group);
    Status probed = Status::OK();
    {
      Prober prober(*base_wf, cur.figs, eval, log);
      for (const auto& pair : pairs) {
        probed =
            prober
                .Probe(SwapOf(pair.first, pair.second),
                       [&](const Workflow&, NeighborEval& ne) {
                         if (!seen.insert(interner->Intern(ne.signature_hash,
                                                           ne.signature))
                                  .second) {
                           return;
                         }
                         ++budget->visited;
                         Entry child{cur.root, cur.path, std::move(ne)};
                         child.path.push_back(pair);
                         if (child.figs.cost < best_cost) {
                           best_cost = child.figs.cost;
                           winner = child;
                         }
                         queue.push_back(std::move(child));
                       })
                .status();
        if (!probed.ok()) break;
      }
    }
    budget->generated += pairs.size();
    if (replayed != nullptr) {
      replayed->RollbackSurgery();
#ifdef ETLOPT_PARANOID_CHECKS
      ETLOPT_CHECK(replayed->SignatureHash() == cur.root->signature_hash);
#endif
    }
    ETLOPT_RETURN_NOT_OK(probed);
  }
  if (!winner.has_value()) return best;
  // Materialize the winner: the single copy the whole BFS pays.
  Workflow wf = winner->root->workflow;
  for (const auto& [u, d] : winner->path) {
    ETLOPT_RETURN_NOT_OK(ApplySwapDirect(wf, u, d));
  }
  ETLOPT_RETURN_NOT_OK(wf.Refresh());
#ifdef ETLOPT_PARANOID_CHECKS
  ETLOPT_CHECK(wf.SignatureHash() == winner->figs.signature_hash);
#endif
  return ShareState(eval.MaterializeState(std::move(wf), winner->figs));
}

// Splits every multi-member chain back into singleton nodes (the final
// SPL applications of Fig. 7, line 36).
StatusOr<Workflow> SplitAllMergedNodes(Workflow w) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id : w.ActivityNodeIds()) {
      if (w.chain(id).size() > 1) {
        ETLOPT_RETURN_NOT_OK(w.SplitNode(id, 1).status());
        changed = true;
        break;
      }
    }
  }
  ETLOPT_RETURN_NOT_OK(w.Refresh());
  return w;
}

// Finds the activity node whose chain has exactly one member labelled
// `label`.
StatusOr<NodeId> FindNodeByActivityLabel(const Workflow& w,
                                         const std::string& label) {
  NodeId found = kInvalidNode;
  for (NodeId id : w.ActivityNodeIds()) {
    for (const auto& m : w.chain(id).members()) {
      if (m.activity.label() == label) {
        if (found != kInvalidNode) {
          return Status::FailedPrecondition("ambiguous activity label: " +
                                            label);
        }
        found = id;
      }
    }
  }
  if (found == kInvalidNode) {
    return Status::NotFound("no activity labelled: " + label);
  }
  return found;
}

StatusOr<SearchResult> RunHeuristic(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints, bool greedy) {
  ETLOPT_RETURN_NOT_OK(ValidateSearchOptions(options));
  Budget budget(options);
  StateEvaluator eval(model, options.cache_hint, options.reliability);
  SignatureInterner interner;
  ScratchSlot scratch;
  Workflow::UndoLog log;
  Workflow w0 = initial;
  if (!w0.fresh()) {
    ETLOPT_RETURN_NOT_OK(w0.Refresh());
  }
  // Pre-processing (Fig. 7, ln 4): apply merge constraints.
  for (const auto& mc : merge_constraints) {
    ETLOPT_ASSIGN_OR_RETURN(NodeId a1,
                            FindNodeByActivityLabel(w0, mc.first_label));
    ETLOPT_ASSIGN_OR_RETURN(NodeId a2,
                            FindNodeByActivityLabel(w0, mc.second_label));
    ETLOPT_ASSIGN_OR_RETURN(w0, ApplyMerge(w0, a1, a2));
  }
  ETLOPT_ASSIGN_OR_RETURN(State s0v, eval.Eval(std::move(w0)));
  StateRef s0 = ShareState(std::move(s0v));
  ++budget.visited;
  SearchResult result;
  result.initial_cost = s0->cost;
  StateRef smin = s0;

  // Fig. 7, ln 6-8: homologous (H), distributable (D), local groups (L).
  std::vector<HomologousPair> homologous = FindHomologousPairs(s0->workflow);
  std::vector<DistributableActivity> distributable =
      FindDistributable(s0->workflow);
  std::vector<LocalGroup> groups = FindLocalGroups(s0->workflow);

  // Phase I (ln 9-13): swap optimization inside each local group.
  StateRef cur = s0;
  if (options.enable_phase1_sweep) {
    for (const auto& g : groups) {
      if (budget.Exhausted()) break;
      ETLOPT_ASSIGN_OR_RETURN(
          cur, OptimizeGroupSwaps(cur, g.nodes, eval, &interner, &scratch, log,
                                  greedy, options, &budget));
    }
  }
  if (cur->cost < smin->cost) smin = cur;

  // `visited` list of distinct promising states (ln 14), keyed by
  // signature hash.
  std::map<uint64_t, StateRef> visited;
  visited.emplace(interner.Intern(*smin), smin);

  // Phase II (ln 15-20): factorize homologous pairs that can be shifted
  // forward to their binary. A successful factorization can expose a new
  // homologous pair one level up a union tree (the shared clone and its
  // counterpart on the sibling flow), so each seed pair cascades to a
  // fixpoint. Each shift/factorize chain is one surgery session that
  // delta-recosts against the state it was derived from; a structurally
  // doomed first shift is screened out before the session even opens.
  for (const auto& h : homologous) {
    if (!options.enable_factorize) break;
    if (budget.Exhausted()) break;
    const Workflow& base = smin->workflow;
    if (!base.Exists(h.a1) || !base.Exists(h.a2) || !base.Exists(h.binary))
      continue;
    std::string semantics = base.chain(h.a1).SemanticsString();
    ++budget.generated;
    if (!CanShiftDownstream(base, h.a1, h.binary)) continue;
    ETLOPT_ASSIGN_OR_RETURN(StateRef st,
                            TryFactorizeChain(*smin, h, eval, log));
    if (st == nullptr) continue;
    ++budget.visited;
    // Cascade: keep factorizing pairs with the same semantics.
    bool changed = true;
    while (changed && !budget.Exhausted()) {
      changed = false;
      for (const auto& hc : FindHomologousPairs(st->workflow)) {
        if (st->workflow.chain(hc.a1).SemanticsString() != semantics) continue;
        ++budget.generated;
        if (!CanShiftDownstream(st->workflow, hc.a1, hc.binary)) continue;
        ETLOPT_ASSIGN_OR_RETURN(StateRef next,
                                TryFactorizeChain(*st, hc, eval, log));
        if (next == nullptr) continue;
        st = std::move(next);
        ++budget.visited;
        changed = true;
        break;
      }
    }
    if (st->cost < smin->cost) smin = st;
    visited.emplace(interner.Intern(*st), std::move(st));
  }

  // Phase III (ln 21-28): distribute the initial state's distributable
  // activities in every state produced so far (activities factorized in
  // Phase II have fresh node ids, so they are naturally excluded). The
  // worklist includes states Phase III itself produces, so distributions
  // of *different* activities compose (e.g. two post-union filters both
  // pushed into the flows).
  std::deque<StateRef> worklist;
  std::set<uint64_t> queued;
  for (const auto& [sig, st] : visited) {
    worklist.push_back(st);
    queued.insert(sig);
  }
  while (!worklist.empty() && options.enable_distribute &&
         !budget.Exhausted()) {
    const StateRef si = std::move(worklist.front());
    worklist.pop_front();
    for (const auto& d : distributable) {
      if (budget.Exhausted()) break;
      if (!si->workflow.Exists(d.node)) continue;
      std::string plabel = si->workflow.PriorityLabelOf(d.node);
      // Distribute, then cascade the clones (identified by the carried
      // priority label) down through any further binary activities — a
      // selection above a union tree can be pushed into every leaf flow.
      //
      // The whole cascade advances the scratch slot. Each step is its own
      // surgery session — apply, evaluate, commit (or roll back just that
      // step) — so the only copies a cascade pays are the slot sync at its
      // start (free when the slot already mirrors `si`) and one per state
      // it actually keeps: enqueued on the worklist or a new running
      // minimum. Interior cascade depths that are neither come and go
      // without ever being materialized.
      Workflow& wf = scratch.Sync(si->workflow, si->signature_hash);
      NeighborEval figs = FiguresOf(*si);
      bool changed = true;
      while (changed && !budget.Exhausted()) {
        changed = false;
        for (const auto& dc : FindDistributable(wf)) {
          if (wf.PriorityLabelOf(dc.node) != plabel) continue;
          ++budget.generated;
          if (!CanShiftUpstream(wf, dc.node, dc.binary)) continue;
          wf.BeginSurgery(&log);
          Status step = ShiftUpstream(wf, dc.node, dc.binary);
          if (step.ok()) {
            step = ApplyDistributeDirect(wf, dc.binary, dc.node);
          }
          if (!step.ok()) {
            wf.RollbackSurgery();
#ifdef ETLOPT_PARANOID_CHECKS
            ETLOPT_CHECK(wf.SignatureHash() == figs.signature_hash);
#endif
            continue;
          }
          Status refreshed = wf.Refresh();
          if (!refreshed.ok()) {
            wf.RollbackSurgery();
            return refreshed;  // transitions guarantee validity
          }
          auto ne = eval.EvalNeighbor(wf, *figs.breakdown);
          if (!ne.ok()) {
            wf.RollbackSurgery();
            return ne.status();
          }
          wf.CommitSurgery();
          wf.ClearDirtyNodes();
          figs = std::move(ne).value();
          // Until a twin is materialized below, the advanced slot has no
          // durable source instance to be keyed on.
          scratch.Rekey(nullptr, figs.signature_hash);
          ++budget.visited;
          changed = true;
          // Every cascade depth is a candidate: pushing all the way down
          // is not always the cheapest placement. Past the composition
          // cap, keep improving states only and stop re-enqueueing.
          const bool enqueue =
              queued.insert(interner.Intern(figs.signature_hash, figs.signature))
                  .second &&
              visited.size() < options.max_phase3_states;
          const bool improves = figs.cost < smin->cost;
          if (enqueue || improves) {
            StateRef kept = ShareState(eval.MaterializeState(wf, figs));
            if (improves) smin = kept;
            if (enqueue) {
              visited.emplace(kept->signature_hash, kept);
              worklist.push_back(kept);
              // `kept` was copied from the slot, so the slot mirrors it
              // byte-for-byte; keying the slot to `kept` lets the worklist
              // pop of `kept` start its own cascades without a re-sync.
              // `visited` keeps the instance alive (and its address
              // stable) for the rest of the search.
              scratch.Rekey(&kept->workflow, kept->signature_hash);
            }
          }
          break;
        }
      }
    }
  }

  // Phase IV (ln 29-35): re-run the swap sweeps on the visited states
  // (local groups changed after FAC/DIS). Visited states are processed in
  // ascending cost order and the sweep is limited to the most promising
  // ones — the tail of the list rarely overtakes a full sweep of the
  // leaders and re-sweeping everything dominates the runtime. Ties break
  // on signature hash so the order is deterministic.
  std::vector<StateRef> snapshot;
  snapshot.reserve(visited.size());
  for (const auto& [sig, st] : visited) snapshot.push_back(st);
  std::sort(snapshot.begin(), snapshot.end(),
            [](const StateRef& a, const StateRef& b) {
              return a->cost != b->cost
                         ? a->cost < b->cost
                         : a->signature_hash < b->signature_hash;
            });
  if (snapshot.size() > options.max_phase4_states) {
    snapshot.resize(options.max_phase4_states);
  }
  for (const StateRef& si : snapshot) {
    if (!options.enable_phase4_resweep) break;
    if (budget.Exhausted()) break;
    StateRef c = si;
    for (const auto& g : FindLocalGroups(c->workflow)) {
      if (budget.Exhausted()) break;
      ETLOPT_ASSIGN_OR_RETURN(
          c, OptimizeGroupSwaps(c, g.nodes, eval, &interner, &scratch, log,
                                greedy, options, &budget));
    }
    if (c->cost < smin->cost) smin = c;
  }

  // Post-processing (ln 36): split anything still merged.
  ETLOPT_ASSIGN_OR_RETURN(Workflow split, SplitAllMergedNodes(smin->workflow));
  ETLOPT_ASSIGN_OR_RETURN(State final_state,
                          eval.EvalFrom(std::move(split), *smin));

  result.best = std::move(final_state);
  result.best.signature = result.best.workflow.Signature();
  result.visited_states = budget.visited;
  result.elapsed_millis = budget.ElapsedMillis();
  result.exhausted = !budget.Exhausted();
  result.perf = eval.perf();
  ETLOPT_RETURN_NOT_OK(FinalizeRecoveryPlan(result, model, options));
  return result;
}

}  // namespace

Status ValidateSearchOptions(const SearchOptions& options) {
  if (options.max_states == 0) {
    return Status::InvalidArgument(
        "search options: max_states must be positive");
  }
  if (options.max_millis <= 0) {
    return Status::InvalidArgument(
        "search options: max_millis must be positive");
  }
  if (options.max_phase4_states == 0) {
    return Status::InvalidArgument(
        "search options: max_phase4_states must be positive");
  }
  if (options.reliability != nullptr) {
    ETLOPT_RETURN_NOT_OK(ValidateReliabilityParams(*options.reliability));
  }
  return Status::OK();
}

Status FinalizeRecoveryPlan(SearchResult& result, const CostModel& model,
                            const SearchOptions& options) {
  if (options.reliability == nullptr) {
    result.recovery = RecoveryPointPlan{};
    return Status::OK();
  }
  std::shared_ptr<const CostBreakdown> bd = result.best.breakdown;
  if (bd == nullptr) {
    ETLOPT_ASSIGN_OR_RETURN(CostBreakdown fresh,
                            ComputeCostBreakdown(result.best.workflow, model));
    bd = std::make_shared<const CostBreakdown>(std::move(fresh));
  }
  result.recovery =
      PlaceRecoveryPoints(result.best.workflow, *bd, *options.reliability);
  return Status::OK();
}

std::string ResultFingerprint(const SearchOptions& options) {
  std::string fp = StrFormat(
      "max_states=%zu,max_millis=%lld,per_group=%zu,phase3=%zu,phase4=%zu,"
      "phases=%d%d%d%d",
      options.max_states, static_cast<long long>(options.max_millis),
      options.max_states_per_group, options.max_phase3_states,
      options.max_phase4_states, options.enable_phase1_sweep ? 1 : 0,
      options.enable_factorize ? 1 : 0, options.enable_distribute ? 1 : 0,
      options.enable_phase4_resweep ? 1 : 0);
  // Appended only when hinted, so every pre-existing fingerprint (and
  // with it every serving-layer plan-cache key) is byte-stable.
  if (options.cache_hint != nullptr) {
    fp += StrFormat(",cache_snapshot=%llu,cache_residual=%.17g",
                    static_cast<unsigned long long>(
                        options.cache_hint->snapshot_id),
                    options.cache_hint->residual);
  }
  if (options.reliability != nullptr) {
    fp += ",reliability=" + ReliabilityFingerprint(*options.reliability);
  }
  return fp;
}

std::string_view SearchAlgorithmToString(SearchAlgorithm algorithm) {
  switch (algorithm) {
    case SearchAlgorithm::kExhaustive: return "es";
    case SearchAlgorithm::kHeuristic: return "hs";
    case SearchAlgorithm::kHeuristicGreedy: return "hsg";
  }
  return "hs";
}

StatusOr<SearchAlgorithm> SearchAlgorithmFromString(std::string_view name) {
  if (name == "es") return SearchAlgorithm::kExhaustive;
  if (name == "hs") return SearchAlgorithm::kHeuristic;
  if (name == "hsg") return SearchAlgorithm::kHeuristicGreedy;
  return Status::InvalidArgument("unknown search algorithm: " +
                                 std::string(name));
}

StatusOr<SearchResult> RunSearch(
    SearchAlgorithm algorithm, const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  switch (algorithm) {
    case SearchAlgorithm::kExhaustive:
      return ExhaustiveSearch(initial, model, options);
    case SearchAlgorithm::kHeuristic:
      return HeuristicSearch(initial, model, options, merge_constraints);
    case SearchAlgorithm::kHeuristicGreedy:
      return HeuristicSearchGreedy(initial, model, options, merge_constraints);
  }
  return Status::InvalidArgument("unknown search algorithm");
}

StatusOr<State> MakeState(Workflow workflow, const CostModel& model) {
  if (!workflow.fresh()) {
    ETLOPT_RETURN_NOT_OK(workflow.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(CostBreakdown bd,
                          ComputeCostBreakdown(workflow, model));
  State s;
  s.cost = bd.total;
  s.signature_hash = workflow.SignatureHash();
  s.signature = workflow.Signature();
  s.breakdown = std::make_shared<const CostBreakdown>(std::move(bd));
  workflow.ClearDirtyNodes();
  s.workflow = std::move(workflow);
  return s;
}

StatusOr<std::vector<std::pair<State, TransitionRecord>>> EnumerateSuccessors(
    const State& state, const CostModel& model) {
  // One scratch copy of the base hosts every candidate in turn; each legal
  // successor is copied out while it is applied, then rolled back.
  Workflow scratch = state.workflow;
  Workflow::UndoLog log;
  std::vector<Candidate> candidates = CollectSuccessorCandidates(scratch);
  std::vector<std::pair<State, TransitionRecord>> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    if (!c.apply(scratch, log).ok()) continue;
    auto st = MakeState(scratch, model);
    scratch.RollbackSurgery();
    ETLOPT_RETURN_NOT_OK(st.status());
    out.emplace_back(std::move(st).value(), c.rec);
  }
  return out;
}

StatusOr<SearchResult> ExhaustiveSearch(const Workflow& initial,
                                        const CostModel& model,
                                        const SearchOptions& options) {
  ETLOPT_RETURN_NOT_OK(ValidateSearchOptions(options));
  Budget budget(options);
  StateEvaluator eval(model, options.cache_hint, options.reliability);
  SignatureInterner interner;
  Workflow::UndoLog log;
  Workflow w0 = initial;
  if (!w0.fresh()) {
    ETLOPT_RETURN_NOT_OK(w0.Refresh());
  }
  ETLOPT_ASSIGN_OR_RETURN(State s0v, eval.Eval(std::move(w0)));
  StateRef s0 = ShareState(std::move(s0v));
  SearchResult result;
  result.initial_cost = s0->cost;
  StateRef best = s0;

  // Lineage: state hash -> (parent hash, producing transition), for
  // reconstructing the rewrite path of the optimum.
  std::map<uint64_t, std::pair<uint64_t, TransitionRecord>> parent;
  const uint64_t initial_hash = interner.Intern(*s0);
  std::set<uint64_t> visited{initial_hash};
  std::deque<StateRef> queue;
  queue.push_back(std::move(s0));
  ++budget.visited;
  bool complete = true;
  while (!queue.empty()) {
    if (budget.Exhausted()) {
      complete = false;
      break;
    }
    StateRef cur = std::move(queue.front());
    queue.pop_front();
    // Each candidate is probed on `cur`'s own workflow; a successor not
    // seen before is copied out (its one copy) before the rollback.
    std::vector<Candidate> candidates =
        CollectSuccessorCandidates(cur->workflow);
    budget.generated += candidates.size();
    Prober prober(SurgeryBase(*cur), FiguresOf(*cur), eval, log);
    for (const Candidate& c : candidates) {
      StateRef sp;
      ETLOPT_RETURN_NOT_OK(
          prober
              .Probe(c.apply,
                     [&](const Workflow& applied, NeighborEval& ne) {
                       if (visited
                               .insert(interner.Intern(ne.signature_hash,
                                                       ne.signature))
                               .second) {
                         sp = ShareState(eval.MaterializeState(applied, ne));
                       }
                     })
              .status());
      if (sp == nullptr) continue;
      parent.emplace(sp->signature_hash,
                     std::make_pair(cur->signature_hash, c.rec));
      ++budget.visited;
      if (sp->cost < best->cost) best = sp;
      queue.push_back(std::move(sp));
      if (budget.Exhausted()) {
        complete = false;
        break;
      }
    }
  }
  // Walk the lineage back from the optimum to the initial state.
  uint64_t sig = best->signature_hash;
  while (sig != initial_hash) {
    auto it = parent.find(sig);
    ETLOPT_CHECK(it != parent.end());
    result.best_path.push_back(it->second.second);
    sig = it->second.first;
  }
  std::reverse(result.best_path.begin(), result.best_path.end());
  result.best = *best;
  result.best.signature = result.best.workflow.Signature();
  result.visited_states = budget.visited;
  result.elapsed_millis = budget.ElapsedMillis();
  result.exhausted = complete;
  result.perf = eval.perf();
  ETLOPT_RETURN_NOT_OK(FinalizeRecoveryPlan(result, model, options));
  return result;
}

StatusOr<SearchResult> HeuristicSearch(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  return RunHeuristic(initial, model, options, merge_constraints,
                      /*greedy=*/false);
}

StatusOr<SearchResult> HeuristicSearchGreedy(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  return RunHeuristic(initial, model, options, merge_constraints,
                      /*greedy=*/true);
}

}  // namespace etlopt
