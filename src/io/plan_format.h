// Serialized optimizer plans (.etlplan): the answer of one optimizer run
// — the request workflow, the optimized workflow with its carried
// priority labels (so the state signature survives the trip), the ES
// transition provenance when available, and the figures needed to verify
// a reload — in a canonical text form and a compact binary form, both
// round-trip exact. This is what the serving layer's plan cache persists
// across process restarts.
//
//   plan v1
//   algorithm hs
//   costmodel linlog(sk_setup=0,agg_setup=0)
//   options max_states=200000,max_millis=60000,...
//   merges cleana+cleanb               # canonical merge constraints
//   initial_cost 45852
//   best_cost 30000.125
//   signature_hash 0x1f2e3d4c5b6a7988
//   visited_states 1234
//   exhausted 0
//   path SWA SWA(sel0,nn0)            # zero or more provenance lines
//   begin workflow initial 12         # exactly 12 DSL lines follow
//   ...
//   end workflow
//   begin workflow optimized 12
//   ...
//   end workflow
//   end plan

#ifndef ETLOPT_IO_PLAN_FORMAT_H_
#define ETLOPT_IO_PLAN_FORMAT_H_

#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "cost/reliability_model.h"
#include "optimizer/search.h"

namespace etlopt {

/// One cached/persisted optimizer answer. The workflow fields hold the
/// canonical DSL (with plabel= fields, see text_format.h), so a plan is
/// self-contained: no live Workflow objects needed to store or ship it.
struct OptimizedPlan {
  std::string algorithm;   // "es" | "hs" | "hsg"
  std::string cost_model;  // CostModel::Fingerprint() the run used
  std::string options;     // ResultFingerprint(SearchOptions) of the run
  std::string merges;      // CanonicalMergeConstraints of the run
  double initial_cost = 0.0;
  double best_cost = 0.0;
  uint64_t signature_hash = 0;  // best workflow's SignatureHash()
  uint64_t visited_states = 0;
  bool exhausted = false;
  std::vector<TransitionRecord> path;  // ES lineage; empty for heuristics
  std::string initial_text;    // request workflow, canonical DSL
  std::string optimized_text;  // best workflow, canonical DSL

  /// The run's recovery-point decision. Enabled only for reliability-aware
  /// runs; a disabled plan serializes to *nothing* — no text lines, no
  /// binary bytes — so legacy plans stay byte-identical and old parsers
  /// keep accepting new reliability-off plans. When enabled, both forms
  /// carry a tagged section ("recovery ..." lines / a tagged binary
  /// trailer) and ApplyPlan re-derives the placement from the reliability
  /// fingerprint embedded in `options`, rejecting any tampered section.
  RecoveryPointPlan recovery;
};

/// "l1+l2;l3+l4" — the canonical one-line form of a merge-constraint
/// list (order preserved: it is meaningful to HS pre-processing). Empty
/// for the empty list.
std::string CanonicalMergeConstraints(
    const std::vector<MergeConstraint>& merge_constraints);

/// Packages a search result as a plan. Fails when either workflow cannot
/// be printed (merged chains).
StatusOr<OptimizedPlan> MakePlan(
    const Workflow& initial, const SearchResult& result,
    SearchAlgorithm algorithm, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints = {});

/// Canonical text form. Printing is deterministic: parse(print(p)) == p
/// and print(parse(t)) == t for printer-produced t.
std::string PrintPlanText(const OptimizedPlan& plan);
StatusOr<OptimizedPlan> ParsePlanText(const std::string& text);

/// Parses a concatenation of plan texts (a persisted cache file).
StatusOr<std::vector<OptimizedPlan>> ParsePlansText(const std::string& text);

/// Compact binary form ("ETLPLAN1" magic; doubles stored as bit patterns,
/// so the round trip is trivially exact).
std::string SerializePlanBinary(const OptimizedPlan& plan);
StatusOr<OptimizedPlan> ParsePlanBinary(std::string_view bytes);

/// A whole persisted plan-cache file in binary form: the checksummed
/// envelope of common/byte_codec.h under the "ETLPLNS1" magic, around a
/// u32 count of u64-length-prefixed SerializePlanBinary entries. The
/// checksum is verified before any plan is parsed, so any truncation or
/// bit flip — including one that lands exactly on a plan boundary —
/// fails with a clean InvalidArgument.
inline constexpr std::string_view kPlanCacheBinaryMagic = "ETLPLNS1";
std::string SerializePlansBinary(const std::vector<OptimizedPlan>& plans);
StatusOr<std::vector<OptimizedPlan>> ParsePlansBinary(std::string_view bytes);

/// Reconstructs the optimized state from a (possibly reloaded) plan:
/// verifies the model fingerprint matches, parses optimized_text, costs
/// it under `model`, and checks cost bits and signature hash against the
/// recorded values — a reloaded plan that does not reproduce its recorded
/// answer exactly is rejected, never served.
StatusOr<State> ApplyPlan(const OptimizedPlan& plan, const CostModel& model);

/// Parses just the request workflow of a plan (cache keying on reload).
StatusOr<Workflow> PlanInitialWorkflow(const OptimizedPlan& plan);

}  // namespace etlopt

#endif  // ETLOPT_IO_PLAN_FORMAT_H_
