// Subgraph result signatures: a 64-bit content identity for the upstream
// cone of one workflow node, built so that two nodes — in the SAME or in
// DIFFERENT workflows — hash equal iff executing their upstream subtrees
// over the bound inputs produces byte-identical output rows (modulo the
// ~2^-64 FNV collision probability every other hashed identity in this
// codebase already accepts).
//
// The signature folds, over a canonical port-ordered DFS of the cone:
//  * the DAG structure itself, with first-visit indices and explicit
//    back-references, so a subtree that SHARES an upstream node never
//    collides with one that duplicates it — positional correspondence of
//    the two enumerations is part of the contract (the shared result
//    cache maps per-node bookkeeping between workflows by DFS position);
//  * per activity node: every chain member's semantics string (predicates
//    and parameters included), the computed output schema (attribute
//    order and types pin the byte layout), and — for surrogate-key
//    members — the fingerprint of the bound lookup table;
//  * per recordset node: the declared schema, plus the fingerprint of the
//    bound source data for sources. Estimated cardinalities, node ids,
//    names and priority labels are deliberately excluded: none of them
//    can change output bytes, and folding them would only lower the
//    cross-tenant hit rate.
//
// Data fingerprints are supplied by callbacks because this layer cannot
// see ExecutionInput (the engine depends on graph, not vice versa). The
// engine binds them to FNV-64 folds of the actual rows / lookup entries;
// the optimizer's cache-aware costing (CacheCostHint) must bind matching
// functions, or its hint keys never meet the executor's cache keys.
//
// Cost: one signature call spells out each node's content (the
// semantics strings, schemas and fingerprints above) once, and invokes
// each fingerprint callback at most once per distinct source or lookup
// name. The per-root walks then only fold those precomputed bytes, so
// signing every cone of a workflow costs one fold per cone member and
// one fingerprint per bound input, not one per visit.

#ifndef ETLOPT_GRAPH_SUBGRAPH_SIGNATURE_H_
#define ETLOPT_GRAPH_SUBGRAPH_SIGNATURE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/workflow.h"

namespace etlopt {

/// Content fingerprints of the run's bound inputs, by name. Each signature
/// call invokes a callback at most once per distinct name. A null
/// callback folds the name itself instead — a weaker, input-agnostic
/// identity usable when no concrete run input exists (tests, tooling);
/// cache keys for real executions must always bind real fingerprints.
struct SubgraphSignatureInputs {
  std::function<uint64_t(const std::string&)> source_fingerprint;
  std::function<uint64_t(const std::string&)> lookup_fingerprint;
};

/// Signature of `root`'s upstream cone (root included). Requires a fresh
/// workflow (computed schemas are folded).
uint64_t SubgraphResultSignature(const Workflow& workflow, NodeId root,
                                 const SubgraphSignatureInputs& inputs);

/// Signatures for every present node, NodeId-indexed (0 for absent slots).
/// One provider index, one content pass and one fingerprint per distinct
/// input name serve all roots; prefer this over per-root calls when more
/// than a couple of nodes are signed.
std::vector<uint64_t> AllSubgraphResultSignatures(
    const Workflow& workflow, const SubgraphSignatureInputs& inputs);

/// The canonical enumeration behind the signature: `root`'s upstream cone
/// in first-visit (pre-)order of the port-ordered DFS, root first. Two
/// nodes with equal signatures enumerate positionally matching cones —
/// the result cache's cross-workflow bookkeeping transfer relies on this.
std::vector<NodeId> SubtreeNodes(const Workflow& workflow, NodeId root);

/// Port-ordered providers of every node, NodeId-indexed (empty for absent
/// slots). Workflow::Providers() scans every edge per call; callers that
/// enumerate several cones of one workflow build this once instead.
using ProviderIndex = std::vector<std::vector<NodeId>>;
ProviderIndex BuildProviderIndex(const Workflow& workflow);

/// SubtreeNodes over a prebuilt index of the same (fresh) workflow.
std::vector<NodeId> SubtreeNodes(const ProviderIndex& providers, NodeId root);

}  // namespace etlopt

#endif  // ETLOPT_GRAPH_SUBGRAPH_SIGNATURE_H_
