// Subgraph result signatures: the content identity behind the shared
// result cache. The load-bearing properties: equality across workflows
// that compute the same bytes (different node ids, names, labels,
// cardinality estimates), separation whenever output bytes can differ
// (predicates, schemas, bound data), and positional correspondence of
// the canonical SubtreeNodes enumeration between equal-signature cones.
// The cost contract (each fingerprint callback runs once per distinct
// name) and signature values pinned across the signer's rewrites keep
// result-cache and plan-cache keys from drifting unnoticed.

#include "graph/subgraph_signature.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "activity/templates.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "graph/workflow.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

Schema TwoCol() {
  return Schema::MakeOrDie(
      {{"A", DataType::kDouble}, {"B", DataType::kDouble}});
}

struct Flow {
  Workflow w;
  NodeId src, a, b, tgt;
};

// src -> NotNull(A) -> Selection(A > threshold) -> tgt. The knobs let
// tests vary everything that must NOT matter (names, labels, estimated
// cardinality) and everything that MUST (threshold).
Flow MakeFlow(double threshold = 0.0, const std::string& src_name = "S",
              const std::string& label_prefix = "", size_t cardinality = 100) {
  Flow f;
  f.src = f.w.AddRecordSet({src_name, TwoCol(), cardinality});
  f.a = *f.w.AddActivity(*MakeNotNull(label_prefix + "a", "A", 0.9), {f.src});
  f.b = *f.w.AddActivity(
      *MakeSelection(label_prefix + "b",
                     Compare(CompareOp::kGt, Column("A"),
                             Literal(Value::Double(threshold))),
                     0.5),
      {f.a});
  f.tgt = f.w.AddRecordSet({src_name + "_T", TwoCol(), 0});
  ETLOPT_CHECK_OK(f.w.Connect(f.b, f.tgt));
  ETLOPT_CHECK_OK(f.w.Finalize());
  return f;
}

SubgraphSignatureInputs ConstFingerprints(uint64_t source, uint64_t lookup) {
  SubgraphSignatureInputs in;
  in.source_fingerprint = [source](const std::string&) { return source; };
  in.lookup_fingerprint = [lookup](const std::string&) { return lookup; };
  return in;
}

TEST(SubgraphSignatureTest, EqualAcrossWorkflowsAndStableDifferencesWithin) {
  Flow f = MakeFlow();
  Flow g = MakeFlow();
  SubgraphSignatureInputs none;
  EXPECT_EQ(SubgraphResultSignature(f.w, f.b, none),
            SubgraphResultSignature(g.w, g.b, none));
  EXPECT_EQ(SubgraphResultSignature(f.w, f.src, none),
            SubgraphResultSignature(g.w, g.src, none));
  // Different cones within one workflow differ.
  EXPECT_NE(SubgraphResultSignature(f.w, f.a, none),
            SubgraphResultSignature(f.w, f.b, none));
  EXPECT_NE(SubgraphResultSignature(f.w, f.src, none),
            SubgraphResultSignature(f.w, f.a, none));
}

TEST(SubgraphSignatureTest, ContentNeutralDetailsAreExcluded) {
  // Labels and estimated cardinalities cannot change output bytes; with
  // fingerprints bound, neither can the source's NAME (only its data).
  Flow f = MakeFlow(0.0, "S", "", 100);
  Flow g = MakeFlow(0.0, "OtherSource", "x_", 99999);
  auto in = ConstFingerprints(42, 7);
  EXPECT_EQ(SubgraphResultSignature(f.w, f.b, in),
            SubgraphResultSignature(g.w, g.b, in));
}

TEST(SubgraphSignatureTest, PredicateSeparates) {
  Flow f = MakeFlow(0.0);
  Flow g = MakeFlow(1.0);
  SubgraphSignatureInputs none;
  EXPECT_NE(SubgraphResultSignature(f.w, f.b, none),
            SubgraphResultSignature(g.w, g.b, none));
  // The predicate sits at b; the cones at src and a are untouched.
  EXPECT_EQ(SubgraphResultSignature(f.w, f.a, none),
            SubgraphResultSignature(g.w, g.a, none));
}

TEST(SubgraphSignatureTest, BoundSourceDataSeparates) {
  Flow f = MakeFlow();
  EXPECT_NE(SubgraphResultSignature(f.w, f.b, ConstFingerprints(1, 7)),
            SubgraphResultSignature(f.w, f.b, ConstFingerprints(2, 7)));
  // Without bound fingerprints the source NAME is the (weaker) identity.
  SubgraphSignatureInputs none;
  Flow g = MakeFlow(0.0, "Other");
  EXPECT_NE(SubgraphResultSignature(f.w, f.src, none),
            SubgraphResultSignature(g.w, g.src, none));
}

TEST(SubgraphSignatureTest, SharedUpstreamDiffersFromDuplicated) {
  // One source consumed twice (a DAG diamond) versus two identical
  // sources consumed once each. Output bytes match, but the canonical
  // enumerations don't align positionally — the positional rows_out
  // transfer demands these cones never share a cache entry, so the
  // signature folds explicit back-references.
  Workflow shared;
  NodeId s = shared.AddRecordSet({"S", TwoCol(), 100});
  NodeId n1 = *shared.AddActivity(*MakeNotNull("n1", "A", 0.9), {s});
  NodeId n2 = *shared.AddActivity(*MakeNotNull("n2", "B", 0.9), {s});
  NodeId u = *shared.AddActivity(*MakeUnion("u"), {n1, n2});
  NodeId t = shared.AddRecordSet({"T", TwoCol(), 0});
  ETLOPT_CHECK_OK(shared.Connect(u, t));
  ETLOPT_CHECK_OK(shared.Finalize());

  Workflow dup;
  NodeId s1 = dup.AddRecordSet({"S", TwoCol(), 100});
  NodeId s2 = dup.AddRecordSet({"S", TwoCol(), 100});
  NodeId m1 = *dup.AddActivity(*MakeNotNull("n1", "A", 0.9), {s1});
  NodeId m2 = *dup.AddActivity(*MakeNotNull("n2", "B", 0.9), {s2});
  NodeId v = *dup.AddActivity(*MakeUnion("u"), {m1, m2});
  NodeId t2 = dup.AddRecordSet({"T", TwoCol(), 0});
  ETLOPT_CHECK_OK(dup.Connect(v, t2));
  ETLOPT_CHECK_OK(dup.Finalize());

  auto in = ConstFingerprints(42, 7);
  EXPECT_NE(SubgraphResultSignature(shared, u, in),
            SubgraphResultSignature(dup, v, in));
  EXPECT_EQ(SubtreeNodes(shared, u).size(), 4u);  // u, n1, s, n2 — s once
  EXPECT_EQ(SubtreeNodes(dup, v).size(), 5u);
}

TEST(SubgraphSignatureTest, SubtreeNodesIsPositionallyCanonical) {
  // Same logical flow, built in a different order so the node ids differ:
  // the enumerations must line up position by position (root first).
  Flow f = MakeFlow();

  Workflow w;  // build target and activities before the source
  NodeId tgt = w.AddRecordSet({"S_T", TwoCol(), 0});
  NodeId src = w.AddRecordSet({"S", TwoCol(), 100});
  NodeId a = *w.AddActivity(*MakeNotNull("a", "A", 0.9), {src});
  NodeId b = *w.AddActivity(
      *MakeSelection("b",
                     Compare(CompareOp::kGt, Column("A"),
                             Literal(Value::Double(0.0))),
                     0.5),
      {a});
  ETLOPT_CHECK_OK(w.Connect(b, tgt));
  ETLOPT_CHECK_OK(w.Finalize());

  SubgraphSignatureInputs none;
  ASSERT_EQ(SubgraphResultSignature(f.w, f.b, none),
            SubgraphResultSignature(w, b, none));
  std::vector<NodeId> cf = SubtreeNodes(f.w, f.b);
  std::vector<NodeId> cw = SubtreeNodes(w, b);
  ASSERT_EQ(cf.size(), cw.size());
  ASSERT_EQ(cf.size(), 3u);
  EXPECT_EQ(cf[0], f.b);
  EXPECT_EQ(cw[0], b);
  for (size_t i = 0; i < cf.size(); ++i) {
    EXPECT_EQ(f.w.IsRecordSet(cf[i]), w.IsRecordSet(cw[i]));
  }
}

TEST(SubgraphSignatureTest, AllSignaturesMatchPerRootCalls) {
  Flow f = MakeFlow();
  auto in = ConstFingerprints(42, 7);
  std::vector<uint64_t> all = AllSubgraphResultSignatures(f.w, in);
  for (NodeId id : f.w.NodeIds()) {
    EXPECT_EQ(all[id], SubgraphResultSignature(f.w, id, in)) << "node " << id;
  }
}

// Two sources keyed through one shared lookup table L, unioned, then
// keyed again through M: a lookup name reached from several members.
Workflow MakeSurrogateKeyFlow() {
  Schema kv = Schema::MakeOrDie({{"K", DataType::kInt64},
                                 {"V", DataType::kDouble}});
  Workflow w;
  NodeId s1 = w.AddRecordSet({"S1", kv, 100});
  NodeId s2 = w.AddRecordSet({"S2", kv, 100});
  NodeId k1 =
      *w.AddActivity(*MakeSurrogateKey("sk1", {"K"}, "SK", "L", {"K"}), {s1});
  NodeId k2 =
      *w.AddActivity(*MakeSurrogateKey("sk2", {"K"}, "SK", "L", {"K"}), {s2});
  NodeId u = *w.AddActivity(*MakeUnion("u"), {k1, k2});
  NodeId k3 = *w.AddActivity(*MakeSurrogateKey("sk3", {"SK"}, "G", "M"), {u});
  NodeId t = w.AddRecordSet({"T",
                             Schema::MakeOrDie({{"V", DataType::kDouble},
                                                {"SK", DataType::kInt64},
                                                {"G", DataType::kInt64}}),
                             0});
  ETLOPT_CHECK_OK(w.Connect(k3, t));
  ETLOPT_CHECK_OK(w.Finalize());
  return w;
}

// Deterministic name-dependent fingerprints, so pinned values do not
// depend on any row data.
SubgraphSignatureInputs NamedFingerprints() {
  SubgraphSignatureInputs in;
  in.source_fingerprint = [](const std::string& n) {
    return Fnv1a64("source:" + n);
  };
  in.lookup_fingerprint = [](const std::string& n) {
    return Fnv1a64("lookup:" + n);
  };
  return in;
}

Workflow Generated(WorkloadCategory category, uint64_t seed,
                   double overlap = -1.0) {
  GeneratorOptions options;
  options.category = category;
  options.seed = seed;
  options.backbone_overlap = overlap;
  auto g = GenerateWorkflow(options);
  ETLOPT_CHECK_OK(g.status());
  return std::move(g->workflow);
}

// The names a signature pass must fingerprint: every source recordset
// and every surrogate-key member's lookup table.
void ExpectedNames(const Workflow& w, std::set<std::string>& sources,
                   std::set<std::string>& lookups) {
  for (NodeId id : w.NodeIds()) {
    if (w.IsRecordSet(id)) {
      if (w.Providers(id).empty()) sources.insert(w.recordset(id).name);
      continue;
    }
    for (const ActivityChain::Member& m : w.chain(id).members()) {
      if (m.activity.kind() == ActivityKind::kSurrogateKey) {
        lookups.insert(m.activity.params_as<SurrogateKeyParams>().lookup_name);
      }
    }
  }
}

TEST(SubgraphSignatureTest, FingerprintsEachInputNameOncePerCall) {
  Workflow medium = Generated(WorkloadCategory::kMedium, 1, 0.5);
  Workflow keyed = MakeSurrogateKeyFlow();
  for (const Workflow* w : {&medium, &keyed}) {
    std::map<std::string, int> source_calls, lookup_calls;
    SubgraphSignatureInputs in;
    in.source_fingerprint = [&](const std::string& n) {
      ++source_calls[n];
      return Fnv1a64(n);
    };
    in.lookup_fingerprint = [&](const std::string& n) {
      ++lookup_calls[n];
      return Fnv1a64(n);
    };
    (void)AllSubgraphResultSignatures(*w, in);

    std::set<std::string> sources, lookups;
    ExpectedNames(*w, sources, lookups);
    ASSERT_FALSE(sources.empty());
    ASSERT_EQ(source_calls.size(), sources.size());
    for (const auto& [name, calls] : source_calls) {
      EXPECT_EQ(sources.count(name), 1u) << name;
      EXPECT_EQ(calls, 1) << "source " << name;
    }
    ASSERT_EQ(lookup_calls.size(), lookups.size());
    for (const auto& [name, calls] : lookup_calls) {
      EXPECT_EQ(lookups.count(name), 1u) << name;
      EXPECT_EQ(calls, 1) << "lookup " << name;
    }
  }
}

// Independent reference for the canonical enumeration: pre-order DFS
// over Workflow::Providers (port order), each node on its first visit.
void ReferenceCone(const Workflow& w, NodeId id, std::set<NodeId>& seen,
                   std::vector<NodeId>& order) {
  if (!seen.insert(id).second) return;
  order.push_back(id);
  for (NodeId p : w.Providers(id)) ReferenceCone(w, p, seen, order);
}

TEST(SubgraphSignatureTest, GeneratedWorkflowsAgreeAcrossEntryPoints) {
  const SubgraphSignatureInputs in = NamedFingerprints();
  for (WorkloadCategory category :
       {WorkloadCategory::kSmall, WorkloadCategory::kMedium,
        WorkloadCategory::kLarge}) {
    for (uint64_t seed : {1, 2}) {
      Workflow w = Generated(category, seed);
      std::vector<uint64_t> all = AllSubgraphResultSignatures(w, in);
      ProviderIndex providers = BuildProviderIndex(w);
      for (NodeId id : w.NodeIds()) {
        EXPECT_EQ(all[id], SubgraphResultSignature(w, id, in))
            << "seed " << seed << " node " << id;
        std::set<NodeId> seen;
        std::vector<NodeId> reference;
        ReferenceCone(w, id, seen, reference);
        EXPECT_EQ(SubtreeNodes(w, id), reference) << "node " << id;
        EXPECT_EQ(SubtreeNodes(providers, id), reference) << "node " << id;
      }
    }
  }
}

uint64_t Digest(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<unsigned char>(v >> (8 * i))) * 1099511628211ull;
  }
  return h;
}

// Values recorded before the signer precomputed per-node content and
// memoized fingerprints. A change here re-keys every shared result cache
// and cache-aware plan: bump kSubgraphSigSalt deliberately, then re-pin.
TEST(SubgraphSignatureTest, PinnedValuesDoNotDrift) {
  struct Pin {
    WorkloadCategory category;
    uint64_t seed;
    uint64_t bound, named, cones;
  };
  const Pin pins[] = {
      {WorkloadCategory::kSmall, 1, 0xda763fa875fa6dd6ull,
       0x59206b98fb628976ull, 0x303c366feda5cadfull},
      {WorkloadCategory::kSmall, 2, 0xab02ad76f0e87b69ull,
       0x11d51c0d6f46e91aull, 0xfbddb6e4eaf8a48full},
      {WorkloadCategory::kMedium, 1, 0x6a8a84ccfa3f8192ull,
       0x15575e564f7318faull, 0x6525ba101e9fcefbull},
      {WorkloadCategory::kMedium, 2, 0x9454acd324b8e513ull,
       0x231afada00d39094ull, 0x67281c45c51e8fb2ull},
      {WorkloadCategory::kLarge, 1, 0x4492997684f7f5a4ull,
       0xcfdc817b0bcca4b7ull, 0x842ed4adb868307dull},
      {WorkloadCategory::kLarge, 2, 0xab870bc7369847c9ull,
       0xe1cfc143fc313df7ull, 0xfa78370b3c895699ull},
  };
  for (const Pin& pin : pins) {
    Workflow w = Generated(pin.category, pin.seed);
    std::vector<uint64_t> bound =
        AllSubgraphResultSignatures(w, NamedFingerprints());
    std::vector<uint64_t> named =
        AllSubgraphResultSignatures(w, SubgraphSignatureInputs{});
    uint64_t db = kFnv1aBasis, dn = kFnv1aBasis, dc = kFnv1aBasis;
    for (NodeId id : w.NodeIds()) {
      db = Digest(db, bound[id]);
      dn = Digest(dn, named[id]);
      for (NodeId n : SubtreeNodes(w, id)) dc = Digest(dc, n);
      dc = Digest(dc, 0xffffffffull);
    }
    EXPECT_EQ(db, pin.bound) << "seed " << pin.seed;
    EXPECT_EQ(dn, pin.named) << "seed " << pin.seed;
    EXPECT_EQ(dc, pin.cones) << "seed " << pin.seed;
  }

  // Surrogate-key members fold their lookup fingerprints.
  Workflow keyed = MakeSurrogateKeyFlow();
  std::vector<uint64_t> bound =
      AllSubgraphResultSignatures(keyed, NamedFingerprints());
  std::vector<uint64_t> named =
      AllSubgraphResultSignatures(keyed, SubgraphSignatureInputs{});
  const std::vector<uint64_t> pinned_bound = {
      0x21fe39407813ac58ull, 0xbae7b8778cea41cdull, 0x0d6862c8fef6a316ull,
      0xd011ab37ba6148e7ull, 0xb02273624d49ef80ull, 0xe26e5b1e909faaa4ull,
      0x57a806ecf27a668bull};
  const std::vector<uint64_t> pinned_named = {
      0x2022f37e9a0fd9a0ull, 0x1d0f9660788ea697ull, 0x9f2a15cbe2b37061ull,
      0x5d4ce01dad6ae5d2ull, 0x0ed150b7ec01163cull, 0x4663cc0b19bb9d97ull,
      0xf8d0f20b166cd284ull};
  std::vector<NodeId> ids = keyed.NodeIds();
  ASSERT_EQ(ids.size(), pinned_bound.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(bound[ids[i]], pinned_bound[i]) << "node " << ids[i];
    EXPECT_EQ(named[ids[i]], pinned_named[i]) << "node " << ids[i];
  }
}

}  // namespace
}  // namespace etlopt
