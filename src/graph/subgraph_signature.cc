#include "graph/subgraph_signature.h"

#include <algorithm>
#include <map>
#include <utility>

#include "activity/activity.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// Domain-separation salt: bump when the fold layout changes, so stale
// persisted/cross-version signatures can never alias fresh ones.
constexpr uint64_t kSubgraphSigSalt = 0x5347534947763101ull;  // "SGSIGv1" ~

inline uint64_t FoldU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<unsigned char>(v >> (8 * i))) * 1099511628211ull;
  }
  return h;
}

inline uint64_t FoldByte(uint64_t h, unsigned char b) {
  return (h ^ b) * 1099511628211ull;
}

// Byte images of the folds: Fnv1a64 over the appended bytes continues a
// hash exactly as FoldU64 / a length-prefixed string / a schema fold
// would, so per-node content is spelled out once and folded per visit.
void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void AppendString(std::string& out, std::string_view s) {
  AppendU64(out, s.size());
  out.append(s);
}

void AppendSchema(std::string& out, const Schema& schema) {
  AppendU64(out, schema.size());
  for (const Attribute& a : schema.attributes()) {
    AppendString(out, a.name);
    out.push_back(static_cast<char>(a.type));
  }
}

// Per-node content, NodeId-indexed: every byte a visit folds for the
// node after its providers, spelled out once per signature call. Each
// distinct source/lookup name reaches its fingerprint callback once.
std::vector<std::string> NodeContents(const Workflow& w,
                                      const ProviderIndex& providers,
                                      const SubgraphSignatureInputs& inputs) {
  std::map<std::string, uint64_t> sources, lookups;
  auto fingerprint = [](const auto& fn, std::map<std::string, uint64_t>& memo,
                        const std::string& name) {
    auto [it, inserted] = memo.try_emplace(name, 0);
    if (inserted) it->second = fn ? fn(name) : Fnv1a64(name);
    return it->second;
  };
  std::vector<std::string> out(providers.size());
  for (NodeId id : w.NodeIds()) {
    std::string& bytes = out[id];
    if (w.IsRecordSet(id)) {
      const RecordSetDef& def = w.recordset(id);
      if (providers[id].empty()) {
        bytes.push_back('S');
        AppendSchema(bytes, def.schema);
        AppendU64(bytes, fingerprint(inputs.source_fingerprint, sources,
                                     def.name));
      } else {
        bytes.push_back('G');  // staging: realigns to the declared schema
        AppendSchema(bytes, def.schema);
      }
      continue;
    }
    bytes.push_back('A');
    const ActivityChain& chain = w.chain(id);
    AppendU64(bytes, chain.size());
    for (const ActivityChain::Member& m : chain.members()) {
      AppendString(bytes, m.activity.SemanticsString());
      if (m.activity.kind() == ActivityKind::kSurrogateKey) {
        const auto& p = m.activity.params_as<SurrogateKeyParams>();
        AppendU64(bytes, fingerprint(inputs.lookup_fingerprint, lookups,
                                     p.lookup_name));
      }
    }
    AppendSchema(bytes, w.OutputSchema(id));
  }
  return out;
}

// One root's DFS: threads the running hash through a canonical pre-order
// walk, folding structure (first-visit indices, back-references, port
// order) and, when `content` is set, per-node content. `order` collects
// the first-visit enumeration; Reset() readies the walker for the next
// root in time proportional to the last cone.
struct ConeWalker {
  const ProviderIndex& providers;
  const std::vector<std::string>* content;  // NodeContents, or null
  std::vector<int> index;  // NodeId -> first-visit index, -1 = unvisited
  std::vector<NodeId> order;

  ConeWalker(const ProviderIndex& p, const std::vector<std::string>* c)
      : providers(p), content(c), index(p.size(), -1) {}

  uint64_t Visit(uint64_t h, NodeId id) {
    if (index[id] >= 0) {  // shared upstream node: explicit back-reference
      h = FoldByte(h, 'R');
      return FoldU64(h, static_cast<uint64_t>(index[id]));
    }
    index[id] = static_cast<int>(order.size());
    order.push_back(id);
    h = FoldByte(h, 'N');
    const std::vector<NodeId>& provs = providers[id];
    h = FoldU64(h, provs.size());
    for (NodeId p : provs) h = Visit(h, p);
    if (content != nullptr) h = Fnv1a64((*content)[id], h);
    return h;
  }

  void Reset() {
    for (NodeId n : order) index[n] = -1;
    order.clear();
  }
};

}  // namespace

ProviderIndex BuildProviderIndex(const Workflow& workflow) {
  size_t slots = 1;
  for (NodeId id : workflow.NodeIds()) {
    slots = std::max(slots, static_cast<size_t>(id) + 1);
  }
  std::vector<std::vector<std::pair<int, NodeId>>> by_port(slots);
  for (const WorkflowEdge& e : workflow.edges()) {
    by_port[e.to].push_back({e.port, e.from});
  }
  ProviderIndex out(slots);
  for (size_t i = 0; i < slots; ++i) {
    std::sort(by_port[i].begin(), by_port[i].end());
    out[i].reserve(by_port[i].size());
    for (const auto& [port, from] : by_port[i]) out[i].push_back(from);
  }
  return out;
}

uint64_t SubgraphResultSignature(const Workflow& workflow, NodeId root,
                                 const SubgraphSignatureInputs& inputs) {
  ETLOPT_CHECK(workflow.fresh());
  ETLOPT_CHECK(workflow.Exists(root));
  ProviderIndex providers = BuildProviderIndex(workflow);
  std::vector<std::string> content =
      NodeContents(workflow, providers, inputs);
  ConeWalker walker(providers, &content);
  return walker.Visit(kSubgraphSigSalt, root);
}

std::vector<uint64_t> AllSubgraphResultSignatures(
    const Workflow& workflow, const SubgraphSignatureInputs& inputs) {
  ETLOPT_CHECK(workflow.fresh());
  ProviderIndex providers = BuildProviderIndex(workflow);
  std::vector<std::string> content =
      NodeContents(workflow, providers, inputs);
  ConeWalker walker(providers, &content);
  std::vector<uint64_t> out(providers.size(), 0);
  for (NodeId id : workflow.NodeIds()) {
    out[id] = walker.Visit(kSubgraphSigSalt, id);
    walker.Reset();
  }
  return out;
}

std::vector<NodeId> SubtreeNodes(const Workflow& workflow, NodeId root) {
  ETLOPT_CHECK(workflow.fresh());
  ETLOPT_CHECK(workflow.Exists(root));
  return SubtreeNodes(BuildProviderIndex(workflow), root);
}

std::vector<NodeId> SubtreeNodes(const ProviderIndex& providers,
                                 NodeId root) {
  ConeWalker walker(providers, nullptr);
  (void)walker.Visit(kSubgraphSigSalt, root);
  return std::move(walker.order);
}

}  // namespace etlopt
