// Synthetic ETL workflow generator.
//
// The paper evaluates on 40 hand-designed scenarios characterized only by
// size: small / medium / large with 15-70 activities (§4.2). This
// generator reproduces that population with seeded randomness:
//
//  * F parallel source flows converge through a balanced tree of binary
//    activities (mostly unions) into a post-processing chain and a
//    warehouse target;
//  * all flows share the same "backbone" of entity-changing stages
//    (currency rename, date normalization, surrogate-key assignment) so
//    sibling flows carry homologous activities (Factorize candidates);
//  * each flow independently draws cleansing filters with random
//    selectivities and positions (Swap opportunities), and the post-union
//    chain carries filters that can be distributed into the flows.

#ifndef ETLOPT_WORKLOAD_GENERATOR_H_
#define ETLOPT_WORKLOAD_GENERATOR_H_

#include <vector>

#include "engine/executor.h"
#include "graph/workflow.h"

namespace etlopt {

/// The paper's three scenario sizes.
enum class WorkloadCategory { kSmall, kMedium, kLarge };

std::string_view WorkloadCategoryToString(WorkloadCategory c);

struct GeneratorOptions {
  WorkloadCategory category = WorkloadCategory::kSmall;
  uint64_t seed = 1;
  /// When true, every source schema carries an extra int64 event-time
  /// column named `kEventTimeAttr`, so generated captures can be sliced
  /// into event-time windows by the streaming subsystem.
  bool with_event_time = false;
  /// Cross-tenant flow overlap. Negative (the default) keeps the legacy
  /// per-seed generation stream bit-for-bit. A value in [0, 1] switches
  /// to overlap mode: round(backbone_overlap * F) of the F flows — and
  /// the backbone variant itself — are drawn from a tenant-independent
  /// fixed-seed stream, so every workflow generated with the same
  /// category and overlap carries those flow subgraphs verbatim
  /// regardless of `seed`. The remaining flows and the post-union chain
  /// still come from the per-seed stream. This is the knob the shared
  /// result cache bench sweeps: overlapping flows hash to equal subgraph
  /// result signatures across tenants and so share cache entries.
  double backbone_overlap = -1.0;
};

/// The event-time attribute name `with_event_time` adds to source
/// schemas (and the default InputGenOptions::event_time_column).
inline constexpr const char* kEventTimeAttr = "ETS";

/// A generated scenario: the finalized workflow plus its nominal activity
/// count (for reporting).
struct GeneratedWorkflow {
  Workflow workflow;
  size_t activity_count = 0;
};

/// Generates one scenario. Equal options yield equal workflows. Source
/// cardinalities are drawn uniformly from [1000, 50000].
StatusOr<GeneratedWorkflow> GenerateWorkflow(const GeneratorOptions& options);

/// Generates `count` scenarios with seeds base_seed, base_seed+1, ...
StatusOr<std::vector<GeneratedWorkflow>> GenerateSuite(
    WorkloadCategory category, size_t count, uint64_t base_seed);

/// Knobs for generated execution inputs. The defaults reproduce the
/// historical shape (small test inputs); benches scale rows_per_source
/// into the hundreds of thousands and widen key_domain so blocking
/// operators see realistically many distinct keys.
struct InputGenOptions {
  size_t rows_per_source = 1000;
  /// Source keys (and surrogate-key lookup coverage) range over
  /// [1, key_domain].
  int64_t key_domain = 50;
  /// Int64 attributes with this name are filled with a per-source
  /// non-decreasing event-time clock (milliseconds) instead of key
  /// draws. Sources without such an attribute are unaffected, so the
  /// default is harmless for historical workflows.
  std::string event_time_column = kEventTimeAttr;
  /// First timestamp of every source's clock. Each row advances the
  /// clock by a step drawn uniformly from [0, 20].
  int64_t event_time_start = 1000000;
};

/// Deterministic source data + surrogate-key lookups for executing a
/// generated workflow (used by the property tests and the engine benches).
ExecutionInput GenerateInputFor(const Workflow& workflow, uint64_t seed,
                                const InputGenOptions& options);

/// Convenience overload with the historical signature.
ExecutionInput GenerateInputFor(const Workflow& workflow, uint64_t seed,
                                size_t rows_per_source);

}  // namespace etlopt

#endif  // ETLOPT_WORKLOAD_GENERATOR_H_
