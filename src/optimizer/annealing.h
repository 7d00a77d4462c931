// EXTENSION beyond the ICDE'05 paper: randomized search (simulated
// annealing) over the same transition space.
//
// The paper's future-work section invites alternative search strategies;
// annealing is the canonical one for plan spaces with local minima. Each
// step picks a random applicable transition (SWA / FAC / DIS), accepts
// improvements always, and accepts regressions with probability
// exp(-delta / T) under a geometric cooling schedule. The best state ever
// visited is returned, so the result is never worse than the initial
// state.

#ifndef ETLOPT_OPTIMIZER_ANNEALING_H_
#define ETLOPT_OPTIMIZER_ANNEALING_H_

#include "optimizer/search.h"

namespace etlopt {

struct AnnealingOptions {
  /// PRNG seed; equal seeds give equal runs.
  uint64_t seed = 1;
  /// Proposals evaluated at each temperature.
  size_t steps_per_temperature = 40;
};

/// Simulated-annealing optimization. Shares SearchOptions budgets
/// (max_states counts evaluated proposals) with the other algorithms.
/// The temperature starts at 5% of the initial state's cost, cools by a
/// factor 0.92 per plateau, and the search stops below 1e-5 of it.
StatusOr<SearchResult> SimulatedAnnealingSearch(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options = {},
    const AnnealingOptions& annealing = {});

}  // namespace etlopt

#endif  // ETLOPT_OPTIMIZER_ANNEALING_H_
