// Pinned search results: every algorithm must reproduce, bit for bit, the
// result it returned when the copy-per-candidate baseline, the serial
// fast path and the 2- and 8-thread frontiers all still existed and all
// agreed. The recorded figures are the best state's signature hash, the
// exact bits of its cost, the visited-state count, the exhausted flag and
// (for ES) the rewrite path; a change to the search that alters any of
// them changes the optimizer's answers.
//
// The state budget is the binding constraint in every run (the time
// budget stays generous): a wall-clock cutoff would make the results
// timing-dependent.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/macros.h"
#include "optimizer/annealing.h"
#include "optimizer/search.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

struct Pinned {
  uint64_t signature_hash;
  uint64_t cost_bits;
  size_t visited_states;
  bool exhausted;
};

struct PinnedCase {
  WorkloadCategory category;
  uint64_t seed;
  Pinned hs;
  Pinned hsg;
  Pinned es;
  std::vector<std::string> es_path;
  Pinned sa;
  Pinned post_sa_hs;
};

std::string CaseLabel(const PinnedCase& c) {
  return std::string(WorkloadCategoryToString(c.category)) + "_seed" +
         std::to_string(c.seed);
}

// Names each instance by its scenario in test listings.
void PrintTo(const PinnedCase& c, std::ostream* os) { *os << CaseLabel(c); }

uint64_t CostBits(double cost) {
  uint64_t bits;
  std::memcpy(&bits, &cost, sizeof bits);
  return bits;
}

Workflow Generate(WorkloadCategory category, uint64_t seed) {
  GeneratorOptions options;
  options.category = category;
  options.seed = seed;
  auto g = GenerateWorkflow(options);
  ETLOPT_CHECK_OK(g.status());
  return std::move(g->workflow);
}

SearchOptions Capped(size_t max_states) {
  SearchOptions o;
  o.max_states = max_states;
  o.max_millis = 60000;
  return o;
}

void ExpectPinned(const StatusOr<SearchResult>& r, const Pinned& pin) {
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->best.signature_hash, pin.signature_hash);
  EXPECT_EQ(CostBits(r->best.cost), pin.cost_bits);
  EXPECT_EQ(r->visited_states, pin.visited_states);
  EXPECT_EQ(r->exhausted, pin.exhausted);
}

class SearchPinnedTest : public ::testing::TestWithParam<PinnedCase> {
 protected:
  Workflow Generate() const {
    return etlopt::Generate(GetParam().category, GetParam().seed);
  }

  LinearLogCostModel model_;
};

TEST_P(SearchPinnedTest, HeuristicSearchMatchesPinned) {
  ExpectPinned(HeuristicSearch(Generate(), model_, Capped(1500)),
               GetParam().hs);
}

TEST_P(SearchPinnedTest, GreedyMatchesPinned) {
  ExpectPinned(HeuristicSearchGreedy(Generate(), model_, Capped(1500)),
               GetParam().hsg);
}

TEST_P(SearchPinnedTest, ExhaustiveMatchesPinned) {
  auto r = ExhaustiveSearch(Generate(), model_, Capped(600));
  ExpectPinned(r, GetParam().es);
  ASSERT_TRUE(r.ok());
  // The rewrite path is part of the result contract too.
  std::vector<std::string> path;
  for (const auto& rec : r->best_path) path.push_back(rec.description);
  EXPECT_EQ(path, GetParam().es_path);
}

TEST_P(SearchPinnedTest, AnnealingMatchesPinned) {
  AnnealingOptions annealing;
  annealing.seed = 23;
  auto r = SimulatedAnnealingSearch(Generate(), model_, Capped(400), annealing);
  ExpectPinned(r, GetParam().sa);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->perf.delta_recosts, 0u);
}

TEST_P(SearchPinnedTest, PostAnnealingMatchesPinned) {
  // Start from an annealing optimum instead of the generator's initial
  // state: annealed workflows carry merged/split and redistributed
  // structure the generator never emits.
  AnnealingOptions annealing;
  annealing.seed = 11;
  auto sa = SimulatedAnnealingSearch(Generate(), model_, Capped(400), annealing);
  ASSERT_TRUE(sa.ok()) << sa.status().ToString();
  ExpectPinned(HeuristicSearch(sa->best.workflow, model_, Capped(1500)),
               GetParam().post_sa_hs);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SearchPinnedTest,
    ::testing::Values(
        PinnedCase{WorkloadCategory::kSmall,
                   3,
                   {0x4f39f21af1744c69ull, 0x410d90444903991cull, 761, true},
                   {0x4f39f21af1744c69ull, 0x410d90444903991cull, 148, true},
                   {0xf89ca5cdd15e7cfaull, 0x4110acdfa772409full, 600, false},
                   {"SWA(2,3)", "SWA(5,6)", "SWA(12,13)", "SWA(11,13)"},
                   {0xdf0539073c436d17ull, 0x410ef0dbcf250e84ull, 400, false},
                   {0xd38a92c1595a5763ull, 0x410dcc9651f82d8eull, 614, true}},
        PinnedCase{WorkloadCategory::kMedium,
                   5,
                   {0x08c9df1e25a7aa3full, 0x410ff4c279d36e0bull, 1505, false},
                   {0x35ee1c538fccd5b8ull, 0x4110e0cbf23b4c1eull, 1099, true},
                   {0xa5d8e051a81cbff4ull, 0x4118957c63023f2bull, 600, false},
                   {"SWA(5,6)", "SWA(4,6)"},
                   {0xb0025ef199470080ull, 0x411280ce05537acdull, 400, false},
                   {0xfda07fb209fb020aull, 0x410fc6371a046287ull, 1500, false}},
        PinnedCase{WorkloadCategory::kLarge,
                   7,
                   {0x01c75ca43fb12ca1ull, 0x411d85a6368cbe1dull, 1500, false},
                   {0x8cf608de89c405e6ull, 0x411ec6cad806be43ull, 1500, false},
                   {0xbab83f3f50c08ceaull, 0x413da0c1f98081b7ull, 600, false},
                   {"SWA(3,4)", "SWA(14,15)"},
                   {0xd28a3443b221ceb5ull, 0x41284faad4071821ull, 400, false},
                   {0x148f85de12121fa2ull, 0x413316c5b90e624bull, 1500, false}}),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      return CaseLabel(info.param);
    });

// Workflow copies are what the in-place neighbor evaluation saves; each
// algorithm must copy no more often than it did when the counts below
// were recorded (large scenario, seed 7, the budgets above). Paranoid
// builds leave their check twins out of the count, so the gate holds in
// every build.
TEST(SearchCopiesTest, CopiesStayAtOrBelowRecordedCounts) {
  LinearLogCostModel model;
  Workflow w = Generate(WorkloadCategory::kLarge, 7);
  auto hs = HeuristicSearch(w, model, Capped(1500));
  ASSERT_TRUE(hs.ok()) << hs.status().ToString();
  EXPECT_LE(hs->perf.workflow_copies, 223u);
  auto hsg = HeuristicSearchGreedy(w, model, Capped(1500));
  ASSERT_TRUE(hsg.ok()) << hsg.status().ToString();
  EXPECT_LE(hsg->perf.workflow_copies, 350u);
  auto es = ExhaustiveSearch(w, model, Capped(600));
  ASSERT_TRUE(es.ok()) << es.status().ToString();
  EXPECT_LE(es->perf.workflow_copies, 601u);
  AnnealingOptions annealing;
  annealing.seed = 23;
  auto sa = SimulatedAnnealingSearch(w, model, Capped(400), annealing);
  ASSERT_TRUE(sa.ok()) << sa.status().ToString();
  EXPECT_LE(sa->perf.workflow_copies, 386u);
}

}  // namespace
}  // namespace etlopt
