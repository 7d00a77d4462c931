#include "service/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cost/cost_model.h"
#include "io/text_format.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

PlanCacheKey Key(uint64_t workflow_hash, uint64_t context_hash = 1) {
  PlanCacheKey key;
  key.workflow_hash = workflow_hash;
  key.context_hash = context_hash;
  return key;
}

std::shared_ptr<const CachedPlan> Entry(size_t bytes, double cost = 0.0) {
  auto entry = std::make_shared<CachedPlan>();
  entry->result.best.cost = cost;
  entry->bytes = bytes;
  return entry;
}

TEST(PlanCacheKeyTest, ContextHashSeparatesRequests) {
  // Different algorithms, options, models, and merge lists must all key
  // differently; field boundaries must matter.
  EXPECT_NE(HashRequestContext("hs", "m", "o", ""),
            HashRequestContext("hsg", "m", "o", ""));
  EXPECT_NE(HashRequestContext("hs", "m", "o", ""),
            HashRequestContext("hs", "m2", "o", ""));
  EXPECT_NE(HashRequestContext("hs", "m", "o", ""),
            HashRequestContext("hs", "m", "o2", ""));
  EXPECT_NE(HashRequestContext("hs", "m", "o", "a+b"),
            HashRequestContext("hs", "m", "o", ""));
  EXPECT_NE(HashRequestContext("ab", "c", "", ""),
            HashRequestContext("a", "bc", "", ""));
  EXPECT_EQ(HashRequestContext("hs", "m", "o", "a+b"),
            HashRequestContext("hs", "m", "o", "a+b"));
}

TEST(PlanCacheTest, LookupMissesThenHits) {
  PlanCache cache;
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  cache.Insert(Key(1), Entry(100, 42.0));
  auto hit = cache.Lookup(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.best.cost, 42.0);
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedPastByteBudget) {
  PlanCacheOptions options;
  options.shards = 1;  // deterministic single LRU
  options.byte_budget = 300;
  PlanCache cache(options);
  cache.Insert(Key(1), Entry(100, 1));
  cache.Insert(Key(2), Entry(100, 2));
  cache.Insert(Key(3), Entry(100, 3));
  EXPECT_EQ(cache.Stats().entries, 3u);
  // Touch key 1 so key 2 is now the LRU victim.
  ASSERT_NE(cache.Lookup(Key(1)), nullptr);
  cache.Insert(Key(4), Entry(100, 4));
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 300u);
  EXPECT_EQ(cache.Lookup(Key(2)), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(Key(1)), nullptr);
  EXPECT_NE(cache.Lookup(Key(3)), nullptr);
  EXPECT_NE(cache.Lookup(Key(4)), nullptr);
}

TEST(PlanCacheTest, RefusesOversizedEntries) {
  PlanCacheOptions options;
  options.shards = 1;
  options.byte_budget = 100;
  PlanCache cache(options);
  cache.Insert(Key(1), Entry(101));
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.oversized, 1u);
}

TEST(PlanCacheTest, ReinsertReplacesAndRecharges) {
  PlanCacheOptions options;
  options.shards = 1;
  options.byte_budget = 1000;
  PlanCache cache(options);
  cache.Insert(Key(1), Entry(100, 1));
  cache.Insert(Key(1), Entry(250, 2));
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 250u);
  EXPECT_EQ(cache.Lookup(Key(1))->result.best.cost, 2.0);
}

TEST(PlanCacheTest, GetOrComputeCoalescesConcurrentMisses) {
  PlanCache cache;
  std::atomic<int> computes{0};
  std::atomic<int> hits{0};
  std::atomic<int> coalesced{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedPlan>> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      bool hit = false;
      bool shared = false;
      auto result = cache.GetOrCompute(
          Key(7),
          [&]() -> StatusOr<std::shared_ptr<const CachedPlan>> {
            computes.fetch_add(1);
            // Widen the race window so waiters really do pile up.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return Entry(64, 9.0);
          },
          &hit, &shared);
      ASSERT_TRUE(result.ok());
      results[i] = result.value();
      if (hit) hits.fetch_add(1);
      if (shared) coalesced.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  // The single-flight guarantee: one compute, everyone shares its answer.
  EXPECT_EQ(computes.load(), 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i], results[0]);  // same shared_ptr, not a copy
  }
  // Every non-leader either coalesced onto the flight or arrived after
  // insertion and hit.
  EXPECT_EQ(hits.load() + coalesced.load(), kThreads - 1);
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(coalesced.load()));
}

TEST(PlanCacheTest, FailedComputeIsNotCachedAndPropagates) {
  PlanCache cache;
  auto failed = cache.GetOrCompute(
      Key(9), []() -> StatusOr<std::shared_ptr<const CachedPlan>> {
        return Status::Internal("search exploded");
      });
  EXPECT_TRUE(failed.status().IsInternal());
  EXPECT_EQ(cache.Stats().entries, 0u);
  // The next request retries and can succeed.
  auto ok = cache.GetOrCompute(
      Key(9), []() -> StatusOr<std::shared_ptr<const CachedPlan>> {
        return Entry(10);
      });
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(PlanCacheTest, ClearDropsEntriesButKeepsCounters) {
  PlanCache cache;
  cache.Insert(Key(1), Entry(10));
  cache.Insert(Key(2), Entry(10));
  cache.Clear();
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.insertions, 2u);
}

TEST(PlanCacheTest, SnapshotReturnsAllEntries) {
  PlanCache cache;
  for (uint64_t i = 0; i < 16; ++i) cache.Insert(Key(i), Entry(8));
  EXPECT_EQ(cache.Snapshot().size(), 16u);
}

TEST(PlanCacheTest, EqualShapeDifferentContentGetsDistinctKeys) {
  // Regression: generator seeds 11 and 12 produce workflows with the
  // SAME structural SignatureHash but different cardinalities — and
  // therefore different optimal plans. A shape-only cache key served
  // seed 11's plan to seed 12's request; the key must separate them.
  GeneratorOptions gen;
  gen.seed = 11;
  auto a = GenerateWorkflow(gen);
  gen.seed = 12;
  auto b = GenerateWorkflow(gen);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->workflow.SignatureHash(), b->workflow.SignatureHash())
      << "seeds no longer collide structurally; pick a colliding pair";
  EXPECT_NE(HashWorkflowForCache(a->workflow),
            HashWorkflowForCache(b->workflow));

  LinearLogCostModel model;
  auto key_a = MakePlanCacheKey(a->workflow, SearchAlgorithm::kHeuristic,
                                model, SearchOptions{}, {});
  auto key_b = MakePlanCacheKey(b->workflow, SearchAlgorithm::kHeuristic,
                                model, SearchOptions{}, {});
  ASSERT_TRUE(key_a.ok() && key_b.ok());
  EXPECT_FALSE(*key_a == *key_b);
}

TEST(PlanCacheTest, CacheKeyIsStableAcrossTextRoundTrip) {
  // A request that arrives as canonical text (the wire path) must land
  // on the same cache slot as the identical in-memory workflow.
  GeneratorOptions gen;
  gen.seed = 11;
  auto generated = GenerateWorkflow(gen);
  ASSERT_TRUE(generated.ok());
  TextFormatOptions text_options;
  text_options.emit_plabels = true;
  auto text = PrintWorkflowText(generated->workflow, text_options);
  ASSERT_TRUE(text.ok());
  auto reparsed = ParseWorkflowText(*text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(HashWorkflowForCache(generated->workflow),
            HashWorkflowForCache(*reparsed));
}

}  // namespace
}  // namespace etlopt
