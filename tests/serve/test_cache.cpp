#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace {

using silicon::serve::memo_cache;

TEST(MemoCache, MissThenHit) {
    memo_cache cache{8, 1};
    EXPECT_EQ(cache.get("k"), nullptr);
    cache.put("k", "v");
    const auto hit = cache.get("k");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, "v");

    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(MemoCache, EvictsLeastRecentlyUsed) {
    memo_cache cache{2, 1};
    cache.put("a", "1");
    cache.put("b", "2");
    ASSERT_NE(cache.get("a"), nullptr);  // "a" is now most recent
    cache.put("c", "3");                 // evicts "b"

    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);

    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
}

TEST(MemoCache, ContainsCountsNothingAndKeepsLruOrder) {
    memo_cache cache{2, 1};
    EXPECT_FALSE(cache.contains("a"));
    cache.put("a", "1");
    cache.put("b", "2");
    EXPECT_TRUE(cache.contains("a"));  // no promotion: "a" stays LRU
    cache.put("c", "3");               // so it is the one evicted
    EXPECT_FALSE(cache.contains("a"));
    EXPECT_TRUE(cache.contains("b"));

    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_FALSE(memo_cache{0}.contains("a"));
}

TEST(MemoCache, PutRefreshesExistingKey) {
    memo_cache cache{2, 1};
    cache.put("a", "1");
    cache.put("b", "2");
    cache.put("a", "updated");  // refresh, not insert: no eviction
    cache.put("c", "3");        // evicts "b" (LRU after the refresh)

    EXPECT_EQ(cache.get("b"), nullptr);
    const auto a = cache.get("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, "updated");
    EXPECT_EQ(cache.snapshot().evictions, 1u);
}

TEST(MemoCache, HitSurvivesEviction) {
    memo_cache cache{1, 1};
    cache.put("a", "payload");
    const std::shared_ptr<const std::string> held = cache.get("a");
    cache.put("b", "evicts a");
    EXPECT_EQ(cache.get("a"), nullptr);
    EXPECT_EQ(*held, "payload");  // shared_ptr keeps the value alive
}

TEST(MemoCache, ZeroCapacityDisables) {
    memo_cache cache{0};
    cache.put("k", "v");
    EXPECT_EQ(cache.get("k"), nullptr);
    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.capacity, 0u);
}

TEST(MemoCache, ClearDropsEntriesKeepsCounters) {
    memo_cache cache{8, 2};
    cache.put("a", "1");
    cache.put("b", "2");
    (void)cache.get("a");
    cache.clear();
    EXPECT_EQ(cache.get("a"), nullptr);
    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(MemoCache, ShardsClampedToCapacity) {
    memo_cache cache{2, 16};
    EXPECT_EQ(cache.snapshot().shards, 2u);
    // With many shards the entry budget still holds overall.
    memo_cache wide{64, 16};
    EXPECT_EQ(wide.snapshot().shards, 16u);
    EXPECT_EQ(wide.snapshot().capacity, 64u);
}

TEST(MemoCache, ManyInsertsRespectBudget) {
    constexpr std::size_t capacity = 32;
    memo_cache cache{capacity, 4};
    for (int i = 0; i < 1000; ++i) {
        cache.put("key" + std::to_string(i), std::to_string(i));
    }
    const memo_cache::stats s = cache.snapshot();
    // Per-shard rounding may allow up to shards-1 extra entries.
    EXPECT_LE(s.entries, capacity + s.shards - 1);
    EXPECT_GE(s.evictions, 1000u - (capacity + s.shards - 1));
}

}  // namespace
