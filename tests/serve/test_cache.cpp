#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace {

using silicon::serve::memo_cache;
using hashed_key = silicon::serve::memo_cache::hashed_key;

/// A fixed key sequence: some short keys, some as long as a chiplet
/// point key, all distinct.
std::vector<std::string> fixed_keys(std::size_t count) {
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < count; ++i) {
        std::string key = "{\"op\":\"lane\",\"x\":" + std::to_string(i);
        if (i % 3 == 0) {
            key.append(600, 'p');
        }
        keys.push_back(key + "}");
    }
    return keys;
}

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

TEST(MemoCacheHashedKey, CarriesStdHashOfTheText) {
    for (const std::string& key : fixed_keys(20)) {
        EXPECT_EQ(hashed_key::of(key).hash,
                  std::hash<std::string_view>{}(key));
        EXPECT_EQ(hashed_key::of(key).text, key);
    }
}

TEST(MemoCacheHashedKey, ShardPlacementIsStdHashModShards) {
    constexpr std::size_t shards = 7;
    const std::vector<std::string> keys = fixed_keys(300);
    memo_cache cache{keys.size() * shards, shards};
    std::vector<std::size_t> expected(shards, 0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        // Alternate the two overloads: placement must not depend on it.
        if (i % 2 == 0) {
            cache.put(keys[i], "v");
        } else {
            cache.put(hashed_key::of(keys[i]), "v");
        }
        ++expected[std::hash<std::string_view>{}(keys[i]) % shards];
    }
    EXPECT_EQ(cache.snapshot().shard_entries, expected);
    for (std::size_t s = 0; s < shards; ++s) {
        for (const auto& [key, value] : cache.shard_snapshot(s)) {
            EXPECT_EQ(std::hash<std::string_view>{}(key) % shards, s) << key;
        }
    }
}

TEST(MemoCacheHashedKey, LruEvictionOrderMatchesAModel) {
    // A per-shard LRU list kept beside the cache: after every operation
    // of a seeded mix of puts and gets, each shard's snapshot (LRU to
    // MRU) must equal the model's list.
    constexpr std::size_t shards = 3;
    constexpr std::size_t per_shard = 5;
    const std::vector<std::string> keys = fixed_keys(40);
    memo_cache cache{shards * per_shard, shards};
    std::vector<std::list<std::string>> model(shards);  // front = MRU
    std::mt19937 rng{7};
    for (int op = 0; op < 2000; ++op) {
        const std::string& key = keys[rng() % keys.size()];
        std::list<std::string>& lru =
            model[std::hash<std::string_view>{}(key) % shards];
        const auto it = std::find(lru.begin(), lru.end(), key);
        if (rng() % 2 == 0) {
            cache.put(hashed_key::of(key), "v");
            if (it != lru.end()) {
                lru.erase(it);
            } else if (lru.size() == per_shard) {
                lru.pop_back();
            }
            lru.push_front(key);
        } else {
            const bool hit = cache.get(hashed_key::of(key)) != nullptr;
            ASSERT_EQ(hit, it != lru.end()) << "op " << op;
            if (hit) {
                lru.splice(lru.begin(), lru, it);
            }
        }
        for (std::size_t s = 0; s < shards; ++s) {
            std::vector<std::string> got;
            for (const auto& entry : cache.shard_snapshot(s)) {
                got.push_back(entry.first);
            }
            const std::vector<std::string> want(model[s].rbegin(),
                                                model[s].rend());
            ASSERT_EQ(got, want) << "op " << op << " shard " << s;
        }
    }
}

TEST(MemoCacheHashedKey, OverloadsAgreeOnHitsAndMisses) {
    // Two caches fed the same operations, one through the plain-key
    // overloads and one through the hashed-key ones, answer alike and
    // count alike.
    const std::vector<std::string> keys = fixed_keys(64);
    memo_cache plain{24, 4};
    memo_cache hashed{24, 4};
    std::mt19937 rng{11};
    for (int op = 0; op < 3000; ++op) {
        const std::string& key = keys[rng() % keys.size()];
        const hashed_key hk = hashed_key::of(key);
        switch (rng() % 4) {
            case 0:
                plain.put(key, key + "=v");
                hashed.put(hk, key + "=v");
                break;
            case 1: {
                const auto a = plain.get(key);
                const auto b = hashed.get(hk);
                ASSERT_EQ(a == nullptr, b == nullptr) << op;
                if (a != nullptr) {
                    EXPECT_EQ(*a, *b);
                }
                break;
            }
            case 2: {
                const auto a = plain.get_if_present(key);
                const auto b = hashed.get_if_present(hk);
                ASSERT_EQ(a == nullptr, b == nullptr) << op;
                break;
            }
            default:
                ASSERT_EQ(plain.contains(key), hashed.contains(hk)) << op;
                break;
        }
    }
    const memo_cache::stats a = plain.snapshot();
    const memo_cache::stats b = hashed.snapshot();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.shard_entries, b.shard_entries);
    EXPECT_GT(a.hits, 0u);
    EXPECT_GT(a.misses, 0u);
    EXPECT_GT(a.evictions, 0u);
}

}  // namespace
