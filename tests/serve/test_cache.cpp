#include "serve/cache.hpp"
#include "yield/defect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
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

/// The metric `cache` stores beside `key` (nullopt when absent), read
/// by a one-lane batch probe.
std::optional<double> stored_metric(memo_cache& cache,
                                    std::string_view key) {
    const hashed_key lane = hashed_key::of(key);
    std::optional<double> metric;
    memo_cache::batch_order order;
    cache.probe_batch({&lane, 1}, {&metric, 1}, order);
    return metric;
}

TEST(MemoCache, MissThenHit) {
    memo_cache cache{8, 1};
    EXPECT_FALSE(cache.get("k"));
    cache.put("k", "v");
    std::string hit;
    ASSERT_TRUE(cache.get("k", &hit));
    EXPECT_EQ(hit, "v");

    const memo_cache::stats s = cache.snapshot();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.lock_waits, 0u);  // one thread never finds a lock held
}

TEST(MemoCache, EvictsLeastRecentlyUsed) {
    memo_cache cache{2, 1};
    cache.put("a", "1");
    cache.put("b", "2");
    ASSERT_TRUE(cache.get("a"));  // "a" is now most recent
    cache.put("c", "3");          // evicts "b"

    EXPECT_FALSE(cache.get("b"));
    EXPECT_TRUE(cache.get("a"));
    EXPECT_TRUE(cache.get("c"));

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

    EXPECT_FALSE(cache.get("b"));
    std::string a;
    ASSERT_TRUE(cache.get("a", &a));
    EXPECT_EQ(a, "updated");
    EXPECT_EQ(cache.snapshot().evictions, 1u);
}

TEST(MemoCache, HitSurvivesEviction) {
    // A hit is a copy: the bytes are the caller's, so a later eviction —
    // which hands the entry's block to the put that caused it — cannot
    // change them.  The held buffer starts too small for the value, so
    // the copy also takes the grow-outside-the-lock path.
    memo_cache cache{2, 1};
    const std::string payload(100, 'p');
    cache.put("a", payload);
    cache.put("x", std::string(100, 'x'));
    std::string held;
    ASSERT_TRUE(cache.get("a", &held));  // "a" is now most recent
    cache.put("b", std::string(100, 'b'));  // evicts "x"
    cache.put("c", std::string(100, 'c'));  // evicts "a", reusing its block
    EXPECT_FALSE(cache.get("a"));
    EXPECT_EQ(held, payload);
    std::string c;
    ASSERT_TRUE(cache.get("c", &c));
    EXPECT_EQ(c, std::string(100, 'c'));
    EXPECT_EQ(cache.snapshot().evictions, 2u);
}

TEST(MemoCache, ZeroCapacityDisables) {
    memo_cache cache{0};
    cache.put("k", "v");
    EXPECT_FALSE(cache.get("k"));
    EXPECT_FALSE(cache.get_if_present("k"));
    EXPECT_FALSE(stored_metric(cache, "k").has_value());
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
    EXPECT_FALSE(cache.get("a"));
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

/// Value sizes spanning every block size class from 0 bytes to past
/// 64 KiB: each class boundary of the 16-byte steps and of the four
/// steps per doubling, on both sides.
std::vector<std::size_t> class_spanning_sizes() {
    std::vector<std::size_t> sizes = {0, 1, 15, 16, 17, 32, 33, 48, 49, 64};
    for (std::size_t k = 6; k <= 16; ++k) {
        const std::size_t base = std::size_t{1} << k;
        for (std::size_t j = 1; j <= 4; ++j) {
            const std::size_t edge = base + j * (base >> 2);
            sizes.push_back(edge);
            sizes.push_back(edge + 1);
        }
    }
    return sizes;  // up to 2^17 + 1 bytes
}

/// Equal as stored metrics: the same bits, or both NaN.
bool same_metric(double a, double b) {
    return std::isnan(a) ? std::isnan(b) : a == b;
}

TEST(MemoCacheHashedKey, LruEvictionOrderMatchesAModel) {
    // A per-shard LRU list, a value/metric map and the counters kept
    // beside the cache.  A seeded mix of puts (values of every size
    // class, refreshes to a different size), gets, get_if_present,
    // one-lane batch probes, contains, shed_shards and clear (each
    // followed by a refill) must agree with the model after every
    // operation: each shard's snapshot (LRU to MRU) equals the model's
    // list, every hit returns the model's bytes and metric, and hits,
    // misses, evictions and per-shard sizes match.
    constexpr std::size_t shards = 3;
    constexpr std::size_t per_shard = 5;
    const std::vector<std::string> keys = fixed_keys(40);
    const std::vector<std::size_t> sizes = class_spanning_sizes();
    memo_cache cache{shards * per_shard, shards};
    std::vector<std::list<std::string>> model(shards);  // front = MRU
    std::map<std::string, std::pair<std::string, double>> stored;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::mt19937 rng{7};
    const auto shard_of = [&](const std::string& key) {
        return std::hash<std::string_view>{}(key) % shards;
    };
    const auto drop_shard = [&](std::size_t s) {
        for (const std::string& key : model[s]) {
            stored.erase(key);
        }
        model[s].clear();
    };
    std::string got;
    for (int op = 0; op < 4000; ++op) {
        const std::string& key = keys[rng() % keys.size()];
        std::list<std::string>& lru = model[shard_of(key)];
        const auto it = std::find(lru.begin(), lru.end(), key);
        const bool present = it != lru.end();
        const unsigned roll = rng() % 100;
        if (roll < 45) {
            // Mostly small values, a quarter from the whole class span.
            const std::size_t size = rng() % 4 == 0
                                         ? sizes[rng() % sizes.size()]
                                         : sizes[rng() % 24];
            std::string value(size, static_cast<char>('a' + op % 26));
            const std::string tag = std::to_string(op);
            std::copy_n(tag.begin(), std::min(size, tag.size()),
                        value.begin());
            const double metric =
                rng() % 3 == 0 ? memo_cache::no_metric : op * 0.25 - 7.0;
            if (rng() % 2 == 0) {
                cache.put(hashed_key::of(key), value, metric);
            } else {
                cache.put(key, value, metric);
            }
            if (present) {
                lru.erase(it);
            } else if (lru.size() == per_shard) {
                stored.erase(lru.back());
                lru.pop_back();
                ++evictions;
            }
            lru.push_front(key);
            stored[key] = {value, metric};
        } else if (roll < 65) {
            const bool hit = cache.get(hashed_key::of(key), &got);
            ASSERT_EQ(hit, present) << "op " << op;
            if (hit) {
                ++hits;
                EXPECT_EQ(got, stored[key].first) << "op " << op;
                lru.splice(lru.begin(), lru, it);
            } else {
                ++misses;
            }
        } else if (roll < 75) {
            const bool hit = cache.get_if_present(key);
            ASSERT_EQ(hit, present) << "op " << op;
            if (hit) {
                ++hits;
                lru.splice(lru.begin(), lru, it);
            }
        } else if (roll < 90) {
            const std::optional<double> metric = stored_metric(cache, key);
            ASSERT_EQ(metric.has_value(), present) << "op " << op;
            if (present) {
                ++hits;
                EXPECT_TRUE(same_metric(*metric, stored[key].second))
                    << "op " << op;
                lru.splice(lru.begin(), lru, it);
            }
        } else if (roll < 97) {
            ASSERT_EQ(cache.contains(key), present) << "op " << op;
        } else if (roll < 99) {
            const std::size_t count = rng() % (shards + 2);
            std::size_t dropped = 0;
            for (std::size_t s = 0; s < std::min(count, shards); ++s) {
                dropped += model[s].size();
                drop_shard(s);
            }
            evictions += dropped;
            ASSERT_EQ(cache.shed_shards(count), dropped) << "op " << op;
        } else {
            cache.clear();
            for (std::size_t s = 0; s < shards; ++s) {
                drop_shard(s);
            }
        }

        const memo_cache::stats st = cache.snapshot();
        ASSERT_EQ(st.hits, hits) << "op " << op;
        ASSERT_EQ(st.misses, misses) << "op " << op;
        ASSERT_EQ(st.evictions, evictions) << "op " << op;
        for (std::size_t s = 0; s < shards; ++s) {
            ASSERT_EQ(st.shard_entries[s], model[s].size()) << "op " << op;
            std::vector<std::string> order;
            for (const auto& [k, v] : cache.shard_snapshot(s)) {
                order.push_back(k);
                ASSERT_EQ(v, stored[k].first) << "op " << op << " " << k;
            }
            const std::vector<std::string> want(model[s].rbegin(),
                                                model[s].rend());
            ASSERT_EQ(order, want) << "op " << op << " shard " << s;
        }
    }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
    EXPECT_GT(evictions, 0u);
}

TEST(MemoCacheHashedKey, RefreshToEverySizeKeepsBytesAndMetric) {
    // One key refreshed through every size class and back down: each
    // value and metric reads back exactly, and the refresh never counts
    // an eviction or adds an entry.
    memo_cache cache{4, 1};
    cache.put("neighbour", "n", 1.0);
    const std::vector<std::size_t> sizes = class_spanning_sizes();
    std::vector<std::size_t> order = sizes;
    order.insert(order.end(), sizes.rbegin(), sizes.rend());
    std::string got;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::string value(order[i], static_cast<char>('a' + i % 26));
        cache.put("k", value, static_cast<double>(i));
        ASSERT_TRUE(cache.get("k", &got)) << order[i];
        ASSERT_EQ(got, value) << order[i];
        ASSERT_EQ(stored_metric(cache, "k"), static_cast<double>(i));
    }
    ASSERT_TRUE(cache.get("neighbour", &got));
    EXPECT_EQ(got, "n");
    EXPECT_EQ(cache.snapshot().entries, 2u);
    EXPECT_EQ(cache.snapshot().evictions, 0u);
}

/// Every shard's entries (LRU to MRU) and the counters, equal between
/// two caches fed the same operations.
void expect_same_state(const memo_cache& a, const memo_cache& b,
                       int step) {
    const memo_cache::stats sa = a.snapshot();
    const memo_cache::stats sb = b.snapshot();
    ASSERT_EQ(sa.hits, sb.hits) << "step " << step;
    ASSERT_EQ(sa.misses, sb.misses) << "step " << step;
    ASSERT_EQ(sa.evictions, sb.evictions) << "step " << step;
    ASSERT_EQ(sa.lock_waits, sb.lock_waits) << "step " << step;
    ASSERT_EQ(sa.shard_entries, sb.shard_entries) << "step " << step;
    for (std::size_t s = 0; s < a.shard_count(); ++s) {
        ASSERT_EQ(a.shard_snapshot(s), b.shard_snapshot(s))
            << "step " << step << " shard " << s;
    }
}

TEST(MemoCacheBatch, MatchesOneKeyAtATime) {
    // Seeded batches of probes and puts go to one cache of 4 shards of 8
    // entries; the same lanes go to another one key at a time, in lane
    // order (get_if_present per probed lane, put per written one).
    // After every step both caches hold the same entries in the same
    // LRU order with the same counters, and every probed metric is the
    // one last put.  Batches run to 40 lanes, so they evict entries they
    // put themselves; they repeat keys, carry empty-text (rejected)
    // lanes, NaN metrics, and values that outgrow their key's block.
    constexpr std::size_t shards = 4;
    constexpr std::size_t per_shard = 8;
    const std::vector<std::string> keys = fixed_keys(72);
    const std::vector<std::size_t> sizes = class_spanning_sizes();
    for (const std::uint64_t seed : {1u, 2u, 3u, 29u}) {
        SCOPED_TRACE(seed);
        silicon::yield::splitmix64 rng{seed};
        const auto below = [&](std::size_t n) {
            return static_cast<std::size_t>(rng.next() % n);
        };
        memo_cache batched{shards * per_shard, shards};
        memo_cache single{shards * per_shard, shards};
        std::map<std::string, double> last_metric;
        std::map<std::string, std::size_t> last_size;
        memo_cache::batch_order order;
        std::uint64_t hits = 0;
        std::uint64_t grown = 0;  // puts of a larger value for a stored key
        for (int step = 0; step < 400; ++step) {
            // The batch's lanes: a key each (empty = rejected), often a
            // key an earlier lane of the batch has.
            std::vector<hashed_key> lanes(below(41));
            for (std::size_t i = 0; i < lanes.size(); ++i) {
                const std::size_t roll = below(8);
                if (roll == 0) {
                    lanes[i] = {};
                } else if (roll == 1 && i > 0) {
                    lanes[i] = lanes[below(i)];
                } else {
                    lanes[i] = hashed_key::of(keys[below(keys.size())]);
                }
            }
            if (below(2) == 0) {
                std::vector<std::optional<double>> out(lanes.size(), 0.0);
                batched.probe_batch(lanes, out, order);
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    const bool present =
                        !lanes[i].text.empty() && single.get_if_present(lanes[i]);
                    ASSERT_EQ(out[i].has_value(), present)
                        << "step " << step << " lane " << i;
                    if (present) {
                        ++hits;
                        const std::string key{lanes[i].text};
                        ASSERT_TRUE(same_metric(*out[i], last_metric[key]))
                            << "step " << step << " lane " << i;
                    }
                }
            } else {
                std::vector<std::string> values(lanes.size());
                std::vector<memo_cache::batch_entry> entries;
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    // Mostly small values, a quarter from the whole class
                    // span, so a refresh often outgrows its block.
                    const std::size_t size = below(4) == 0
                                                 ? sizes[below(sizes.size())]
                                                 : sizes[below(24)];
                    values[i].assign(size, static_cast<char>('a' + i % 26));
                    const double metric =
                        below(3) == 0 ? memo_cache::no_metric
                                      : step * 0.5 + static_cast<double>(i);
                    entries.push_back({lanes[i], values[i], metric});
                }
                batched.put_batch(entries, order);
                for (const memo_cache::batch_entry& e : entries) {
                    if (e.key.text.empty()) {
                        continue;
                    }
                    single.put(e.key, e.value, e.metric);
                    const std::string key{e.key.text};
                    const auto was = last_size.find(key);
                    if (was != last_size.end() && was->second < e.value.size()) {
                        ++grown;
                    }
                    last_size[key] = e.value.size();
                    last_metric[key] = e.metric;
                }
            }
            expect_same_state(batched, single, step);
        }
        EXPECT_GT(hits, 0u);
        EXPECT_GT(batched.snapshot().evictions, 0u);
        EXPECT_GT(grown, 0u);
    }
}

TEST(MemoCacheConcurrency, FourThreadsGetPutMetricShedSnapshot) {
    // Four threads share one small cache: puts (two versions of each
    // key's value, of different sizes, so refreshes move blocks),
    // copy-out gets, lane probes, batch probes and batch puts of up to
    // eight lanes, whole-shard sheds and snapshots.  Every byte read
    // must be one of the key's two versions in full, every metric one
    // of its two metrics, and the counters must add up.  Run under TSan
    // (the CI tsan leg repeats it).
    constexpr int threads = 4;
    constexpr int ops = 6000;
    const std::vector<std::string> keys = fixed_keys(96);
    const auto version = [&](std::size_t k, int v) {
        const std::size_t size =
            (k * 37 + static_cast<std::size_t>(v) * 900) % 2500;
        std::string value(size, static_cast<char>('a' + (k + v) % 26));
        return keys[k] + "#" + std::to_string(v) + value;
    };
    const auto metric_of = [](std::size_t k, int v) {
        return v == 0 ? memo_cache::no_metric
                      : static_cast<double>(k) + 0.5;
    };
    memo_cache cache{40, 4};
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> get_hits{0};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::mt19937 rng{static_cast<unsigned>(100 + t)};
            std::string got;
            memo_cache::batch_order order;
            std::vector<hashed_key> probe_keys;
            std::vector<std::size_t> probe_ids;
            std::vector<std::optional<double>> probed;
            std::vector<std::tuple<std::size_t, int, std::string>> put_values;
            std::vector<memo_cache::batch_entry> puts;
            for (int op = 0; op < ops; ++op) {
                const std::size_t k = rng() % keys.size();
                const hashed_key key = hashed_key::of(keys[k]);
                const unsigned roll = rng() % 100;
                if (roll < 40) {
                    const int v = static_cast<int>(rng() % 2);
                    cache.put(key, version(k, v), metric_of(k, v));
                } else if (roll < 65) {
                    gets.fetch_add(1, std::memory_order_relaxed);
                    if (cache.get(key, &got)) {
                        get_hits.fetch_add(1, std::memory_order_relaxed);
                        if (got != version(k, 0) && got != version(k, 1)) {
                            bad.fetch_add(1, std::memory_order_relaxed);
                        }
                    }
                } else if (roll < 75) {
                    (void)cache.get_if_present(key);
                } else if (roll < 85) {
                    // A batch probe of up to eight lanes, this key first.
                    probe_keys.assign(1, key);
                    probe_ids.assign(1, k);
                    for (unsigned extra = rng() % 8; extra > 0; --extra) {
                        probe_ids.push_back(rng() % keys.size());
                        probe_keys.push_back(hashed_key::of(keys[probe_ids.back()]));
                    }
                    probed.resize(probe_keys.size());
                    cache.probe_batch(probe_keys, probed, order);
                    for (std::size_t i = 0; i < probed.size(); ++i) {
                        if (probed[i] &&
                            !same_metric(*probed[i], metric_of(probe_ids[i], 0)) &&
                            !same_metric(*probed[i], metric_of(probe_ids[i], 1))) {
                            bad.fetch_add(1, std::memory_order_relaxed);
                        }
                    }
                } else if (roll < 93) {
                    // A batch put of up to eight lanes, which may evict
                    // entries it put itself.
                    put_values.clear();
                    for (unsigned lane = 1 + rng() % 8; lane > 0; --lane) {
                        const std::size_t id = rng() % keys.size();
                        const int v = static_cast<int>(rng() % 2);
                        put_values.push_back({id, v, version(id, v)});
                    }
                    puts.clear();
                    for (const auto& [id, v, value] : put_values) {
                        puts.push_back({hashed_key::of(keys[id]), value,
                                        metric_of(id, v)});
                    }
                    cache.put_batch(puts, order);
                } else if (roll < 95) {
                    (void)cache.shed_shards(1 + rng() % 2);
                } else if (roll < 98) {
                    const memo_cache::stats s = cache.snapshot();
                    if (s.entries > 40) {
                        bad.fetch_add(1, std::memory_order_relaxed);
                    }
                } else {
                    for (const auto& [k2, v2] :
                         cache.shard_snapshot(rng() % 4)) {
                        const std::size_t id = static_cast<std::size_t>(
                            std::find(keys.begin(), keys.end(), k2) -
                            keys.begin());
                        if (id == keys.size() ||
                            (v2 != version(id, 0) && v2 != version(id, 1))) {
                            bad.fetch_add(1, std::memory_order_relaxed);
                        }
                    }
                }
            }
        });
    }
    for (std::thread& th : pool) {
        th.join();
    }
    EXPECT_EQ(bad.load(), 0u);
    const memo_cache::stats s = cache.snapshot();
    EXPECT_LE(s.entries, 40u);
    EXPECT_GE(s.hits, get_hits.load());
    EXPECT_EQ(s.misses, gets.load() - get_hits.load());
    EXPECT_GT(s.evictions, 0u);
    EXPECT_GT(get_hits.load(), 0u);
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
                std::string a;
                std::string b;
                const bool hit = plain.get(key, &a);
                ASSERT_EQ(hit, hashed.get(hk, &b)) << op;
                if (hit) {
                    EXPECT_EQ(a, b);
                }
                break;
            }
            case 2:
                ASSERT_EQ(plain.get_if_present(key),
                          hashed.get_if_present(hk))
                    << op;
                break;
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
