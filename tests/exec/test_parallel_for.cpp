// Tests for the sharding helpers, parallel_for and parallel_reduce.

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "yield/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace silicon::exec {
namespace {

TEST(ShardSeed, DistinctForAdjacentInputs) {
    std::set<std::uint64_t> seeds;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        for (std::uint64_t shard = 0; shard < 64; ++shard) {
            seeds.insert(shard_seed(seed, shard));
        }
    }
    EXPECT_EQ(seeds.size(), 8u * 64u);
    // And it is a pure function.
    EXPECT_EQ(shard_seed(42, 3), shard_seed(42, 3));
}

TEST(ShardCount, CapsAtSixtyFourAndNeverExceedsItems) {
    EXPECT_EQ(shard_count_for(0), 0u);
    EXPECT_EQ(shard_count_for(1), 1u);
    EXPECT_EQ(shard_count_for(5), 5u);
    EXPECT_EQ(shard_count_for(64), 64u);
    EXPECT_EQ(shard_count_for(65), 64u);
    EXPECT_EQ(shard_count_for(1000000), 64u);
}

TEST(ShardOf, CoversRangeDisjointlyInOrder) {
    for (std::size_t items : {1u, 7u, 64u, 65u, 1000u}) {
        const std::size_t shards = shard_count_for(items);
        std::size_t expected_begin = 0;
        for (std::size_t s = 0; s < shards; ++s) {
            const shard_range r = shard_of(items, shards, s);
            EXPECT_EQ(r.begin, expected_begin);
            EXPECT_EQ(r.index, s);
            EXPECT_EQ(r.count, shards);
            EXPECT_GE(r.size(), items / shards);
            EXPECT_LE(r.size(), items / shards + 1);
            expected_begin = r.end;
        }
        EXPECT_EQ(expected_begin, items);
    }
}

TEST(ShardOf, MoreShardsThanItemsLeavesEmptyTail) {
    // 3 items over 5 shards: the first three shards hold one item each.
    std::size_t covered = 0;
    for (std::size_t s = 0; s < 5; ++s) {
        const shard_range r = shard_of(3, 5, s);
        covered += r.size();
        EXPECT_EQ(r.size(), s < 3 ? 1u : 0u);
    }
    EXPECT_EQ(covered, 3u);
}

TEST(ShardOf, RejectsBadArguments) {
    EXPECT_THROW((void)shard_of(10, 0, 0), std::invalid_argument);
    EXPECT_THROW((void)shard_of(10, 4, 4), std::invalid_argument);
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
    std::atomic<int> calls{0};
    parallel_for(0, 4, [&](const shard_range&) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleElementIsOneShard) {
    std::atomic<int> calls{0};
    parallel_for(1, 4, [&](const shard_range& r) {
        ++calls;
        EXPECT_EQ(r.begin, 0u);
        EXPECT_EQ(r.end, 1u);
        EXPECT_EQ(r.count, 1u);
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, ShardDecompositionIsIndependentOfParallelism) {
    // The set of shard ranges a body observes must be the same at every
    // thread count — that is the determinism contract.
    const auto observe = [](unsigned parallelism) {
        std::mutex mutex;
        std::vector<shard_range> ranges;
        parallel_for(1000, parallelism, [&](const shard_range& r) {
            const std::lock_guard<std::mutex> lock(mutex);
            ranges.push_back(r);
        });
        std::sort(ranges.begin(), ranges.end(),
                  [](const shard_range& a, const shard_range& b) {
                      return a.index < b.index;
                  });
        return ranges;
    };
    const std::vector<shard_range> serial = observe(1);
    for (unsigned parallelism : {2u, 7u, 0u}) {
        const std::vector<shard_range> parallel = observe(parallelism);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t s = 0; s < serial.size(); ++s) {
            EXPECT_EQ(parallel[s].begin, serial[s].begin);
            EXPECT_EQ(parallel[s].end, serial[s].end);
            EXPECT_EQ(parallel[s].index, serial[s].index);
            EXPECT_EQ(parallel[s].count, serial[s].count);
        }
    }
}

TEST(ParallelFor, EveryItemVisitedExactlyOnce) {
    for (unsigned parallelism : {1u, 2u, 7u, 0u}) {
        std::vector<int> hits(517, 0);
        parallel_for(hits.size(), parallelism, [&](const shard_range& r) {
            for (std::size_t i = r.begin; i < r.end; ++i) {
                ++hits[i];  // disjoint across shards
            }
        });
        EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
                  static_cast<long>(hits.size()))
            << "parallelism=" << parallelism;
    }
}

TEST(ParallelFor, ExceptionPropagatesFromSerialAndParallelPaths) {
    for (unsigned parallelism : {1u, 4u}) {
        EXPECT_THROW(parallel_for(100, parallelism,
                                  [](const shard_range& r) {
                                      if (r.index == 2) {
                                          throw std::runtime_error("shard 2");
                                      }
                                  }),
                     std::runtime_error)
            << "parallelism=" << parallelism;
    }
}

TEST(ParallelFor, NestedCallsFanOutAndVisitEveryItemOnce) {
    // A parallel_for inside a pool task fans out on the shared pool (no
    // serial fallback any more): every inner item is still visited
    // exactly once per outer item.
    std::vector<std::atomic<int>> hits(8 * 1000);
    parallel_for(8, 4, [&](const shard_range& outer) {
        for (std::size_t o = outer.begin; o < outer.end; ++o) {
            parallel_for(1000, 4, [&](const shard_range& inner) {
                for (std::size_t i = inner.begin; i < inner.end; ++i) {
                    hits[o * 1000 + i].fetch_add(1,
                                                 std::memory_order_relaxed);
                }
            });
        }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "item " << i;
    }
}

TEST(ParallelReduce, NestedInsidePoolTasksMatchesSerialFold) {
    // Floating-point sums are not associative, so only the fixed shard
    // decomposition and index-order fold make a reduce that runs inside
    // pool tasks (and fans out from there) bit-identical to a serial one.
    const auto reduce = [](std::size_t n, unsigned parallelism,
                           double scale) {
        return parallel_reduce(
            n, parallelism, 0.0,
            [scale](const shard_range& r) {
                double s = 0.0;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    s += scale / (1.0 + static_cast<double>(i) * 0.37);
                }
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    constexpr std::size_t outer = 12;
    std::vector<double> serial(outer);
    for (std::size_t o = 0; o < outer; ++o) {
        serial[o] = reduce(5000 + 97 * o, 1, 1.0 + static_cast<double>(o));
    }
    for (const unsigned parallelism : {2u, 4u, 0u}) {
        std::vector<double> nested(outer);
        parallel_for(outer, parallelism, [&](const shard_range& r) {
            for (std::size_t o = r.begin; o < r.end; ++o) {
                nested[o] = reduce(5000 + 97 * o, parallelism,
                                   1.0 + static_cast<double>(o));
            }
        });
        for (std::size_t o = 0; o < outer; ++o) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(nested[o]),
                      std::bit_cast<std::uint64_t>(serial[o]))
                << "parallelism " << parallelism << " outer " << o;
        }
    }
}

TEST(ParallelReduce, SumsMatchSerialFoldAtEveryParallelism) {
    const std::size_t n = 12345;
    const auto run = [&](unsigned parallelism) {
        return parallel_reduce(
            n, parallelism, std::size_t{0},
            [](const shard_range& r) {
                std::size_t s = 0;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    s += i;
                }
                return s;
            },
            [](std::size_t a, std::size_t b) { return a + b; });
    };
    const std::size_t expected = n * (n - 1) / 2;
    for (unsigned parallelism : {1u, 2u, 7u, 0u}) {
        EXPECT_EQ(run(parallelism), expected)
            << "parallelism=" << parallelism;
    }
}

TEST(ParallelReduce, FoldsInShardIndexOrder) {
    // Concatenation is non-commutative, so the folded string proves the
    // merge order is by shard index, not completion order.
    const auto run = [](unsigned parallelism) {
        return parallel_reduce(
            8, parallelism, std::string{},
            [](const shard_range& r) {
                return std::string(1, static_cast<char>('a' + r.index));
            },
            [](std::string a, std::string b) { return a + b; });
    };
    EXPECT_EQ(run(1), "abcdefgh");
    EXPECT_EQ(run(3), "abcdefgh");
    EXPECT_EQ(run(0), "abcdefgh");
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
    const int result = parallel_reduce(
        0, 4, 42, [](const shard_range&) { return 0; },
        [](int a, int b) { return a + b; });
    EXPECT_EQ(result, 42);
}

std::uint64_t pool_runs() {
    return obs::metrics_registry::global()
        .get_counter("silicon_exec_pool_runs_total")
        .value();
}

TEST(ParallelFor, BelowTheGrainRunsOnTheCaller) {
    // 64 shards of cheap items: the same shards, in index order, on the
    // calling thread, and the pool is never woken.
    const std::uint64_t runs_before = pool_runs();
    std::vector<std::size_t> order;
    std::set<std::thread::id> ids;
    parallel_for(
        640, 0,
        [&](const shard_range& r) {
            order.push_back(r.index);
            ids.insert(std::this_thread::get_id());
        },
        nullptr, fanout_threshold_ns / 1000.0);
    std::vector<std::size_t> expected(64);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
    EXPECT_EQ(ids, (std::set<std::thread::id>{std::this_thread::get_id()}));
    EXPECT_EQ(pool_runs(), runs_before);
}

TEST(ParallelFor, AboveTheGrainWakesThePool) {
    if (thread_pool::hardware_threads() < 2) {
        GTEST_SKIP() << "single hardware thread: nothing to wake";
    }
    const std::uint64_t runs_before = pool_runs();
    std::atomic<std::size_t> visited{0};
    parallel_for(
        640, 0, [&](const shard_range& r) { visited += r.size(); }, nullptr,
        fanout_threshold_ns / 100.0);
    EXPECT_EQ(visited.load(), 640u);
    EXPECT_EQ(pool_runs(), runs_before + 1);
}

TEST(ParallelReduce, BitIdenticalAtEveryWidthOnBothSidesOfTheGrain) {
    // A floating-point fold over per-shard RNG streams: any change in
    // decomposition, seeding or merge order changes the bits.
    const auto run = [](std::size_t items, unsigned width, double cost) {
        return parallel_reduce(
            items, width, 0.0,
            [](const shard_range& r) {
                std::uint64_t z = shard_seed(0x5eed, r.index);
                double s = 0.0;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    z = shard_seed(z, i);
                    s += static_cast<double>(z >> 11) * 0x1p-53 / (1.0 + i);
                }
                return s;
            },
            [](double a, double b) { return a + b; }, cost);
    };
    for (const std::size_t items : {std::size_t{50}, std::size_t{5000}}) {
        const double reference = run(items, 1, unknown_item_cost);
        for (const double cost : {1.0, unknown_item_cost}) {
            ASSERT_EQ(worth_fanning_out(items, cost), cost != 1.0);
            for (const unsigned width : {1u, 2u, 3u, 4u, 0u}) {
                EXPECT_EQ(run(items, width, cost), reference)
                    << "items " << items << " width " << width;
            }
        }
    }
}

TEST(ParallelReduce, McYieldBitIdenticalAtEveryWidthOnBothSidesOfTheGrain) {
    const yield::wire_array_layout layout;
    const yield::defect_size_distribution sizes{0.5, 4.0, 2.0};
    // 100 dies are below the grain (serial on the caller), 20000 above.
    for (const std::size_t dies : {std::size_t{100}, std::size_t{20000}}) {
        yield::monte_carlo_config config;
        config.dies = dies;
        config.defects_per_um2 = 1e-3;
        config.seed = 77;
        config.parallelism = 1;
        const yield::monte_carlo_result reference =
            yield::simulate_layout_yield(layout, sizes, config);
        for (const unsigned width : {2u, 3u, 4u, 0u}) {
            config.parallelism = width;
            const yield::monte_carlo_result r =
                yield::simulate_layout_yield(layout, sizes, config);
            EXPECT_EQ(r.good_dies, reference.good_dies) << dies << "/" << width;
            EXPECT_EQ(r.defects_thrown, reference.defects_thrown);
            EXPECT_EQ(r.shorts, reference.shorts);
            EXPECT_EQ(r.opens, reference.opens);
            EXPECT_EQ(r.yield, reference.yield);
            EXPECT_EQ(r.std_error, reference.std_error);
        }
    }
}

}  // namespace
}  // namespace silicon::exec
