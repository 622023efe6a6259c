// Tests for the deterministic thread-pool engine.

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

namespace silicon::exec {
namespace {

TEST(ThreadPool, ZeroResolvesToHardwareConcurrency) {
    thread_pool pool{0};
    EXPECT_EQ(pool.thread_count(), thread_pool::hardware_threads());
    EXPECT_GE(thread_pool::hardware_threads(), 1u);
}

TEST(ThreadPool, RunExecutesEachTaskExactlyOnce) {
    thread_pool pool{4};
    std::vector<int> hits(257, 0);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits) {
        EXPECT_EQ(h, 1);
    }
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
    thread_pool pool{4};
    std::atomic<int> calls{0};
    pool.run(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
    thread_pool pool{1};
    EXPECT_EQ(pool.thread_count(), 1u);
    std::vector<std::size_t> order;
    pool.run(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ManyTasksOnFewThreads) {
    thread_pool pool{2};
    std::atomic<std::size_t> sum{0};
    pool.run(1000, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2u);
}

TEST(ThreadPool, PoolIsReusableAcrossRuns) {
    thread_pool pool{3};
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> calls{0};
        pool.run(17, [&](std::size_t) { ++calls; });
        EXPECT_EQ(calls.load(), 17);
    }
}

TEST(ThreadPool, ExceptionFromWorkerPropagates) {
    thread_pool pool{4};
    EXPECT_THROW(pool.run(32,
                          [&](std::size_t i) {
                              if (i == 7) {
                                  throw std::runtime_error("task 7 failed");
                              }
                          }),
                 std::runtime_error);
    // The pool survives a throwing batch.
    std::atomic<int> calls{0};
    pool.run(8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, ExceptionFromSingleThreadPoolPropagates) {
    thread_pool pool{1};
    EXPECT_THROW(
        pool.run(4, [](std::size_t) { throw std::domain_error("boom"); }),
        std::domain_error);
}

/// Runs `fanout` tasks per level down to `depth` levels (each level at
/// `width`), counting every leaf by its path index.
void nest(thread_pool& pool, unsigned depth, std::size_t fanout,
          unsigned width, std::size_t path,
          std::vector<std::atomic<int>>& leaves) {
    pool.run(
        fanout,
        [&, path](std::size_t i) {
            const std::size_t here = path * fanout + i;
            if (depth == 1) {
                leaves[here].fetch_add(1, std::memory_order_relaxed);
            } else {
                nest(pool, depth - 1, fanout, width, here, leaves);
            }
        },
        width);
}

TEST(ThreadPool, NestedRunsExecuteEachTaskExactlyOnce) {
    // A run from inside a task fans out onto idle and waiting threads:
    // at every width, nesting depth and pool size each leaf runs once.
    thread_pool wide{4};
    thread_pool narrow{1};
    constexpr std::size_t fanout = 5;
    for (thread_pool* pool : {&wide, &narrow}) {
        for (unsigned depth = 1; depth <= 3; ++depth) {
            for (unsigned width = 0; width <= 5; ++width) {
                std::size_t n = 1;
                for (unsigned d = 0; d < depth; ++d) {
                    n *= fanout;
                }
                std::vector<std::atomic<int>> leaves(n);
                nest(*pool, depth, fanout, width, 0, leaves);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(leaves[i].load(), 1)
                        << "threads " << pool->thread_count() << " depth "
                        << depth << " width " << width << " leaf " << i;
                }
            }
        }
    }
}

TEST(ThreadPool, NestedExceptionReachesOnlyItsOwnSubmitter) {
    // Each odd outer task's nested run throws; the error surfaces at
    // that task's own run() call, carrying its own index, and no other
    // run (the outer one or an even sibling's) sees it.
    thread_pool pool{4};
    constexpr std::size_t outer = 8;
    std::vector<std::string> caught(outer);
    std::vector<std::atomic<int>> inner_runs(outer);
    pool.run(outer, [&](std::size_t i) {
        try {
            pool.run(16, [&, i](std::size_t k) {
                inner_runs[i].fetch_add(1, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::microseconds{20});
                if (i % 2 == 1 && k == 3) {
                    throw std::runtime_error("outer " + std::to_string(i));
                }
            });
        } catch (const std::runtime_error& e) {
            caught[i] = e.what();
        }
    });
    for (std::size_t i = 0; i < outer; ++i) {
        EXPECT_EQ(inner_runs[i].load(), 16) << "outer " << i;
        EXPECT_EQ(caught[i], i % 2 == 1 ? "outer " + std::to_string(i) : "")
            << "outer " << i;
    }
}

TEST(ThreadPool, WaitingSubmitterNeverRunsASiblingTask) {
    // The depth rule: while an outer task waits for its nested run, its
    // thread may help nested jobs but must never start another outer
    // task, which would re-enter this thread's per-task state.
    thread_pool pool{4};
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> reentered{0};
        pool.run(8, [&](std::size_t) {
            thread_local bool in_outer = false;
            if (in_outer) {
                reentered.fetch_add(1, std::memory_order_relaxed);
            }
            in_outer = true;
            pool.run(24, [](std::size_t) {
                std::this_thread::sleep_for(std::chrono::microseconds{5});
            });
            in_outer = false;
        });
        ASSERT_EQ(reentered.load(), 0) << "round " << round;
    }
}

TEST(ThreadPool, ConcurrentSubmittersWithNestedRunsStayInTheirOwnTree) {
    // Several threads outside the pool submit nested runs at once: each
    // top-level run is its own tree, helped only by idle workers and by
    // waiting threads of that tree — a submitter never runs a task of
    // another submitter's tree (which could re-enter its thread's state
    // just as a sibling task could).
    thread_pool pool{4};
    constexpr std::size_t fanout = 4;
    constexpr int submitters = 3;
    thread_local int owner = -1;  // the submitter this thread is, if any
    std::atomic<int> foreign{0};
    std::vector<std::vector<std::atomic<int>>> leaves;
    for (int t = 0; t < submitters; ++t) {
        leaves.emplace_back(fanout * fanout * fanout);
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            owner = t;
            std::vector<std::atomic<int>>& mine =
                leaves[static_cast<std::size_t>(t)];
            for (int round = 0; round < 20; ++round) {
                const auto width = static_cast<unsigned>(round % 4);
                pool.run(
                    fanout,
                    [&, t, width](std::size_t i) {
                        if (owner != -1 && owner != t) {
                            foreign.fetch_add(1, std::memory_order_relaxed);
                        }
                        pool.run(
                            fanout,
                            [&, t, i, width](std::size_t j) {
                                if (owner != -1 && owner != t) {
                                    foreign.fetch_add(
                                        1, std::memory_order_relaxed);
                                }
                                // Long enough for the trees to overlap.
                                std::this_thread::sleep_for(
                                    std::chrono::microseconds{20});
                                nest(pool, 1, fanout, width,
                                     i * fanout + j, mine);
                            },
                            width);
                    },
                    width);
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    EXPECT_EQ(foreign.load(), 0);
    for (const auto& set : leaves) {
        for (const std::atomic<int>& leaf : set) {
            ASSERT_EQ(leaf.load(), 20);
        }
    }
}

/// Level `level` of a chain of nested two-task runs: task 0 goes one
/// level deeper, task 1 records which thread ran it.
void chain(thread_pool& pool, std::size_t level, std::size_t levels,
           std::vector<std::atomic<int>>& ran,
           std::vector<std::thread::id>& who) {
    pool.run(2, [&, level](std::size_t i) {
        ran[2 * level + i].fetch_add(1, std::memory_order_relaxed);
        who[2 * level + i] = std::this_thread::get_id();
        if (i == 0 && level + 1 < levels) {
            chain(pool, level + 1, levels, ran, who);
        }
    });
}

TEST(ThreadPool, RunWithEverySlotBusyCompletesSerially) {
    // A chain of nested runs deeper than the slot array: every level
    // holds its slot while it waits for the level below, so the levels
    // past job_slots find none and run their tasks serially on the
    // caller, in index order — and still run each exactly once.
    thread_pool pool{2};
    const std::size_t levels = thread_pool::job_slots + 6;
    std::vector<std::atomic<int>> ran(2 * levels);
    std::vector<std::thread::id> who(2 * levels);
    chain(pool, 0, levels, ran, who);
    for (std::size_t i = 0; i < ran.size(); ++i) {
        ASSERT_EQ(ran[i].load(), 1) << "task " << i;
    }
    for (std::size_t level = thread_pool::job_slots; level < levels;
         ++level) {
        EXPECT_EQ(who[2 * level], who[2 * level + 1]) << "level " << level;
    }
}

TEST(ThreadPool, TaskCountBeyondTheClaimWordIsRejected) {
    // Claims pack the task index into 32 bits next to the run's
    // generation: a larger run is refused before any task starts.
    thread_pool pool{2};
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(std::size_t{1} << 32, [&](std::size_t) { ++ran; }),
                 std::length_error);
    EXPECT_EQ(ran.load(), 0);
    pool.run(3, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, SharedPoolMatchesHardware) {
    thread_pool& pool = thread_pool::shared();
    EXPECT_EQ(pool.thread_count(), thread_pool::hardware_threads());
    std::atomic<int> calls{0};
    pool.run(11, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 11);
}

TEST(ThreadPool, StressRunsExactlyOnceWithoutLostWakeups) {
    // Thousands of back-to-back runs of 1..65 tasks at every width: run
    // must return only after every task finished, a worker that wakes
    // late for run N must never execute (or touch) anything of run N+1,
    // no wakeup may be lost (a lost one hangs the join), and a throwing
    // task must not disturb the rest of its run.  Runs alternate between
    // two counter sets, so a straggler writing into a finished run is
    // caught when that run is re-checked after the next one.  Every
    // third run also submits a nested run from each task (1..5 tasks at
    // widths 0..3), so nested jobs share the slots, the wakeups and the
    // waiting submitters' help with the outer ones.
    thread_pool pool{4};
    constexpr int runs = 5000;
    std::vector<std::atomic<int>> done[2] = {std::vector<std::atomic<int>>(65),
                                             std::vector<std::atomic<int>>(65)};
    std::vector<std::atomic<int>> nested(65 * 5);
    std::size_t prev_tasks = 0;
    for (int run = 0; run < runs; ++run) {
        std::vector<std::atomic<int>>& cur = done[run % 2];
        const std::vector<std::atomic<int>>& prev = done[(run + 1) % 2];
        const std::size_t tasks = 1 + static_cast<std::size_t>(run) % 65;
        const auto width = static_cast<unsigned>(run % 6);  // 0 = whole pool
        for (std::atomic<int>& d : cur) {
            d.store(0, std::memory_order_relaxed);
        }
        for (std::atomic<int>& d : nested) {
            d.store(0, std::memory_order_relaxed);
        }
        const bool nests = run % 3 == 1;
        const bool throws = run % 7 == 3;
        std::mutex ids_mutex;
        std::set<std::thread::id> ids;
        const auto body = [&](std::size_t i) {
            {
                const std::lock_guard<std::mutex> lock(ids_mutex);
                ids.insert(std::this_thread::get_id());
            }
            // Uneven task lengths keep workers busy past the caller.
            std::atomic<std::size_t> spin{0};
            while (spin.fetch_add(1, std::memory_order_relaxed) < (i % 4) * 200) {
            }
            if (nests) {
                pool.run(
                    1 + i % 5,
                    [&, i](std::size_t k) {
                        nested[i * 5 + k].fetch_add(1,
                                                    std::memory_order_relaxed);
                    },
                    static_cast<unsigned>(i % 4));
            }
            cur[i].fetch_add(1, std::memory_order_relaxed);
            if (throws && i == tasks / 2) {
                throw std::runtime_error("task failed");
            }
        };
        if (throws) {
            EXPECT_THROW(pool.run(tasks, body, width), std::runtime_error)
                << "run " << run;
        } else {
            pool.run(tasks, body, width);
        }
        for (std::size_t i = 0; i < 65; ++i) {
            ASSERT_EQ(cur[i].load(), i < tasks ? 1 : 0)
                << "run " << run << " task " << i;
            ASSERT_EQ(prev[i].load(), run > 0 && i < prev_tasks ? 1 : 0)
                << "run " << run - 1 << " task " << i << " touched late";
            for (std::size_t k = 0; k < 5; ++k) {
                ASSERT_EQ(nested[i * 5 + k].load(),
                          nests && i < tasks && k < 1 + i % 5 ? 1 : 0)
                    << "run " << run << " task " << i << " nested " << k;
            }
        }
        const std::size_t cap = width == 0 ? pool.thread_count() : width;
        ASSERT_LE(ids.size(), std::min(tasks, cap)) << "run " << run;
        prev_tasks = tasks;
    }
}

TEST(ThreadPool, WidthCapsParticipation) {
    thread_pool pool{4};
    for (const unsigned width : {1u, 2u, 3u}) {
        std::mutex ids_mutex;
        std::set<std::thread::id> ids;
        pool.run(64,
                 [&](std::size_t) {
                     std::this_thread::sleep_for(std::chrono::microseconds{50});
                     const std::lock_guard<std::mutex> lock(ids_mutex);
                     ids.insert(std::this_thread::get_id());
                 },
                 width);
        EXPECT_LE(ids.size(), width);
        if (width == 1) {
            EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
        }
    }
}

std::size_t process_threads() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator{"/proc/self/task"}) {
        ++n;
    }
    return n;
}

TEST(ThreadPool, ParallelForAtAnyWidthCreatesNoThread) {
    // Every width runs on the one shared pool (capped participation):
    // no per-call pool, so the process thread count never moves.
    thread_pool& pool = thread_pool::shared();
    EXPECT_EQ(pool.thread_count(), thread_pool::hardware_threads());
    const std::size_t before = process_threads();
    for (const unsigned width : {2u, 3u, 0u, 2u}) {
        std::atomic<std::size_t> visited{0};
        parallel_for(1000, width, [&](const shard_range& r) {
            visited += r.size();
            std::this_thread::sleep_for(std::chrono::microseconds{20});
        });
        EXPECT_EQ(visited.load(), 1000u);
        EXPECT_EQ(process_threads(), before) << "width " << width;
    }
    // The gauge reports the shared pool's width, set once.
    EXPECT_EQ(obs::metrics_registry::global()
                  .get_gauge("silicon_exec_pool_threads")
                  .value(),
              static_cast<double>(thread_pool::hardware_threads()));
}

}  // namespace
}  // namespace silicon::exec
