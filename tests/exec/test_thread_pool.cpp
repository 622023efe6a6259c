// Tests for the deterministic thread-pool engine.

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
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

TEST(ThreadPool, NestedRunIsRejected) {
    thread_pool pool{4};
    std::atomic<int> rejections{0};
    pool.run(8, [&](std::size_t) {
        try {
            pool.run(1, [](std::size_t) {});
        } catch (const std::logic_error&) {
            ++rejections;
        }
    });
    EXPECT_EQ(rejections.load(), 8);
}

TEST(ThreadPool, NestedRunOnSingleThreadPoolIsRejected) {
    thread_pool pool{1};
    EXPECT_THROW(
        pool.run(1, [&](std::size_t) { pool.run(1, [](std::size_t) {}); }),
        std::logic_error);
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
    // caught when that run is re-checked after the next one.
    thread_pool pool{4};
    constexpr int runs = 5000;
    std::vector<std::atomic<int>> done[2] = {std::vector<std::atomic<int>>(65),
                                             std::vector<std::atomic<int>>(65)};
    std::size_t prev_tasks = 0;
    for (int run = 0; run < runs; ++run) {
        std::vector<std::atomic<int>>& cur = done[run % 2];
        const std::vector<std::atomic<int>>& prev = done[(run + 1) % 2];
        const std::size_t tasks = 1 + static_cast<std::size_t>(run) % 65;
        const auto width = static_cast<unsigned>(run % 6);  // 0 = whole pool
        for (std::atomic<int>& d : cur) {
            d.store(0, std::memory_order_relaxed);
        }
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
