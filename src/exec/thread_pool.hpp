// thread_pool.hpp — deterministic parallel execution engine.
//
// Every stochastic hot path in the library (Monte-Carlo yield, the wafer
// simulator, the sweep/grid engines behind the figure benches) runs on
// this small chunk-sharded thread pool.  The design goal is *thread-count
// invariance*: a run with N threads and a run with 1 thread must produce
// bit-identical results, so the statistical tests stay meaningful no
// matter where they execute.
//
// The contract that guarantees it:
//
//   1. Work over `items` elements is split into `shard_count_for(items)`
//      contiguous shards.  The decomposition depends ONLY on the item
//      count — never on the thread count or the hardware.
//   2. Each shard owns a private RNG stream seeded with
//      `shard_seed(seed, shard_index)` (a double SplitMix64 finalizer of
//      the pair), so the streams are fixed by (seed, shard) regardless of
//      which thread executes the shard or in which order.
//   3. Shard results are merged by shard index (parallel_reduce folds in
//      index order; callers that write into preallocated slots index by
//      item).  No merge ever depends on completion order.
//
// Threads only decide *when* a shard runs, never *what* it computes, so
// `parallelism ∈ {1, 2, 7, hw}` all reproduce the same streams and the
// same merged result.  The same holds for the grain: a call whose
// estimated work is below `fanout_threshold_ns` runs the identical
// shards serially on the caller instead of waking the pool.  There is
// no work stealing and no dynamic re-chunking — determinism is bought
// with static sharding, and the 64x shard budget (see shard_count_for)
// keeps load balance good anyway.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <utility>

namespace silicon::exec {

/// Derive the RNG seed of one shard from the run seed and the shard
/// index: two rounds of the SplitMix64 finalizer over the mixed pair,
/// so adjacent (seed, shard) pairs give decorrelated streams.  This is
/// the single seeding helper used by serial AND parallel code paths.
[[nodiscard]] constexpr std::uint64_t shard_seed(
    std::uint64_t seed, std::uint64_t shard_index) noexcept {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (shard_index + 1);
    for (int round = 0; round < 2; ++round) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
    }
    return z;
}

/// One contiguous chunk of a sharded index range.
struct shard_range {
    std::size_t begin = 0;  ///< first item (inclusive)
    std::size_t end = 0;    ///< last item (exclusive)
    std::size_t index = 0;  ///< shard index in [0, count)
    std::size_t count = 0;  ///< total shards of the decomposition

    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// The shard budget: no decomposition has more shards than this.
inline constexpr std::size_t max_shards = 64;

/// Number of shards used for `items` work items: min(items, 64).  A
/// fixed budget (not a function of the thread count) is what makes the
/// decomposition hardware-independent; 64 shards give good load balance
/// for any realistic core count while keeping merge cost negligible.
[[nodiscard]] std::size_t shard_count_for(std::size_t items) noexcept;

/// The `index`-th of `shards` near-equal contiguous chunks of [0, items):
/// the first items % shards chunks hold one extra item.  More shards than
/// items is allowed (the tail shards are empty).  Throws
/// std::invalid_argument when shards == 0 or index >= shards.
[[nodiscard]] shard_range shard_of(std::size_t items, std::size_t shards,
                                   std::size_t index);

/// Resolve a `parallelism` knob: 0 means hardware concurrency, anything
/// else is taken literally.
[[nodiscard]] unsigned resolve_parallelism(unsigned requested) noexcept;

/// Below this much estimated work (items × item_cost_ns, in
/// nanoseconds of one core) a parallel_for runs its shards serially on
/// the calling thread: waking a worker and joining it costs more than
/// the work it would take over.  Derived from the measured dispatch
/// cost of the shared pool (DESIGN.md §7); not a knob.
inline constexpr double fanout_threshold_ns = 40'000.0;

/// Item cost for callers without an estimate: always worth a fan-out.
inline constexpr double unknown_item_cost =
    std::numeric_limits<double>::infinity();

/// True when `items` items of `item_cost_ns` each are worth handing to
/// the pool (see fanout_threshold_ns).
[[nodiscard]] constexpr bool worth_fanning_out(std::size_t items,
                                               double item_cost_ns) noexcept {
    return static_cast<double>(items) * item_cost_ns >= fanout_threshold_ns;
}

/// A fixed-size pool of worker threads executing indexed task batches.
///
/// `run(tasks, fn, width)` calls fn(0) … fn(tasks-1) exactly once each
/// across at most `width` threads (the calling thread plus up to
/// width-1 others), blocks until all complete, and rethrows the first
/// exception thrown by any task (remaining tasks still run).  Tasks are
/// claimed from a shared atomic counter; callers needing determinism
/// must make each task independent of execution order — the sharding
/// helpers above exist for exactly that.
///
/// Several runs may be in flight at once, from other threads or from
/// inside a task (nested fan-out).  Each takes one of `job_slots`
/// pool-owned slots: a generation-tagged claim word, a completion count
/// and the number of open *seats* (min(tasks, width) - 1).  A job's
/// *depth* is the number of pool tasks on its submitter's stack plus
/// one.  Idle workers take a seat in the deepest job with unclaimed
/// tasks.  A submitter that has claimed all of its own tasks waits only
/// for those still running; meanwhile it may take a seat in a job of
/// the same top-level run that is deeper than the task it is inside —
/// never a sibling's or an ancestor's task, which could re-enter code
/// whose thread_local state this thread's own stack is still using.
/// When every slot is busy a run executes its tasks serially on the
/// caller, in index order.  DESIGN.md §7 gives the whole protocol.
class thread_pool {
public:
    /// Jobs that can be in flight at once, nested ones included.
    static constexpr unsigned job_slots = 64;

    /// Spawns threads-1 workers (the caller participates in run()).
    /// threads == 0 means hardware concurrency.
    explicit thread_pool(unsigned threads = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Total execution width: workers + the calling thread.
    [[nodiscard]] unsigned thread_count() const noexcept;

    /// Execute fn(i) for i in [0, tasks) on at most `width` threads
    /// (0 = the whole pool); blocks until done.  May be called from
    /// inside a task of this pool.
    void run(std::size_t tasks, const std::function<void(std::size_t)>& fn,
             unsigned width = 0);

    /// std::thread::hardware_concurrency(), never less than 1.
    [[nodiscard]] static unsigned hardware_threads() noexcept;

    /// Lazily constructed process-wide pool sized to the hardware; every
    /// parallel_for runs on it, whatever its parallelism.
    [[nodiscard]] static thread_pool& shared();

private:
    struct job;
    struct slot;
    struct impl;
    void worker_loop();
    /// Claim and run tasks of `j` until none is left, a later run has
    /// reused its slot, or (`until`, when set) that count reaches
    /// `until_total`.  A participant other than the submitter
    /// (`wake_caller`) that finishes the run's last task wakes the
    /// submitter.  Returns the number of tasks run.
    std::size_t execute(const job& j, bool wake_caller,
                        const std::atomic<std::size_t>* until = nullptr,
                        std::size_t until_total = 0);
    /// Wait for the tasks of `own` (slot `index`) still running, helping
    /// deeper jobs of the same top-level run meanwhile; then close and
    /// free the slot and return the run's first exception, if any.
    std::exception_ptr join(const job& own, unsigned index);

    impl* impl_;
};

class cancel_token;

/// Run `body` over the deterministic shard decomposition of [0, items)
/// using up to `parallelism` threads (0 = hardware concurrency) of the
/// shared pool.  The decomposition — and therefore any per-shard RNG
/// stream seeded via shard_seed — is identical for every parallelism
/// value and every cost estimate; only the wall-clock changes.  The
/// same shards run serially, in index order, on the calling thread when
/// parallelism <= 1, when there is one shard, or when items ×
/// item_cost_ns is below fanout_threshold_ns (the grain).  Called from
/// inside a pool task it fans out too, onto threads that are idle or
/// waiting (see thread_pool).  Exceptions from `body` propagate to the
/// caller.
///
/// With a non-null `cancel` there is a cooperative cancellation point
/// before each shard.  A shard that has started always completes (so
/// completed work is bit-identical to an uncancelled run); once
/// `cancel->expired()` the remaining shards are skipped and
/// `cancelled_error` is thrown after the join — a cancelled call never
/// returns normally with partial work.
void parallel_for(std::size_t items, unsigned parallelism,
                  const std::function<void(const shard_range&)>& body,
                  const cancel_token* cancel = nullptr,
                  double item_cost_ns = unknown_item_cost);

/// Map/fold over the shard decomposition: `map(shard)` produces one
/// partial result per shard (in parallel above the grain), then
/// `combine(acc, partial)` folds the partials **in shard-index order**
/// starting from `init`.  The fold order is fixed, so
/// non-associative-in-floating-point merges still give bit-identical
/// results at every parallelism level and on both sides of the grain.
/// The partials live in a fixed array on the caller's stack, so the
/// reduce allocates nothing of its own.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t items, unsigned parallelism,
                                T init, Map&& map, Combine&& combine,
                                double item_cost_ns = unknown_item_cost) {
    const std::size_t shards = shard_count_for(items);
    std::array<T, max_shards> partial{};
    parallel_for(
        items, parallelism,
        [&](const shard_range& r) { partial[r.index] = map(r); }, nullptr,
        item_cost_ns);
    T acc = std::move(init);
    for (std::size_t s = 0; s < shards; ++s) {
        acc = combine(std::move(acc), std::move(partial[s]));
    }
    return acc;
}

}  // namespace silicon::exec
