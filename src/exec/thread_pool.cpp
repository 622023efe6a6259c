#include "exec/thread_pool.hpp"

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace silicon::exec {

namespace {

/// Set while the current thread executes a pool task (any pool); used to
/// reject nested thread_pool::run and to degrade nested parallel_for to
/// serial execution.
thread_local bool in_pool_task = false;

/// How long run() spins for the tasks still running on workers before it
/// sleeps: about one wakeup latency, so a join that would finish sooner
/// never pays for a sleep and a wakeup, and a long one wastes little.
constexpr std::chrono::microseconds join_spin{10};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/// RAII flag for in_pool_task so exceptions unwind it correctly.
struct task_scope {
    task_scope() noexcept { in_pool_task = true; }
    ~task_scope() { in_pool_task = false; }
    task_scope(const task_scope&) = delete;
    task_scope& operator=(const task_scope&) = delete;
};

// Pool metrics live in the global obs registry: tasks ever executed,
// instantaneous queued-but-unclaimed tasks, the shared pool's width, and
// runs that woke a worker.  All lazily registered so a program that
// never runs parallel work never creates them.
obs::counter& tasks_total() {
    static obs::counter& c = obs::metrics_registry::global().get_counter(
        "silicon_exec_tasks_total",
        "Tasks executed by the exec thread pool");
    return c;
}

obs::gauge& queue_depth() {
    static obs::gauge& g = obs::metrics_registry::global().get_gauge(
        "silicon_exec_queue_depth",
        "Submitted pool tasks not yet claimed by a worker");
    return g;
}

obs::gauge& pool_threads() {
    static obs::gauge& g = obs::metrics_registry::global().get_gauge(
        "silicon_exec_pool_threads",
        "Execution width of the shared exec pool");
    return g;
}

obs::counter& pool_runs_total() {
    static obs::counter& c = obs::metrics_registry::global().get_counter(
        "silicon_exec_pool_runs_total",
        "Pool runs that woke at least one worker thread");
    return c;
}

}  // namespace

std::size_t shard_count_for(std::size_t items) noexcept {
    constexpr std::size_t max_shards = 64;
    return std::min(items, max_shards);
}

shard_range shard_of(std::size_t items, std::size_t shards,
                     std::size_t index) {
    if (shards == 0) {
        throw std::invalid_argument("shard_of: need at least one shard");
    }
    if (index >= shards) {
        throw std::invalid_argument("shard_of: shard index out of range");
    }
    const std::size_t base = items / shards;
    const std::size_t extra = items % shards;
    const std::size_t begin = index * base + std::min(index, extra);
    const std::size_t size = base + (index < extra ? 1 : 0);
    return {begin, begin + size, index, shards};
}

unsigned resolve_parallelism(unsigned requested) noexcept {
    return requested == 0 ? thread_pool::hardware_threads() : requested;
}

/// What a participant needs of one run, copied under the pool mutex when
/// it takes a seat: a worker that is descheduled past the end of its run
/// still holds a consistent view, and its generation makes every later
/// claim fail.
struct thread_pool::job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t total = 0;
    std::uint32_t generation = 0;
    std::uint64_t submit_ns = 0;  ///< tracer timestamp; 0 = untraced
};

struct thread_pool::impl {
    std::vector<std::thread> workers;
    unsigned thread_count = 1;

    /// The one job slot, rewritten by each run() under `mutex`.
    job current;
    /// (generation << 32) | next unclaimed task.  A claim is a CAS that
    /// succeeds only while the word still carries the claimer's
    /// generation, so a worker seated for an earlier run never claims a
    /// task of a later one.
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::size_t> finished{0};  ///< tasks of the run completed
    std::atomic<bool> failed{false};       ///< set by the first throwing task
    std::exception_ptr error;              ///< written by that task only

    std::mutex mutex;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    unsigned seats = 0;  // guarded by mutex: workers still invited
    bool stop = false;   // guarded by mutex

    std::mutex submit_mutex;  // serializes concurrent run() callers
};

thread_pool::thread_pool(unsigned threads) : impl_{new impl} {
    const unsigned resolved = resolve_parallelism(threads);
    impl_->thread_count = resolved;
    impl_->workers.reserve(resolved - 1);
    try {
        for (unsigned i = 0; i + 1 < resolved; ++i) {
            impl_->workers.emplace_back([this] { worker_loop(); });
        }
    } catch (...) {
        {
            const std::lock_guard<std::mutex> lock(impl_->mutex);
            impl_->stop = true;
        }
        impl_->work_cv.notify_all();
        for (std::thread& t : impl_->workers) {
            t.join();
        }
        delete impl_;
        throw;
    }
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (std::thread& t : impl_->workers) {
        t.join();
    }
    delete impl_;
}

unsigned thread_pool::thread_count() const noexcept {
    return impl_->thread_count;
}

unsigned thread_pool::hardware_threads() noexcept {
    // hardware_concurrency() reads sysfs on every call (about 4 µs on
    // the benchmark host), and every parallel_for at parallelism 0
    // asks: ask once.
    static const unsigned hw = [] {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1u : n;
    }();
    return hw;
}

bool thread_pool::on_worker_thread() noexcept { return in_pool_task; }

thread_pool& thread_pool::shared() {
    static thread_pool pool{hardware_threads()};
    // The gauge describes this pool alone, so it is set once, here.
    static const bool published =
        (pool_threads().set(static_cast<double>(pool.thread_count())), true);
    (void)published;
    return pool;
}

void thread_pool::execute(const job& j, bool wake_caller) {
    impl& s = *impl_;
    const task_scope scope;
    obs::tracer& tracer = obs::tracer::instance();
    std::uint64_t t = s.ticket.load(std::memory_order_acquire);
    for (;;) {
        const std::size_t i = static_cast<std::uint32_t>(t);
        if (static_cast<std::uint32_t>(t >> 32) != j.generation ||
            i >= j.total) {
            break;  // a later run's word, or nothing left to claim
        }
        if (!s.ticket.compare_exchange_weak(t, t + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            continue;  // t now holds the current word
        }
        if (j.submit_ns != 0 && tracer.enabled()) {
            // Queue wait: submission until this thread claimed the task.
            tracer.record("exec.queue_wait", "exec", j.submit_ns,
                          tracer.now_ns() - j.submit_ns);
        }
        queue_depth().add(-1.0);
        try {
            const obs::trace_span span{"exec.task", "exec"};
            (*j.fn)(i);
        } catch (...) {
            if (!s.failed.exchange(true, std::memory_order_acq_rel)) {
                s.error = std::current_exception();
            }
        }
        tasks_total().add(1);
        if (s.finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                j.total &&
            wake_caller) {
            // A worker ran the run's last task: wake the caller if it
            // sleeps.  Taking the mutex orders this with the caller's
            // predicate check, so the wakeup cannot fall between the two.
            { const std::lock_guard<std::mutex> lock(s.mutex); }
            s.done_cv.notify_one();
        }
        t = s.ticket.load(std::memory_order_acquire);
    }
}

void thread_pool::worker_loop() {
    impl& s = *impl_;
    std::unique_lock<std::mutex> lock(s.mutex);
    for (;;) {
        s.work_cv.wait(lock, [&] { return s.stop || s.seats != 0; });
        if (s.stop) {
            return;
        }
        --s.seats;
        const job j = s.current;
        lock.unlock();
        execute(j, true);
        lock.lock();
    }
}

void thread_pool::run(std::size_t tasks,
                      const std::function<void(std::size_t)>& fn,
                      unsigned width) {
    if (in_pool_task) {
        throw std::logic_error(
            "thread_pool::run: nested use from inside a pool task");
    }
    if (tasks == 0) {
        return;
    }
    if (tasks > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("thread_pool::run: too many tasks");
    }
    impl& s = *impl_;
    const std::size_t cap =
        width == 0 ? s.thread_count : std::min(width, s.thread_count);
    const auto helpers = static_cast<unsigned>(std::min(tasks, cap) - 1);

    const std::lock_guard<std::mutex> submit(s.submit_mutex);
    queue_depth().add(static_cast<double>(tasks));
    job j;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        j.fn = &fn;
        j.total = tasks;
        j.generation = s.current.generation + 1;
        if (helpers != 0) {
            obs::tracer& tracer = obs::tracer::instance();
            if (tracer.enabled()) {
                j.submit_ns = tracer.now_ns();
            }
        }
        s.current = j;
        s.finished.store(0, std::memory_order_relaxed);
        s.failed.store(false, std::memory_order_relaxed);
        s.error = nullptr;
        s.ticket.store(std::uint64_t{j.generation} << 32,
                       std::memory_order_release);
        s.seats = helpers;
    }
    if (helpers != 0) {
        pool_runs_total().add(1);
        if (helpers == s.workers.size()) {
            s.work_cv.notify_all();  // one wake call for the whole pool
        } else {
            for (unsigned w = 0; w < helpers; ++w) {
                s.work_cv.notify_one();
            }
        }
    }
    execute(j, false);  // the caller participates
    if (helpers != 0) {
        // Every task is claimed; wait only for those still running on a
        // worker.  Spin a few microseconds before paying for a sleep and
        // a wakeup.
        const auto spin_until =
            std::chrono::steady_clock::now() + join_spin;
        while (s.finished.load(std::memory_order_acquire) != tasks &&
               std::chrono::steady_clock::now() < spin_until) {
            cpu_relax();
        }
        std::unique_lock<std::mutex> lock(s.mutex);
        s.seats = 0;  // a worker that has not woken yet stays asleep
        s.done_cv.wait(lock, [&] {
            return s.finished.load(std::memory_order_acquire) == tasks;
        });
    }
    if (s.failed.load(std::memory_order_acquire)) {
        std::rethrow_exception(s.error);
    }
}

void parallel_for(std::size_t items, unsigned parallelism,
                  const std::function<void(const shard_range&)>& body,
                  const cancel_token* cancel, double item_cost_ns) {
    const std::size_t shards = shard_count_for(items);
    if (shards == 0) {
        return;
    }
    // Cancellation point at every shard boundary: a shard either runs
    // to completion or not at all, so whatever completed is identical
    // to the uncancelled run.  The throw happens after the join so no
    // worker is abandoned mid-task.
    const auto shard = [&](std::size_t s) {
        if (cancel == nullptr || !cancel->expired()) {
            body(shard_of(items, shards, s));
        }
    };
    const unsigned threads = resolve_parallelism(parallelism);
    if (threads <= 1 || shards == 1 || thread_pool::on_worker_thread() ||
        !worth_fanning_out(items, item_cost_ns)) {
        // Serial path — the SAME shard decomposition, run in index order
        // on the calling thread (also the nested-use safety fallback).
        for (std::size_t s = 0; s < shards; ++s) {
            const obs::trace_span span{"exec.task", "exec"};
            shard(s);
            tasks_total().add(1);
        }
    } else {
        thread_pool::shared().run(shards, shard, threads);
    }
    if (cancel != nullptr && cancel->expired()) {
        throw cancelled_error{};
    }
}

}  // namespace silicon::exec
