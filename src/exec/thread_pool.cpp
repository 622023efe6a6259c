#include "exec/thread_pool.hpp"

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace silicon::exec {

namespace {

/// The pool tasks on this thread's stack, and the top-level run the
/// innermost one belongs to (meaningless at depth 0).  A run submitted
/// here has depth t_depth + 1 and, unless it is top-level, root t_root.
thread_local unsigned t_depth = 0;
thread_local std::uint64_t t_root = 0;

/// RAII: the current thread runs tasks of a job at `depth` of `root`;
/// restores the enclosing context, exceptions included.
class task_scope {
public:
    task_scope(unsigned depth, std::uint64_t root) noexcept
        : depth_{t_depth}, root_{t_root} {
        t_depth = depth;
        t_root = root;
    }
    ~task_scope() {
        t_depth = depth_;
        t_root = root_;
    }
    task_scope(const task_scope&) = delete;
    task_scope& operator=(const task_scope&) = delete;

private:
    unsigned depth_;
    std::uint64_t root_;
};

/// How long run() spins for the tasks still running on other threads
/// before it sleeps: about one wakeup latency, so a join that would
/// finish sooner never pays for a sleep and a wakeup, and a long one
/// wastes little.
constexpr std::chrono::microseconds join_spin{10};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

constexpr std::uint64_t bit(unsigned i) noexcept {
    return std::uint64_t{1} << i;
}

// Pool metrics live in the global obs registry: tasks ever executed,
// instantaneous queued-but-unclaimed tasks, the shared pool's width,
// runs that woke a worker (and those of them submitted from inside a
// task), and tasks a waiting submitter ran for another job.  All
// registered by the first pool's constructor, so a program that never
// builds a pool never creates them, and no run registers one: a
// registration allocates, and a warm run allocates nothing.
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

obs::counter& nested_runs_total() {
    static obs::counter& c = obs::metrics_registry::global().get_counter(
        "silicon_exec_nested_runs_total",
        "Pool runs submitted from inside a pool task that woke a worker");
    return c;
}

obs::counter& helped_tasks_total() {
    static obs::counter& c = obs::metrics_registry::global().get_counter(
        "silicon_exec_helped_tasks_total",
        "Tasks a waiting submitter ran for a deeper job");
    return c;
}

/// The run of a job that got no seat to offer or no slot: every task on
/// the caller, in index order, as a task of a job at `depth` of `root`
/// (so nested runs inside it see the right depth).  The first exception
/// is rethrown after the rest ran, as in a pooled run.
void run_serially(std::size_t tasks,
                  const std::function<void(std::size_t)>& fn, unsigned depth,
                  std::uint64_t root) {
    const task_scope scope{depth, root};
    std::exception_ptr first;
    for (std::size_t i = 0; i < tasks; ++i) {
        try {
            const obs::trace_span span{"exec.task", "exec"};
            fn(i);
        } catch (...) {
            if (!first) {
                first = std::current_exception();
            }
        }
        tasks_total().add(1);
    }
    if (first) {
        std::rethrow_exception(first);
    }
}

}  // namespace

std::size_t shard_count_for(std::size_t items) noexcept {
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
/// it takes a seat: a participant that is descheduled past the end of
/// its run still holds a consistent view, and its generation makes
/// every later claim on the slot fail.
struct thread_pool::job {
    slot* where = nullptr;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t total = 0;
    std::uint64_t root = 0;
    std::uint64_t submit_ns = 0;  ///< tracer timestamp; 0 = untraced
    std::uint32_t generation = 0;
    unsigned depth = 0;
};

/// One job slot.  A run writes it under the pool mutex when it takes the
/// slot and frees it, under the mutex again, once its last task has
/// finished.
struct thread_pool::slot {
    // Written when the slot opens.  Relaxed atomics, so that a waiting
    // submitter can look for a job to help without the mutex; it takes
    // the mutex, and checks again, only when one looks eligible.
    std::atomic<std::size_t> total{0};
    std::atomic<unsigned> depth{0};
    std::atomic<std::uint64_t> root{0};

    // Guarded by the pool mutex.
    const std::function<void(std::size_t)>* fn = nullptr;
    std::uint64_t submit_ns = 0;
    std::uint32_t generation = 0;
    unsigned seats = 0;  ///< participants still invited

    /// (generation << 32) | next unclaimed task.  A claim is a CAS that
    /// succeeds only while the word still carries the claimer's
    /// generation, so a participant seated for an earlier run of this
    /// slot never claims a task of a later one.
    std::atomic<std::uint64_t> ticket{0};
    std::atomic<std::size_t> finished{0};  ///< tasks of the run completed
    std::atomic<bool> failed{false};       ///< set by the first throwing task
    std::exception_ptr error;              ///< written by that task only
    std::condition_variable done_cv;       ///< the submitter sleeps here
};

struct thread_pool::impl {
    static_assert(job_slots == 64, "slot sets are 64-bit masks");

    std::vector<std::thread> workers;
    unsigned thread_count = 1;
    std::array<slot, job_slots> slots;

    std::mutex mutex;
    std::condition_variable work_cv;
    std::uint64_t free = ~std::uint64_t{0};  // guarded: slots not in use
    std::uint64_t sleepers = 0;  // guarded: slots whose submitter sleeps
    /// Slots with open seats.  Written under `mutex`; read without it
    /// only as a hint.
    std::atomic<std::uint64_t> open{0};
    unsigned idle = 0;   // guarded: workers waiting for a seat
    bool stop = false;   // guarded

    static bool unclaimed(const slot& sl) noexcept {
        return static_cast<std::uint32_t>(
                   sl.ticket.load(std::memory_order_relaxed)) <
               sl.total.load(std::memory_order_relaxed);
    }

    /// May a thread inside a task at depth `inside` of `root` help a
    /// slot other than `own`?  Lock-free and approximate: a yes is
    /// confirmed by pick() under the mutex.
    bool may_help(unsigned own, unsigned inside,
                  std::uint64_t root) const noexcept {
        for (std::uint64_t m = open.load(std::memory_order_relaxed) &
                               ~bit(own);
             m != 0; m &= m - 1) {
            const slot& sl = slots[std::countr_zero(m)];
            if (sl.root.load(std::memory_order_relaxed) == root &&
                sl.depth.load(std::memory_order_relaxed) > inside &&
                unclaimed(sl)) {
                return true;
            }
        }
        return false;
    }

    /// Under the mutex: the deepest open job with unclaimed tasks that
    /// is deeper than `inside` and (when `root` is set) of that
    /// top-level run, or -1.  Closes the seats of jobs with nothing left
    /// to claim on the way.
    int pick(unsigned inside, const std::uint64_t* root) {
        std::uint64_t still_open = open.load(std::memory_order_relaxed);
        int best = -1;
        unsigned best_depth = inside;
        for (std::uint64_t m = still_open; m != 0; m &= m - 1) {
            const auto k = static_cast<unsigned>(std::countr_zero(m));
            slot& sl = slots[k];
            if (!unclaimed(sl)) {
                sl.seats = 0;
                still_open &= ~bit(k);
                continue;
            }
            const unsigned d = sl.depth.load(std::memory_order_relaxed);
            if (d > best_depth &&
                (root == nullptr ||
                 sl.root.load(std::memory_order_relaxed) == *root)) {
                best = static_cast<int>(k);
                best_depth = d;
            }
        }
        open.store(still_open, std::memory_order_relaxed);
        return best;
    }

    /// Under the mutex: take one of slot k's seats and copy its job.
    job take_seat(unsigned k) {
        slot& sl = slots[k];
        if (--sl.seats == 0) {
            open.store(open.load(std::memory_order_relaxed) & ~bit(k),
                       std::memory_order_relaxed);
        }
        return job{&sl,
                   sl.fn,
                   sl.total.load(std::memory_order_relaxed),
                   sl.root.load(std::memory_order_relaxed),
                   sl.submit_ns,
                   sl.generation,
                   sl.depth.load(std::memory_order_relaxed)};
    }
};

thread_pool::thread_pool(unsigned threads) : impl_{new impl} {
    (void)tasks_total();
    (void)queue_depth();
    (void)pool_runs_total();
    (void)nested_runs_total();
    (void)helped_tasks_total();
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

thread_pool& thread_pool::shared() {
    static thread_pool pool{hardware_threads()};
    // The gauge describes this pool alone, so it is set once, here.
    static const bool published =
        (pool_threads().set(static_cast<double>(pool.thread_count())), true);
    (void)published;
    return pool;
}

std::size_t thread_pool::execute(const job& j, bool wake_caller,
                                 const std::atomic<std::size_t>* until,
                                 std::size_t until_total) {
    impl& s = *impl_;
    slot& sl = *j.where;
    const task_scope scope{j.depth, j.root};
    obs::tracer& tracer = obs::tracer::instance();
    std::size_t ran = 0;
    std::uint64_t t = sl.ticket.load(std::memory_order_acquire);
    for (;;) {
        const std::size_t i = static_cast<std::uint32_t>(t);
        if (static_cast<std::uint32_t>(t >> 32) != j.generation ||
            i >= j.total) {
            break;  // a later run's word, or nothing left to claim
        }
        if (!sl.ticket.compare_exchange_weak(t, t + 1,
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
            if (!sl.failed.exchange(true, std::memory_order_acq_rel)) {
                sl.error = std::current_exception();
            }
        }
        tasks_total().add(1);
        ++ran;
        if (sl.finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                j.total &&
            wake_caller) {
            // Another thread's run just finished: wake its submitter if
            // it sleeps.  Taking the mutex orders this with the
            // submitter's predicate check, so the wakeup cannot fall
            // between the two.
            { const std::lock_guard<std::mutex> lock(s.mutex); }
            sl.done_cv.notify_one();
        }
        if (until != nullptr &&
            until->load(std::memory_order_acquire) == until_total) {
            break;  // the helper's own run is done: go back to it
        }
        t = sl.ticket.load(std::memory_order_acquire);
    }
    return ran;
}

void thread_pool::worker_loop() {
    impl& s = *impl_;
    std::unique_lock<std::mutex> lock(s.mutex);
    while (!s.stop) {
        const int k = s.pick(0, nullptr);
        if (k < 0) {
            ++s.idle;
            s.work_cv.wait(lock);
            --s.idle;
            continue;
        }
        const job j = s.take_seat(static_cast<unsigned>(k));
        lock.unlock();
        execute(j, true);
        lock.lock();
    }
}

std::exception_ptr thread_pool::join(const job& own, unsigned index) {
    impl& s = *impl_;
    slot& sl = s.slots[index];
    // The depth rule: this thread is inside a task at depth own.depth - 1
    // and may run only tasks of its own top-level run that are deeper
    // than that — never a sibling's or an ancestor's task, which could
    // re-enter code whose thread_local state is live on this stack.
    const unsigned inside = own.depth - 1;
    std::size_t helped = 0;
    const auto done = [&] {
        return sl.finished.load(std::memory_order_acquire) == own.total;
    };
    // Under the lock: take a seat in an eligible job and run its tasks
    // until none is left or this run is done.
    const auto help = [&](std::unique_lock<std::mutex>& lock) {
        const int k = s.pick(inside, &own.root);
        if (k < 0) {
            return false;
        }
        const job h = s.take_seat(static_cast<unsigned>(k));
        lock.unlock();
        helped += execute(h, true, &sl.finished, own.total);
        lock.lock();
        return true;
    };
    // Every task is claimed; spin a few microseconds for those still
    // running before paying for a sleep and a wakeup.  The spin takes
    // the mutex only when a job looks eligible for help.
    auto spin_until = std::chrono::steady_clock::now() + join_spin;
    while (!done()) {
        if (s.may_help(index, inside, own.root)) {
            std::unique_lock<std::mutex> lock(s.mutex);
            if (help(lock)) {
                spin_until = std::chrono::steady_clock::now() + join_spin;
                continue;
            }
        }
        if (std::chrono::steady_clock::now() >= spin_until) {
            break;
        }
        cpu_relax();
    }
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(s.mutex);
        while (!done()) {
            if (help(lock)) {
                continue;
            }
            // Asleep, this thread can still be woken to help: run()
            // wakes sleepers of its top-level run when it has more seats
            // than idle workers.
            s.sleepers |= bit(index);
            sl.done_cv.wait(lock);
            s.sleepers &= ~bit(index);
        }
        // Close the seats a participant that wakes late would find: it
        // sleeps again instead.
        if (sl.seats != 0) {
            sl.seats = 0;
            s.open.store(s.open.load(std::memory_order_relaxed) & ~bit(index),
                         std::memory_order_relaxed);
        }
        if (sl.failed.load(std::memory_order_acquire)) {
            error = sl.error;
            sl.error = nullptr;
        }
        s.free |= bit(index);
    }
    if (helped != 0) {
        helped_tasks_total().add(helped);
    }
    return error;
}

void thread_pool::run(std::size_t tasks,
                      const std::function<void(std::size_t)>& fn,
                      unsigned width) {
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
    const unsigned depth = t_depth + 1;
    // A top-level run is its own root, named by the address of this
    // frame: unique among the runs in flight.
    const char frame = 0;
    const std::uint64_t root =
        depth == 1 ? reinterpret_cast<std::uintptr_t>(&frame) : t_root;
    if (helpers == 0) {
        run_serially(tasks, fn, depth, root);
        return;
    }

    queue_depth().add(static_cast<double>(tasks));
    unsigned index = 0;
    job own;
    unsigned wake_workers = 0;
    std::uint64_t wake_sleepers = 0;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        if (s.free != 0) {
            index = static_cast<unsigned>(std::countr_zero(s.free));
            s.free &= ~bit(index);
            slot& sl = s.slots[index];
            sl.fn = &fn;
            sl.total.store(tasks, std::memory_order_relaxed);
            sl.depth.store(depth, std::memory_order_relaxed);
            sl.root.store(root, std::memory_order_relaxed);
            ++sl.generation;
            sl.submit_ns = 0;
            obs::tracer& tracer = obs::tracer::instance();
            if (tracer.enabled()) {
                sl.submit_ns = tracer.now_ns();
            }
            sl.finished.store(0, std::memory_order_relaxed);
            sl.failed.store(false, std::memory_order_relaxed);
            sl.ticket.store(std::uint64_t{sl.generation} << 32,
                            std::memory_order_release);
            sl.seats = helpers;
            s.open.store(s.open.load(std::memory_order_relaxed) | bit(index),
                         std::memory_order_relaxed);
            own = job{&sl,  &fn, tasks, root, sl.submit_ns, sl.generation,
                      depth};
            // Wake idle workers first; seats left over go to submitters
            // of this top-level run asleep in a shallower join.
            wake_workers = std::min(helpers, s.idle);
            unsigned left = helpers - wake_workers;
            for (std::uint64_t m = s.sleepers; m != 0 && left != 0;
                 m &= m - 1) {
                const auto k = static_cast<unsigned>(std::countr_zero(m));
                const slot& w = s.slots[k];
                if (w.root.load(std::memory_order_relaxed) == root &&
                    w.depth.load(std::memory_order_relaxed) <= depth) {
                    wake_sleepers |= bit(k);
                    --left;
                }
            }
        }
    }
    if (own.where == nullptr) {
        // Every slot is busy: the same tasks, serially, on this thread.
        queue_depth().add(-static_cast<double>(tasks));
        run_serially(tasks, fn, depth, root);
        return;
    }
    pool_runs_total().add(1);
    if (depth > 1) {
        nested_runs_total().add(1);
    }
    if (wake_workers != 0 && wake_workers == s.workers.size()) {
        s.work_cv.notify_all();  // one wake call for the whole pool
    } else {
        for (unsigned w = 0; w < wake_workers; ++w) {
            s.work_cv.notify_one();
        }
    }
    for (std::uint64_t m = wake_sleepers; m != 0; m &= m - 1) {
        s.slots[std::countr_zero(m)].done_cv.notify_one();
    }
    execute(own, false);  // the submitter participates
    const std::exception_ptr error = join(own, index);
    if (error) {
        std::rethrow_exception(error);
    }
}

namespace {

/// One parallel_for's shards, called by index.  The pool task captures
/// it by a single reference, so the std::function that holds the task
/// stays in its small buffer and a fan-out allocates nothing.
struct shard_runner {
    std::size_t items;
    std::size_t shards;
    const std::function<void(const shard_range&)>* body;
    const cancel_token* cancel;

    // Cancellation point at every shard boundary: a shard either runs
    // to completion or not at all, so whatever completed is identical
    // to the uncancelled run.
    void operator()(std::size_t s) const {
        if (cancel == nullptr || !cancel->expired()) {
            (*body)(shard_of(items, shards, s));
        }
    }
};

}  // namespace

void parallel_for(std::size_t items, unsigned parallelism,
                  const std::function<void(const shard_range&)>& body,
                  const cancel_token* cancel, double item_cost_ns) {
    const std::size_t shards = shard_count_for(items);
    if (shards == 0) {
        return;
    }
    const shard_runner shard{items, shards, &body, cancel};
    const unsigned threads = resolve_parallelism(parallelism);
    if (threads <= 1 || shards == 1 ||
        !worth_fanning_out(items, item_cost_ns)) {
        // Serial path — the SAME shard decomposition, run in index order
        // on the calling thread.
        for (std::size_t s = 0; s < shards; ++s) {
            const obs::trace_span span{"exec.task", "exec"};
            shard(s);
            tasks_total().add(1);
        }
    } else {
        thread_pool::shared().run(
            shards, [&shard](std::size_t s) { shard(s); }, threads);
    }
    // The throw happens after the join so no task is abandoned midway.
    if (cancel != nullptr && cancel->expired()) {
        throw cancelled_error{};
    }
}

}  // namespace silicon::exec
