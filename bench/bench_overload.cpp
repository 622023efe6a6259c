// Rejection-path performance: how cheap is saying "no"?
//
// Admission control only protects an overloaded server if the reject
// path costs almost nothing — a rejection that parses JSON or allocates
// per line would itself be a resource-exhaustion vector.  This bench
// measures the three fast-reject shapes (DESIGN.md §11):
//
//   * line_too_large — the pre-parse byte-bound check in serve_line
//   * overloaded     — an admission refusal against the in-flight
//                      byte budget
//   * batch_too_large — an over-count batch, every line answered
//
// and, with the same counting-allocator trick as the warm-hit gate
// (tests/serve/test_hotpath.cpp), counts heap allocations per steady-
// state rejection.  The gate: both single-line reject shapes perform
// ZERO allocations into a reused response buffer, and a rejection is
// at least 5x cheaper than serving the cheapest real request.  A
// served baseline is measured for that ratio: line_too_large and the
// served request are timed in alternating rounds, and the gate takes
// the ratio of their medians, so both sides see the same moments of a
// shared host.
//
// Results land in BENCH_overload.json (machine readable, git-tracked;
// schema-checked by tools/validate_bench_json.py).  SILICON_BENCH_TINY=1
// shrinks the loops and skips the gate (the allocation counts are still
// measured and reported).  Lives in its own binary: it replaces the
// global allocation functions.

#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

// ---------------------------------------------------------------------------
// Counting allocator (deallocation deliberately not counted: returning
// memory on the reject path is allowed, taking it is not).
// ---------------------------------------------------------------------------

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t n) {
    ++t_allocations;
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::size_t alignment) {
    ++t_allocations;
    void* p = nullptr;
    if (posix_memalign(&p,
                       alignment < sizeof(void*) ? sizeof(void*) : alignment,
                       n == 0 ? 1 : n) != 0) {
        throw std::bad_alloc{};
    }
    return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    ++t_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    ++t_allocations;
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
    return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace {

namespace serve = silicon::serve;
namespace json = silicon::serve::json;

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// ns/op for `iters` calls of `fn(out)` into a reused buffer, plus the
/// steady-state allocation count of the final call.
struct measured {
    double ns_per_op = 0.0;
    std::uint64_t allocs_last = 0;
};

template <typename Fn>
measured measure(std::size_t iters, std::string& out, Fn&& fn) {
    measured m;
    // Warm-up: let every lazily-grown buffer reach steady state.
    for (int i = 0; i < 64; ++i) {
        fn(out);
    }
    const auto start = clock_type::now();
    for (std::size_t i = 0; i < iters; ++i) {
        fn(out);
    }
    m.ns_per_op = seconds_since(start) * 1e9 / static_cast<double>(iters);
    const std::uint64_t before = t_allocations;
    fn(out);
    m.allocs_last = t_allocations - before;
    return m;
}

double median(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    return xs[xs.size() / 2];
}

}  // namespace

int main() {
    const bool tiny = tiny_mode();
    const std::size_t kIters = tiny ? 2000 : 2000000;

    serve::engine_config config;
    config.parallelism = 1;
    config.limits.max_line_bytes = 256;
    serve::engine engine{config};

    // --- line_too_large: pre-parse byte bound, against the served
    // baseline (the cheapest real request, fully warm) ------------------
    // The two shapes alternate over kRounds rounds and the gate takes
    // the ratio of their medians: single timings taken at different
    // moments of a shared host move the ratio by 2x on their own.
    constexpr int kRounds = 9;
    const std::string long_line = "{\"op\":\"scenario1\",\"note\":\"" +
                                  std::string(512, 'x') + "\"}";
    const std::string line = "{\"op\":\"scenario1\"}";
    std::string out;
    measured line_reject;
    measured served;
    std::vector<double> reject_ns;
    std::vector<double> served_ns;
    for (int round = 0; round < kRounds; ++round) {
        const measured r = measure(kIters / kRounds, out, [&](std::string& o) {
            engine.handle_line_into(long_line, o);
        });
        const measured w = measure(kIters / kRounds, out, [&](std::string& o) {
            engine.handle_line_into(line, o);
        });
        reject_ns.push_back(r.ns_per_op);
        served_ns.push_back(w.ns_per_op);
        line_reject.allocs_last =
            std::max(line_reject.allocs_last, r.allocs_last);
        served.allocs_last = std::max(served.allocs_last, w.allocs_last);
    }
    line_reject.ns_per_op = median(reject_ns);
    served.ns_per_op = median(served_ns);

    // --- overloaded: admission refusal ---------------------------------
    // A lone request is always admitted (budgets shed load, they do not
    // ban inputs), so a single-threaded loop cannot drive the engine's
    // refusal branch.  Hold the ledger with a raw controller admission
    // and measure the refusal + envelope against it.
    serve::admission_controller controller;
    const auto held = controller.admit(1024, 1024);
    const measured overload_reject =
        measure(kIters, out, [&](std::string& o) {
            const auto refused = controller.admit(line.size(), 1024);
            if (refused) {
                std::abort();  // the bench premise broke
            }
            o.clear();
            serve::append_overloaded({}, o);
        });

    // --- batch_too_large ----------------------------------------------
    serve::engine_config batch_config;
    batch_config.parallelism = 1;
    batch_config.limits.max_batch_lines = 4;
    serve::engine batch_engine{batch_config};
    const std::vector<std::string> big_batch(16, line);
    const std::size_t batch_iters = tiny ? 200 : 20000;
    const auto batch_start = clock_type::now();
    for (std::size_t i = 0; i < batch_iters; ++i) {
        (void)batch_engine.handle_batch(big_batch);
    }
    const double batch_reject_ns = seconds_since(batch_start) * 1e9 /
                                   static_cast<double>(batch_iters *
                                                       big_batch.size());

    const double reject_vs_served = served.ns_per_op / line_reject.ns_per_op;

    std::printf("bench_overload (%zu rejects per shape)\n", kIters);
    std::printf("  %-26s %10.1f ns  %3llu allocs/op\n", "line_too_large",
                line_reject.ns_per_op,
                static_cast<unsigned long long>(line_reject.allocs_last));
    std::printf("  %-26s %10.1f ns  %3llu allocs/op\n", "overloaded reject",
                overload_reject.ns_per_op,
                static_cast<unsigned long long>(
                    overload_reject.allocs_last));
    std::printf("  %-26s %10.1f ns\n", "batch_too_large (per line)",
                batch_reject_ns);
    std::printf("  %-26s %10.1f ns  %3llu allocs/op\n", "served warm hit",
                served.ns_per_op,
                static_cast<unsigned long long>(served.allocs_last));
    std::printf("  reject is %.1fx cheaper than a warm serve "
                "(medians of %d alternating rounds)\n",
                reject_vs_served, kRounds);

    // --- Machine-readable results --------------------------------------
    json::object rejections;
    rejections.set("line_too_large_ns", json::value{line_reject.ns_per_op});
    rejections.set("overloaded_ns",
                   json::value{overload_reject.ns_per_op});
    rejections.set("batch_too_large_ns", json::value{batch_reject_ns});
    rejections.set("served_warm_ns", json::value{served.ns_per_op});
    rejections.set(
        "allocs_per_line_reject",
        json::value{static_cast<double>(line_reject.allocs_last)});
    rejections.set(
        "allocs_per_overload_reject",
        json::value{static_cast<double>(overload_reject.allocs_last)});
    rejections.set("reject_speedup_vs_served",
                   json::value{reject_vs_served});
    rejections.set("required_speedup", json::value{5.0});
    rejections.set("rounds", json::value{static_cast<double>(kRounds)});

    // The allocation gate is deterministic, so it holds in tiny mode
    // too; only the timing ratio is skipped there.
    bool gate_pass = line_reject.allocs_last == 0 &&
                     overload_reject.allocs_last == 0;
    if (!tiny) {
        gate_pass = gate_pass && reject_vs_served >= 5.0;
    }

    json::object doc;
    doc.set("bench", json::value{std::string{"bench_overload"}});
    doc.set("tiny", json::value{tiny});
    doc.set("rejections", json::value{std::move(rejections)});
    json::object gate;
    gate.set("skipped", json::value{tiny});
    gate.set("pass", json::value{gate_pass});
    doc.set("gate", json::value{std::move(gate)});

    const std::string path = "BENCH_overload.json";
    std::ofstream file{path, std::ios::binary | std::ios::trunc};
    file << json::dump(json::value{std::move(doc)}) << "\n";
    file.close();
    std::printf("wrote %s\n", path.c_str());

    if (!gate_pass) {
        std::printf("FAIL: rejection gate (allocs %llu/%llu, ratio %.1fx)\n",
                    static_cast<unsigned long long>(line_reject.allocs_last),
                    static_cast<unsigned long long>(
                        overload_reject.allocs_last),
                    reject_vs_served);
        return 1;
    }
    if (tiny) {
        std::printf("OK: tiny mode, timing gate skipped\n");
    } else {
        std::printf("OK\n");
    }
    return 0;
}
