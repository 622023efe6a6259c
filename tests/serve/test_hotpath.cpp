// test_hotpath.cpp — the zero-allocation gate and the equivalence fuzz
// for the engine's line pipeline (DESIGN.md §10).
//
// This file lives in its own test binary (test_serve_hotpath) because
// it replaces the global allocation functions with counting versions:
// the contract "a warm cache hit performs zero heap allocations" is
// enforced by literally counting operator-new calls around
// `engine::handle_line_into`.
//
// The other half is differential testing against the legacy DOM
// pipeline, which the engine no longer serves with but which stays as
// the reference: `json::parse` + `parse_request` + `engine::evaluate`
// on a cache-off engine (`reference_reply` below).  The allocation-free
// parser (json_arena.hpp) and request canonicalizer (request_fast.hpp)
// must agree with it on every corpus line — byte-identical documents,
// canonical keys, error codes/messages and response lines.

#include "exec/arena.hpp"
#include "exec/thread_pool.hpp"
#include "grid_reference.hpp"
#include "obs/metrics.hpp"
#include "serve/conn.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/json_arena.hpp"
#include "serve/request.hpp"
#include "serve/request_fast.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation bumps a thread-local
// counter, and a process-wide one for work that spans pool threads.
// Deallocation is deliberately not counted (returning memory is allowed
// on the hot path; taking it is not).
// ---------------------------------------------------------------------------

namespace {

thread_local std::uint64_t t_allocations = 0;
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
    ++t_allocations;
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
        return p;
    }
    throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::size_t alignment) {
    ++t_allocations;
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*)
                                                     : alignment,
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
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    ++t_allocations;
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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
void operator delete(void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace {

using namespace silicon;

// ---------------------------------------------------------------------------
// Shared corpus: one entry per endpoint shape plus schema errors,
// shuffled key orders, string/object/array ids, unicode and numeric
// edge values.  Everything here must behave identically on the fast
// and legacy pipelines.
// ---------------------------------------------------------------------------

std::vector<std::string> corpus() {
    return {
        // Every endpoint with defaults and with explicit parameters.
        R"({"op":"scenario1"})",
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"lambda_um":0.35,"op":"scenario1","c0_usd":800,"x":1.4})",
        R"({"op":"scenario1","id":17,"wafer_radius_cm":10,"design_density":42.5})",
        R"({"op":"scenario2"})",
        R"({"op":"scenario2","id":"s2","y0":0.9,"lambda_um":0.8})",
        R"({"op":"yield"})",
        R"({"op":"yield","model":"poisson","expected_faults":0.5})",
        R"({"op":"yield","model":"poisson","die_area_cm2":2.5,"defects_per_cm2":0.4})",
        R"({"op":"yield","model":"murphy","expected_faults":1.25})",
        R"({"op":"yield","model":"seeds","die_area_cm2":1.2})",
        R"({"op":"yield","model":"bose_einstein","critical_steps":12})",
        R"({"op":"yield","model":"neg_binomial","alpha":2.5,"expected_faults":3})",
        R"({"op":"yield","model":"scaled_poisson","d":1.72,"p":4.07,"lambda_um":0.8})",
        R"({"op":"yield","model":"reference","y0":0.7,"a0_cm2":1.0,"die_area_cm2":1.9})",
        R"({"op":"cost_tr"})",
        R"({"op":"cost_tr","product":{"name":"dram","transistors":4.2e6},)"
        R"("process":{"c0_usd":900,"x":1.3,"yield":{"model":"fixed","fixed":0.8}}})",
        R"({"op":"cost_tr","process":{"gross_die_method":"area_ratio"},)"
        R"("economics":{"overhead_usd":1e6,"volume_wafers":1e4}})",
        R"({"op":"gross_die"})",
        R"({"op":"gross_die","die_width_mm":12,"die_height_mm":9,)"
        R"("method":"ferris_prabhu","scribe_mm":0.1})",
        R"({"op":"table3"})",
        R"({"op":"table3","row":5})",
        R"({"op":"mc_yield","dies":64,"seed":7})",
        R"({"op":"chiplet"})",
        R"({"op":"chiplet","chiplets":4,"substrate":"interposer",)"
        R"("d2d_area_mm2":8,"bond_yield":0.995})",
        R"({"chiplets":2,"op":"chiplet","logic_area_mm2":200,)"
        R"("test_coverage":0.9,"id":"kgd"})",
        R"({"op":"partition_explore"})",
        R"({"op":"partition_explore","splits":"1,2,4,8","count":9,)"
        R"("scale":"log","area_from_mm2":30,"area_to_mm2":1500})",
        R"({"op":"stats"})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":4,"target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"y0","from":0.2,"to":0.9,"count":3,)"
        R"("scale":"log","target":{"op":"scenario2"}})",
        R"({"op":"sweep","param":"process.c0_usd","from":100,"to":1000,)"
        R"("count":3,"target":{"op":"cost_tr"}})",
        // trace_id: echoed on success and error envelopes, rejected
        // when non-string, banned inside sweep targets — all of which
        // must behave identically on both pipelines.
        R"({"op":"scenario1","trace_id":"t-1"})",
        R"({"trace_id":"req-é☃","op":"yield","model":"murphy"})",
        R"({"id":3,"trace_id":"say \"hi\"","op":"table3","row":1})",
        R"({"op":"scenario1","trace_id":42})",
        R"({"op":"scenario1","trace_id":null})",
        R"({"op":"nope","trace_id":"t-err"})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":3,"target":{"op":"scenario1","trace_id":"x"}})",
        // ids of every JSON kind; keys out of order.
        R"({"id":null,"op":"scenario1"})",
        R"({"id":true,"op":"scenario1"})",
        R"({"id":-12.75,"op":"scenario1"})",
        R"({"id":"req-é☃","op":"scenario1"})",
        R"({"id":[1,"two",{"three":3}],"op":"scenario1"})",
        R"({"id":{"trace":"abc","span":9},"op":"scenario1"})",
        // ...and echoed on error replies too, with the trace_id.
        R"({"id":null,"op":"nope","trace_id":"e-1"})",
        R"({"id":false,"op":"scenario1","bogus":1})",
        R"({"id":-0.5,"op":"table3","row":99,"trace_id":"e-2"})",
        R"({"id":"err","op":"scenario1","lambda_um":0,"trace_id":"e-3"})",
        R"({"id":[{"a":[]}],"op":"gross_die","die_width_mm":1000})",
        R"({"id":{"k":"v"},"op":42,"trace_id":"e-4"})",
        R"({"id":7,"trace_id":["not","a","string"],"op":"nope"})",
        // Deadlines: envelope-level, and a zero budget always expires.
        R"({"op":"scenario1","deadline_ms":60000})",
        R"({"id":"d0","op":"scenario1","deadline_ms":0,"trace_id":"dl"})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("deadline_ms":0,"target":{"op":"scenario1"}})",
        R"({"op":"scenario1","deadline_ms":-1})",
        // Numeric edge values.
        R"({"op":"scenario1","lambda_um":1e-300})",
        R"({"op":"scenario1","lambda_um":5e-324})",
        R"({"op":"scenario1","c0_usd":1.7976931348623157e308})",
        R"({"op":"yield","expected_faults":-0.0})",
        // Schema errors (messages must match byte for byte).
        R"({"op":"nope"})",
        R"({"op":42})",
        R"({})",
        R"(17)",
        R"([1,2,3])",
        R"({"op":"scenario1","lambda_um":"half"})",
        R"({"op":"scenario1","bogus":1})",
        R"({"op":"yield","model":"voodoo"})",
        R"({"op":"gross_die","method":"voodoo"})",
        R"({"op":"table3","row":99})",
        R"({"op":"table3","row":2.5})",
        R"({"op":"mc_yield","dies":0})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,"count":0,)"
        R"("target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"nope","target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","scale":"cubic",)"
        R"("target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","target":{"op":"scenario1",)"
        R"("lambda_um":"x"}})",
        // Sweeps as sweep targets: the innermost error wins, and a
        // nested sweep that parses is rejected by its parent.
        R"({"op":"sweep","param":"from","target":{"op":"sweep",)"
        R"("param":"lambda_um","target":{"op":"nope"}}})",
        R"({"op":"sweep","param":"from","target":{"op":"sweep",)"
        R"("param":"lambda_um","target":{"op":"scenario1","bogus":1}}})",
        R"({"op":"sweep","param":"from","target":{"op":"sweep",)"
        R"("param":"nope","target":{"op":"scenario1"}}})",
        R"({"op":"sweep","param":"from","target":{"op":"sweep",)"
        R"("param":"lambda_um","from":0.5,"to":1.0,)"
        R"("target":{"op":"scenario1"}}})",
        R"({"id":"deep","op":"sweep","param":"from","target":{"op":"sweep",)"
        R"("param":"from","target":{"op":"sweep","param":"lambda_um",)"
        R"("from":0.5,"to":1.0,"target":{"op":"scenario2"}}}})",
        R"({"op":"sweep","param":"from","target":{"op":"sweep",)"
        R"("param":"lambda_um","count":0,"target":{"op":"scenario1"}}})",
        R"({"op":"sweep","param":"from","target":{"op":"sweep",)"
        R"("param":"lambda_um","target":{"op":"scenario1"},"extra":1}})",
        R"({"op":"chiplet","chiplets":0})",
        R"({"op":"chiplet","chiplets":2.5})",
        R"({"op":"chiplet","substrate":"glass"})",
        R"({"op":"chiplet","bogus":1})",
        R"({"op":"partition_explore","splits":"4,2,1"})",
        R"({"op":"partition_explore","splits":"2,4"})",
        R"({"op":"partition_explore","splits":"1,02"})",
        R"({"op":"partition_explore","splits":"1,17"})",
        R"({"op":"partition_explore","count":0})",
        R"({"op":"partition_explore","scale":"cubic"})",
        R"({"op":"partition_explore","area_from_mm2":-5})",
        // Parse errors.
        R"({"op":"scenario1")",
        R"({"op":"scenario1",})",
        R"({"op":"scenario1","lambda_um":01})",
        R"({"op" "scenario1"})",
        R"({"op":"scenario1"} trailing)",
        R"({"a":1,"a":2,"op":"scenario1"})",
        "",
        "   ",
        // Evaluation errors (parse fine, evaluate throws).
        R"({"op":"scenario1","lambda_um":0})",
        R"({"op":"scenario2","y0":0})",
        R"({"op":"gross_die","die_width_mm":1000})",
        R"({"op":"cost_tr","process":{"wafer_radius_cm":0}})",
        R"({"op":"chiplet","logic_area_mm2":90000})",
        R"({"op":"chiplet","clustering_alpha":-1})",
    };
}

/// Deterministic pseudo-random request lines: scenario1/yield with
/// randomized values (including negatives and huge magnitudes) and
/// randomized key presence.
std::vector<std::string> fuzz_corpus(std::size_t count) {
    std::mt19937_64 rng{0x5eedu};
    std::uniform_real_distribution<double> uni{-2.0, 2.0};
    std::vector<std::string> lines;
    lines.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double magnitude =
            std::pow(10.0, static_cast<double>(rng() % 13) - 6.0);
        std::string line = "{\"op\":";
        if (rng() % 2 == 0) {
            line += "\"scenario1\"";
            if (rng() % 2 == 0) {
                line += ",\"lambda_um\":" +
                        serve::json::format_number(uni(rng) * magnitude);
            }
            if (rng() % 2 == 0) {
                line += ",\"c0_usd\":" +
                        serve::json::format_number(uni(rng) * magnitude);
            }
            if (rng() % 3 == 0) {
                line += ",\"x\":" + serve::json::format_number(
                                        1.0 + uni(rng) * 0.5);
            }
        } else {
            line += "\"yield\"";
            const char* models[] = {"poisson",        "murphy",
                                    "seeds",          "bose_einstein",
                                    "neg_binomial",   "scaled_poisson",
                                    "reference"};
            line += ",\"model\":\"";
            line += models[rng() % 7];
            line += "\"";
            if (rng() % 2 == 0) {
                line += ",\"expected_faults\":" +
                        serve::json::format_number(uni(rng) * magnitude);
            }
            if (rng() % 2 == 0) {
                line += ",\"die_area_cm2\":" +
                        serve::json::format_number(uni(rng) * magnitude);
            }
        }
        if (rng() % 3 == 0) {
            line += ",\"id\":" + std::to_string(rng() % 100000);
        }
        line += "}";
        lines.push_back(std::move(line));
    }
    return lines;
}

serve::engine_config fast_config() {
    serve::engine_config config;
    config.parallelism = 1;
    return config;
}

/// The engine every reference reply evaluates on: serial, cache off.
serve::engine_config reference_config() {
    serve::engine_config config;
    config.parallelism = 1;
    config.cache_capacity = 0;
    return config;
}

/// The reply the legacy DOM pipeline gives `line`: json::parse, then
/// parse_request, then engine::evaluate on `reference` — in the
/// engine's envelope, with the `id` echoed whatever its JSON type, the
/// `trace_id` echoed when it is a string, and the error code from the
/// engine's taxonomy with the exception's message.
std::string reference_reply(serve::engine& reference,
                            const std::string& line) {
    namespace json = serve::json;
    json::value doc;
    const json::value* id = nullptr;
    const json::value* trace = nullptr;
    std::string result;
    std::string code;
    std::string message;
    try {
        doc = json::parse(line);
        if (doc.is_object()) {
            id = doc.as_object().find("id");
            trace = doc.as_object().find("trace_id");
            if (trace != nullptr && !trace->is_string()) {
                trace = nullptr;
            }
        }
        const serve::request req = serve::parse_request(doc);
        if (req.has_deadline && req.deadline_ms == 0) {
            throw exec::cancelled_error{};
        }
        result = json::dump(reference.evaluate(req));
    } catch (const json::parse_error& e) {
        code = "parse_error";
        message = e.what();
    } catch (const serve::request_error& e) {
        code = e.code();
        message = e.what();
    } catch (const exec::cancelled_error& e) {
        code = "deadline_exceeded";
        message = e.what();
    } catch (const std::domain_error& e) {
        code = "domain_error";
        message = e.what();
    } catch (const std::invalid_argument& e) {
        code = "bad_param";
        message = e.what();
    } catch (const std::exception& e) {
        code = "internal_error";
        message = e.what();
    }
    std::string reply = "{";
    if (id != nullptr) {
        reply += "\"id\":" + json::dump(*id) + ",";
    }
    if (trace != nullptr) {
        reply += "\"trace_id\":" + json::dump(*trace) + ",";
    }
    if (code.empty()) {
        return reply + "\"ok\":true,\"result\":" + result + "}";
    }
    json::object error;
    error.set("code", code);
    error.set("message", message);
    return reply + "\"ok\":false,\"error\":" +
           json::dump(json::value{std::move(error)}) + "}";
}

/// What an ok sweep or partition_explore reply must equal: the reply
/// with every lane rebuilt from its point request on `reference`
/// (grid_reference.hpp).  Any other reply is returned as is.
std::string grid_expected(serve::engine& reference, const std::string& line,
                          const std::string& reply) {
    if (reply.find(R"("ok":true)") == std::string::npos) {
        return reply;
    }
    const std::string op =
        serve::json::parse(line).as_object().find("op")->as_string();
    if (op == "sweep") {
        return serve::grid_reference::sweep_reference(reference, line,
                                                      reply);
    }
    if (op == "partition_explore") {
        return serve::grid_reference::explore_reference(reference, line,
                                                        reply);
    }
    return reply;
}

// ---------------------------------------------------------------------------
// The zero-allocation gate.
// ---------------------------------------------------------------------------

class HotPathAllocations : public ::testing::Test {
protected:
    /// Warm a request line until the hot path is primed (evaluation
    /// cached, arena chunks and buffers grown), then count allocations
    /// across several further warm hits.
    static std::uint64_t warm_hit_allocations(serve::engine& engine,
                                              const std::string& line,
                                              std::string& out) {
        for (int i = 0; i < 3; ++i) {
            engine.handle_line_into(line, out);
        }
        const std::uint64_t before = t_allocations;
        for (int i = 0; i < 5; ++i) {
            engine.handle_line_into(line, out);
        }
        return t_allocations - before;
    }
};

TEST_F(HotPathAllocations, WarmScenario1HitAllocatesNothing) {
    serve::engine engine{fast_config()};
    const std::string line = R"({"id":7,"op":"scenario1","lambda_um":0.5})";
    std::string out;
    engine.handle_line_into(line, out);
    const std::string expected = out;
    EXPECT_EQ(warm_hit_allocations(engine, line, out), 0u);
    EXPECT_EQ(out, expected);
    EXPECT_GT(engine.arena_bytes(), 0u);
}

TEST_F(HotPathAllocations, WarmHitWithTraceIdAllocatesNothing) {
    // The observability tentpole's gate: echoing a client trace_id —
    // envelope splice, flight-recorder append, tail-exemplar note —
    // must not cost the warm path a single allocation.  The warm-up
    // passes inside warm_hit_allocations also pre-register this
    // thread's flight ring, so only steady-state work is counted.
    serve::engine engine{fast_config()};
    const std::string line =
        R"({"id":7,"op":"scenario1","lambda_um":0.5,)"
        R"("trace_id":"req-abc-123-def-456"})";
    std::string out;
    engine.handle_line_into(line, out);
    const std::string expected = out;
    EXPECT_EQ(warm_hit_allocations(engine, line, out), 0u);
    EXPECT_EQ(out, expected);
    EXPECT_NE(out.find("\"trace_id\":\"req-abc-123-def-456\""),
              std::string::npos);
    // And a line without one still answers with the legacy bytes.
    const std::string bare = R"({"id":7,"op":"scenario1","lambda_um":0.5})";
    EXPECT_EQ(warm_hit_allocations(engine, bare, out), 0u);
    EXPECT_EQ(out.find("trace_id"), std::string::npos);
}

TEST_F(HotPathAllocations, WarmHitsAcrossEndpointsAllocateNothing) {
    serve::engine engine{fast_config()};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","id":"abc","y0":0.9})",
        R"({"op":"yield","model":"murphy","expected_faults":1.5})",
        R"({"op":"yield","model":"reference","y0":0.7,"die_area_cm2":2})",
        R"({"op":"cost_tr","product":{"transistors":1e6},)"
        R"("process":{"c0_usd":900}})",
        R"({"op":"gross_die","die_width_mm":12,"die_height_mm":9})",
        R"({"id":[1,2],"op":"table3","row":3})",
        R"({"op":"mc_yield","dies":32,"seed":3})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":3,"target":{"op":"scenario1"}})",
        // The acceptance gate for the chiplet endpoint: a warm point
        // query allocates nothing (all strings in the payload are SSO).
        R"({"id":9,"op":"chiplet","chiplets":4,"substrate":"rdl",)"
        R"("d2d_area_mm2":8})",
        R"({"op":"partition_explore","splits":"1,2,4","count":5})",
    };
    std::string out;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        serve::engine* e = &engine;
        EXPECT_EQ(warm_hit_allocations(*e, line, out), 0u);
    }
}

TEST_F(HotPathAllocations, ColdMissWithCacheDisabledAllocatesNothing) {
    // The cold-path arena gate: with the memoization cache disabled,
    // *every* request is a cold miss, and every op's one result path
    // evaluates the library and writes into a reused per-thread buffer.
    // For the closed-form point endpoints below (chiplet, cost_tr and
    // the exact gross-die search included), for table3 (the table is
    // computed once per process) and for mc_yield (its shard partials
    // sit in a fixed array) that is zero allocations once buffers have
    // grown (warm-up is inside warm_hit_allocations).
    // The cache put is skipped entirely at capacity 0, so no copy of the
    // response is taken either.
    serve::engine_config config = fast_config();
    config.cache_capacity = 0;
    serve::engine engine{config};
    const std::vector<std::string> lines = {
        R"({"id":7,"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","y0":0.9,"lambda_um":0.8})",
        R"({"op":"yield","model":"poisson","expected_faults":0.5})",
        R"({"op":"yield","model":"murphy","die_area_cm2":2.5,)"
        R"("defects_per_cm2":0.4})",
        R"({"op":"yield","model":"seeds","die_area_cm2":1.2})",
        R"({"op":"yield","model":"bose_einstein","critical_steps":12})",
        R"({"op":"yield","model":"neg_binomial","alpha":2.5,)"
        R"("expected_faults":3})",
        R"({"op":"yield","model":"scaled_poisson","lambda_um":0.8})",
        R"({"op":"yield","model":"reference","y0":0.7,"die_area_cm2":2})",
        R"({"op":"gross_die","die_width_mm":12,"die_height_mm":9})",
        R"({"op":"gross_die","die_width_mm":7,"die_height_mm":7,)"
        R"("method":"ferris_prabhu","scribe_mm":0.1})",
        R"({"op":"gross_die","die_width_mm":12,"die_height_mm":12,)"
        R"("method":"exact","scribe_mm":0.1})",
        R"({"id":"t","op":"scenario1","trace_id":"req-cold-1"})",
        R"({"op":"chiplet","chiplets":4,"substrate":"rdl"})",
        R"({"op":"chiplet","substrate":"interposer","d2d_area_mm2":8})",
        R"({"op":"cost_tr","product":{"transistors":1e6}})",
        R"({"op":"cost_tr","process":{"yield":{"model":"scaled"}}})",
        R"({"op":"cost_tr","process":{"gross_die_method":"ferris_prabhu",)"
        R"("yield":{"model":"fixed","fixed":0.9}},)"
        R"("economics":{"overhead_usd":2e6,"volume_wafers":500}})",
        R"({"op":"cost_tr","process":{"gross_die_method":"exact",)"
        R"("yield":{"model":"fixed","fixed":0.9}}})",
        R"({"op":"mc_yield","dies":64,"seed":7})",
        R"({"op":"table3","row":3})",
        R"({"id":4,"op":"table3"})",
    };
    std::string out;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        EXPECT_EQ(warm_hit_allocations(engine, line, out), 0u);
    }
    // Cache accounting: every one of those was a miss, never a hit.
    EXPECT_EQ(engine.cache_stats().hits, 0u);
    EXPECT_GT(engine.cache_stats().misses, 0u);
    EXPECT_EQ(engine.cache_stats().entries, 0u);

    // And the bytes are exactly the legacy pipeline's.
    serve::engine reference{reference_config()};
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        engine.handle_line_into(line, out);
        EXPECT_EQ(out, reference_reply(reference, line));
    }
}

/// Point requests of every op in the zero-allocation miss set, with `@`
/// standing for a number: each distinct number is a distinct canonical
/// key, so every line built from a template is a cold miss.
struct point_template {
    const char* text;
    double base;
};

const std::vector<point_template>& cold_point_templates() {
    static const std::vector<point_template> templates = {
        {R"({"id":7,"op":"scenario1","lambda_um":@})", 0.5},
        {R"({"op":"scenario2","y0":0.9,"lambda_um":@})", 0.8},
        {R"({"op":"yield","model":"poisson","expected_faults":@})", 0.5},
        {R"({"op":"yield","model":"murphy","die_area_cm2":@,)"
         R"("defects_per_cm2":0.4})",
         2.5},
        {R"({"op":"yield","model":"seeds","die_area_cm2":@})", 1.2},
        {R"({"op":"yield","model":"bose_einstein","critical_steps":12,)"
         R"("die_area_cm2":@})",
         1.0},
        {R"({"op":"yield","model":"neg_binomial","alpha":2.5,)"
         R"("expected_faults":@})",
         3.0},
        {R"({"op":"yield","model":"scaled_poisson","lambda_um":@})", 0.8},
        {R"({"op":"yield","model":"reference","y0":0.7,"die_area_cm2":@})",
         2.0},
        {R"({"op":"gross_die","die_width_mm":@,"die_height_mm":9})", 12.0},
        {R"({"op":"gross_die","die_width_mm":@,"die_height_mm":7,)"
         R"("method":"ferris_prabhu","scribe_mm":0.1})",
         7.0},
        {R"({"op":"gross_die","die_width_mm":@,"die_height_mm":12,)"
         R"("method":"exact","scribe_mm":0.1})",
         12.0},
        {R"({"id":"t","op":"scenario1","trace_id":"req-cold-1",)"
         R"("lambda_um":@})",
         0.6},
        {R"({"op":"chiplet","chiplets":4,"substrate":"rdl",)"
         R"("d2d_area_mm2":@})",
         8.0},
        {R"({"op":"chiplet","substrate":"interposer","d2d_area_mm2":@})",
         8.0},
        {R"({"op":"cost_tr","product":{"transistors":@}})", 1e6},
        {R"({"op":"cost_tr","process":{"yield":{"model":"scaled"}},)"
         R"("product":{"transistors":@}})",
         1e6},
        {R"({"op":"cost_tr","process":{"gross_die_method":"ferris_prabhu",)"
         R"("yield":{"model":"fixed","fixed":0.9}},)"
         R"("economics":{"overhead_usd":2e6,"volume_wafers":@}})",
         500.0},
        {R"({"op":"cost_tr","process":{"gross_die_method":"exact",)"
         R"("yield":{"model":"fixed","fixed":0.9}},)"
         R"("product":{"transistors":@}})",
         1e6},
    };
    return templates;
}

/// Template `t` with its number moved by step `k`.
std::string cold_point_line(const point_template& t, std::size_t k) {
    std::string line = t.text;
    line.replace(line.find('@'), 1,
                 serve::json::format_number(
                     t.base * (1.0 + 1e-4 * static_cast<double>(k))));
    return line;
}

TEST_F(HotPathAllocations, ColdMissIntoFullCacheAllocatesNothing) {
    // The slab cache's gate: once the cache is full, a cold miss of any
    // op in the zero-allocation set allocates nothing at all — the
    // evaluation writes into reused buffers, and the put evicts the
    // shard's LRU entry and stores into the block that eviction freed
    // (or a spare of the shard's free lists).
    serve::engine_config config = fast_config();
    config.cache_capacity = 256;
    config.cache_shards = 4;
    serve::engine engine{config};
    const std::vector<point_template>& templates = cold_point_templates();
    std::string out;
    std::size_t step = 0;
    // Fill four times past capacity with every template in turn.
    for (std::size_t i = 0; i < 4 * config.cache_capacity; ++i) {
        engine.handle_line_into(
            cold_point_line(templates[i % templates.size()], ++step), out);
    }
    ASSERT_EQ(engine.cache_stats().entries, config.cache_capacity);
    for (const point_template& t : templates) {
        SCOPED_TRACE(t.text);
        for (int i = 0; i < 3; ++i) {  // grow this op's buffers
            engine.handle_line_into(cold_point_line(t, ++step), out);
        }
        std::vector<std::string> lines;
        for (int i = 0; i < 5; ++i) {
            lines.push_back(cold_point_line(t, ++step));
        }
        const serve::memo_cache::stats before = engine.cache_stats();
        const std::uint64_t allocations = t_allocations;
        for (const std::string& line : lines) {
            engine.handle_line_into(line, out);
        }
        EXPECT_EQ(t_allocations - allocations, 0u);
        EXPECT_NE(out.find(R"("ok":true)"), std::string::npos) << out;
        const serve::memo_cache::stats after = engine.cache_stats();
        EXPECT_EQ(after.misses, before.misses + lines.size());
        EXPECT_EQ(after.evictions, before.evictions + lines.size());
        EXPECT_EQ(after.entries, config.cache_capacity);
    }
}

TEST_F(HotPathAllocations, FreshSweepIntoFullCacheAllocatesPerGridNotPerLane) {
    // The lane feed allocates nothing per lane: the key template is cut
    // once per grid, keys go into the thread's reused lane scratch, each
    // put into a full cache reuses the block its eviction freed.  So,
    // once buffers have grown, a fresh 256-lane grid (256 keyed, probed,
    // evaluated and cached lanes, 256 evictions) allocates exactly as
    // much as a fresh 16-lane one: only per-grid storage.  Checked for a
    // scenario2 sweep, a yield-model sweep and a 4-split explore.
    struct grid_kind {
        const char* name;
        /// A fresh grid of `count` lanes (an explore: count / 4 areas at
        /// four splits).
        std::function<std::string(int count, double shift)> line;
    };
    const auto num = [](double x) { return serve::json::format_number(x); };
    const std::vector<grid_kind> kinds = {
        {"scenario2 sweep",
         [&](int count, double shift) {
             return R"({"op":"sweep","param":"lambda_um","from":)" +
                    num(0.4 * shift) + R"(,"to":)" + num(1.4 * shift) +
                    R"(,"count":)" + std::to_string(count) +
                    R"(,"target":{"op":"scenario2","y0":0.8}})";
         }},
        {"neg_binomial sweep",
         [&](int count, double shift) {
             return R"({"op":"sweep","param":"die_area_cm2","from":)" +
                    num(0.1 * shift) + R"(,"to":)" + num(2.0 * shift) +
                    R"(,"count":)" + std::to_string(count) +
                    R"(,"target":{"op":"yield","model":"neg_binomial",)"
                    R"("defects_per_cm2":0.7,"alpha":1.5}})";
         }},
        {"explore",
         [&](int count, double shift) {
             return R"({"op":"partition_explore","splits":"1,2,4,8",)"
                    R"("area_from_mm2":)" +
                    num(100.0 * shift) + R"(,"area_to_mm2":)" +
                    num(900.0 * shift) + R"(,"count":)" +
                    std::to_string(count / 4) + "}";
         }},
    };
    for (const grid_kind& kind : kinds) {
        SCOPED_TRACE(kind.name);
        serve::engine_config config = fast_config();
        config.cache_capacity = 2048;
        serve::engine engine{config};
        std::string out;
        std::size_t step = 0;
        const auto grid = [&](int count) {
            return kind.line(count,
                             1.0 + 1e-6 * static_cast<double>(++step));
        };
        for (int i = 0; i < 24; ++i) {  // fill three times past capacity
            engine.handle_line_into(grid(256), out);
        }
        ASSERT_EQ(engine.cache_stats().entries, config.cache_capacity);
        for (int i = 0; i < 3; ++i) {  // grow every buffer for both sizes
            engine.handle_line_into(grid(256), out);
            engine.handle_line_into(grid(16), out);
        }
        const auto allocations_of = [&](int count) {
            const std::string line = grid(count);
            const serve::memo_cache::stats before = engine.cache_stats();
            const std::uint64_t start = t_allocations;
            engine.handle_line_into(line, out);
            const std::uint64_t taken = t_allocations - start;
            const serve::memo_cache::stats after = engine.cache_stats();
            // Every lane and the grid itself were cached, each evicting.
            EXPECT_EQ(after.evictions,
                      before.evictions + static_cast<std::uint64_t>(count) + 1);
            EXPECT_EQ(after.hits, before.hits);
            return taken;
        };
        // A grid's own storage can take one allocation more on one
        // repeat than the next (20 or 21 for either size on the same
        // sequence before key templates), so compare the fewest over
        // four repeats of each size: an allocation per lane would add
        // 240 to every 256-lane repeat.
        std::uint64_t small = UINT64_MAX;
        std::uint64_t large = UINT64_MAX;
        for (int r = 0; r < 4; ++r) {
            small = std::min(small, allocations_of(16));
            large = std::min(large, allocations_of(256));
        }
        EXPECT_EQ(large, small);
    }
}

TEST_F(HotPathAllocations, FannedOutParallelForAllocatesNothing) {
    // Pool-owned job slots and a one-reference shard closure (so the
    // pool task's std::function stays in its small buffer): a
    // parallel_for that fans out at parallelism 4, top-level or nested
    // inside a pool task, and a parallel_reduce, whose partials sit in
    // a fixed array, allocate nothing on any thread once warm.
    struct state {
        std::vector<std::uint64_t> visits = std::vector<std::uint64_t>(
            exec::max_shards * exec::max_shards);
        double reduced = 0.0;
    } st;
    const auto fan_out = [&st] {
        exec::parallel_for(64, 4, [&st](const exec::shard_range& outer) {
            exec::parallel_for(
                640, 4, [&st, &outer](const exec::shard_range& r) {
                    st.visits[outer.index * exec::max_shards + r.index] +=
                        r.size();
                });
        });
        st.reduced += exec::parallel_reduce(
            10000, 4, 0.0,
            [](const exec::shard_range& r) {
                return static_cast<double>(r.size());
            },
            [](double a, double b) { return a + b; });
    };
    for (int i = 0; i < 3; ++i) {
        fan_out();
    }
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < 20; ++i) {
        fan_out();
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
    for (const std::uint64_t v : st.visits) {
        EXPECT_EQ(v, 23u * 10u);
    }
    EXPECT_EQ(st.reduced, 23.0 * 10000.0);
}

TEST_F(HotPathAllocations, ColdMissIneligibleOpsStillAnswerCorrectly) {
    // Ops that allocate while they evaluate (sweeps; the
    // zero-allocation set above covers chiplet, cost_tr, table3 and
    // mc_yield, checked here too) and inputs the library rejects answer
    // through the same result path at cache capacity 0 — allocations
    // are allowed, bytes must match the reference pipeline's.
    serve::engine_config config = fast_config();
    config.cache_capacity = 0;
    serve::engine engine{config};
    serve::engine reference{reference_config()};
    const std::vector<std::string> lines = {
        R"({"op":"table3","row":3})",
        R"({"op":"table3","row":99})",
        R"({"op":"chiplet","chiplets":4,"substrate":"rdl"})",
        R"({"op":"cost_tr","product":{"transistors":1e6}})",
        R"({"op":"mc_yield","dies":32,"seed":3})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,)"
        R"("count":3,"target":{"op":"scenario1"}})",
        R"({"op":"yield","model":"voodoo"})",
        R"({"op":"scenario1","lambda_um":0})",
    };
    std::string out;
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        for (int i = 0; i < 2; ++i) {
            engine.handle_line_into(line, out);
            EXPECT_EQ(out, reference_reply(reference, line));
        }
    }
}

TEST_F(HotPathAllocations, ColdAndLegacyPathsStillWork) {
    // Sanity: the counter itself sees the cold path allocate.
    serve::engine engine{fast_config()};
    std::string out;
    const std::uint64_t before = t_allocations;
    engine.handle_line_into(R"({"op":"scenario1","lambda_um":0.61})", out);
    EXPECT_GT(t_allocations, before);
}

TEST_F(HotPathAllocations, HotPathOffStillAnswersCorrectly) {
    // The cold serve and every warm one give the legacy pipeline's reply.
    serve::engine fast{fast_config()};
    serve::engine reference{reference_config()};
    const std::string line = R"({"id":1,"op":"scenario1","lambda_um":0.5})";
    const std::string expected = reference_reply(reference, line);
    std::string a;
    for (int i = 0; i < 3; ++i) {
        fast.handle_line_into(line, a);
        EXPECT_EQ(a, expected);
    }
}

TEST_F(HotPathAllocations, WarmConnOverSocketpairAllocatesNothing) {
    // The transport half of the gate: request bytes in through a
    // socket, framed by the conn, its pending segment served by
    // handle_batch_into at the default width as the event loop serves a
    // connection alone in its wakeup (a warm batch this small stays
    // inline), and the gathered replies written back — zero allocations
    // per warm line once the connection is warm.
    serve::engine_config config = fast_config();
    config.parallelism = 0;
    serve::engine engine{config};
    serve::conn_shared shared{engine, serve::conn_config{}};
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
    serve::conn c{fds[0], shared};  // owns fds[0]

    const std::vector<std::string> lines = {
        R"({"id":1,"op":"scenario1","lambda_um":0.5})",
        R"({"id":2,"op":"scenario2","y0":0.9})",
        R"({"id":3,"op":"yield","model":"murphy","expected_faults":1.5})",
        R"({"id":"g","op":"gross_die","die_width_mm":12,"die_height_mm":9})",
        R"({"id":5,"op":"table3","row":3,"trace_id":"conn-warm-5"})",
        R"({"id":6,"op":"scenario1","lambda_um":0.5})",  // a twin
        R"({"id":7,"op":"chiplet","chiplets":4,"substrate":"rdl"})",
        R"({"id":8,"op":"cost_tr","product":{"transistors":1e6}})",
    };
    std::string request;
    for (const std::string& line : lines) {
        request += line + "\n";
    }
    std::string expected;
    for (const std::string& r : engine.handle_batch(lines)) {
        expected += r + "\n";
    }
    std::vector<char> reply(expected.size());
    const auto round_trip = [&] {
        ASSERT_EQ(::write(fds[1], request.data(), request.size()),
                  static_cast<ssize_t>(request.size()));
        c.on_readable();
        ASSERT_EQ(c.pending_segment().size(), lines.size());
        c.flush_pending_batch();
        std::size_t got = 0;
        while (got < reply.size()) {
            const ssize_t n =
                ::read(fds[1], reply.data() + got, reply.size() - got);
            ASSERT_GT(n, 0);
            got += static_cast<std::size_t>(n);
        }
        ASSERT_EQ(std::memcmp(reply.data(), expected.data(), reply.size()),
                  0);
    };
    for (int i = 0; i < 3; ++i) {
        round_trip();
    }
    obs::counter& pool_runs = obs::metrics_registry::global().get_counter(
        "silicon_exec_pool_runs_total");
    const std::uint64_t runs_before = pool_runs.value();
    const std::uint64_t before = t_allocations;
    for (int i = 0; i < 5; ++i) {
        round_trip();
    }
    EXPECT_EQ(t_allocations - before, 0u);
    EXPECT_EQ(pool_runs.value(), runs_before);
    EXPECT_FALSE(c.finished());
    ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Differential: arena-view parser vs DOM parser.
// ---------------------------------------------------------------------------

TEST(ArenaParser, MatchesDomParserOnCorpus) {
    exec::arena arena;
    serve::json::arena_parser parser;
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(500);
    lines.insert(lines.end(), extra.begin(), extra.end());

    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        std::string dom_dump;
        std::string dom_error;
        try {
            dom_dump = serve::json::dump(serve::json::parse(line));
        } catch (const serve::json::parse_error& e) {
            dom_error = e.what();
        }

        arena.reset();
        std::string view_dump;
        std::string view_error;
        try {
            const serve::json::aview& doc = parser.parse(line, arena);
            serve::json::dump_into(doc, view_dump);
        } catch (const serve::json::parse_error& e) {
            view_error = e.what();
        }

        EXPECT_EQ(dom_error, view_error);
        EXPECT_EQ(dom_dump, view_dump);
    }
}

// ---------------------------------------------------------------------------
// Differential: fast request parser vs legacy request parser.
// ---------------------------------------------------------------------------

TEST(FastParse, CanonicalKeysAndErrorsMatchLegacy) {
    exec::arena arena;
    serve::json::arena_parser parser;
    serve::fast_parse_state state;
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(1000);
    lines.insert(lines.end(), extra.begin(), extra.end());

    for (const std::string& line : lines) {
        SCOPED_TRACE(line);

        std::string legacy_key;
        std::string legacy_error;
        try {
            const serve::request req =
                serve::parse_request(serve::json::parse(line));
            legacy_key = req.canonical_key;
        } catch (const serve::request_error& e) {
            legacy_error = std::string{e.code()} + ": " + e.what();
        } catch (const serve::json::parse_error&) {
            continue;  // parser equivalence is pinned above
        }

        std::string fast_key;
        std::string fast_error;
        try {
            arena.reset();
            const serve::json::aview& doc = parser.parse(line, arena);
            serve::parse_request_fast(doc, state);
            fast_key = state.req.canonical_key;
        } catch (const serve::request_error& e) {
            fast_error = std::string{e.code()} + ": " + e.what();
        }

        EXPECT_EQ(legacy_error, fast_error);
        EXPECT_EQ(legacy_key, fast_key);
    }
}

// ---------------------------------------------------------------------------
// Differential: whole-engine responses vs the legacy pipeline's.
// ---------------------------------------------------------------------------

TEST(HotPathEquivalence, ResponsesMatchLegacyColdAndWarm) {
    serve::engine reference{reference_config()};
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(300);
    lines.insert(lines.end(), extra.begin(), extra.end());
    std::vector<std::string> expected;
    for (const std::string& line : lines) {
        expected.push_back(reference_reply(reference, line));
    }

    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine_config config = fast_config();
        config.parallelism = parallelism;
        serve::engine engine{config};
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string& line = lines[i];
            SCOPED_TRACE(line);
            if (line.find("\"stats\"") != std::string::npos) {
                continue;  // live snapshot: legitimately differs
            }
            // Cold, then warm (warm exercises the allocation-free splice).
            const std::string cold = engine.handle_line(line);
            EXPECT_EQ(cold, expected[i]) << "parallelism " << parallelism;
            EXPECT_EQ(engine.handle_line(line), expected[i])
                << "parallelism " << parallelism;
            // Grid replies also match the per-point reference lane by lane.
            EXPECT_EQ(grid_expected(reference, line, cold), cold);
        }
    }
}

TEST(HotPathEquivalence, BatchesMatchLegacyAtEveryParallelism) {
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(200);
    lines.insert(lines.end(), extra.begin(), extra.end());
    // Duplicate a slice so intra-batch dedup actually triggers.
    for (std::size_t i = 0; i < 50 && i < lines.size(); ++i) {
        lines.push_back(lines[i]);
    }
    serve::engine reference{reference_config()};
    std::vector<std::string> expected;
    for (const std::string& line : lines) {
        expected.push_back(reference_reply(reference, line));
    }

    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine_config config = fast_config();
        config.parallelism = parallelism;
        serve::engine engine{config};
        // Cold, then the same batch again warm.
        for (int pass = 0; pass < 2; ++pass) {
            const std::vector<std::string> out = engine.handle_batch(lines);
            ASSERT_EQ(out.size(), lines.size());
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (lines[i].find("\"stats\"") != std::string::npos) {
                    continue;
                }
                SCOPED_TRACE(lines[i]);
                EXPECT_EQ(out[i], expected[i])
                    << "line " << i << ", parallelism " << parallelism
                    << ", pass " << pass;
            }
        }
    }
}

}  // namespace
