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
#include <map>
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

// ---------------------------------------------------------------------------
// Generated schema corpus: the request schema written out once more, by
// hand and independently of both parsers, and lines generated from it.
// Every field of every op (nested blocks, sweep targets and the envelope
// included) takes its turn as the line's fault site: omitted, valid, of
// a wrong JSON type, non-integral where an integer is expected, out of
// range, or next to an unknown sibling.  Then every pair of fields of an
// op faults together, and about half the random lines after that carry
// a second fault in another field or block, so a change in which error
// wins shows up.  The other fields are randomly present with valid
// values, in a shuffled member order.
// ---------------------------------------------------------------------------

/// splitmix64: a seeded stream, so each seed is a fresh reproducible
/// corpus.
struct splitmix64 {
    std::uint64_t state;
    std::uint64_t operator()() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>((*this)() % n);
    }
    template <class T>
    const T& pick(const std::vector<T>& from) {
        return from[below(from.size())];
    }
};

enum class schema_type { number, integer, uint53, text, object, any };

/// When a field that is not the line's fault site is present.
enum class presence { random, always, if_faulted };

struct schema_field {
    std::string name;
    schema_type type;
    /// JSON literals the parsers accept; empty means random numbers.
    std::vector<std::string> valid;
    /// Literals of the right JSON type that a range or registry check
    /// rejects.
    std::vector<std::string> bad;
    /// Members of an object field.
    const std::vector<schema_field>* members = nullptr;
    presence when = presence::random;
};

using schema_block = std::vector<schema_field>;

enum class fault { omitted, valid, wrong_type, non_integral, out_of_range,
                   unknown_sibling };

struct schema_site {
    std::string op;
    std::string path;  ///< dotted field path; an object's for unknown_sibling
    fault kind;
};

class schema_corpus_generator {
public:
    schema_corpus_generator() {
        const auto num = [](const char* name) {
            return schema_field{name, schema_type::number, {}, {}};
        };
        const auto text = [](const char* name, std::vector<std::string> ok,
                             std::vector<std::string> bad) {
            return schema_field{name, schema_type::text, std::move(ok),
                                std::move(bad)};
        };
        const auto integer = [](const char* name, std::vector<std::string> ok,
                                std::vector<std::string> bad) {
            return schema_field{name, schema_type::integer, std::move(ok),
                                std::move(bad)};
        };
        yield_spec_ = {text("model", {"\"reference\"", "\"scaled\"",
                                      "\"fixed\""},
                            {"\"voodoo\"", "\"Reference\"", "\"\""}),
                       num("y0"), num("a0_cm2"), num("d"), num("p"),
                       num("fixed")};
        process_ = {num("c0_usd"), num("x"), num("generation_step_um"),
                    num("wafer_radius_cm"), num("edge_exclusion_cm"),
                    text("gross_die_method", methods(), {"\"voodoo\"", "\"\""}),
                    {"yield", schema_type::object, {}, {}, &yield_spec_}};
        product_ = {text("name", {"\"product\"", "\"dram\"", "\"a \\\"b\\\"\"",
                                  "\"\"", "\"\\u00e9\\n\""},
                         {}),
                    num("transistors"), num("design_density"),
                    num("feature_size_um"), num("die_aspect_ratio")};
        economics_ = {num("overhead_usd"), num("volume_wafers")};
        chiplet_base_ = {
            num("logic_area_mm2"), num("memory_area_mm2"), num("io_area_mm2"),
            num("d2d_area_mm2"), num("lambda_um"), num("c0_usd"), num("x"),
            num("generation_step_um"), num("wafer_radius_cm"),
            num("edge_exclusion_cm"), num("defects_per_cm2"),
            num("memory_defect_factor"), num("io_defect_factor"),
            num("clustering_alpha"), num("test_coverage"),
            num("tester_rate_per_hour"), num("test_seconds_fixed"),
            num("test_seconds_per_cm2"),
            text("substrate", {"\"organic\"", "\"rdl\"", "\"interposer\""},
                 {"\"glass\"", "\"\""}),
            num("substrate_cost_per_cm2"), num("rdl_cost_per_cm2"),
            num("rdl_defects_per_cm2"), num("interposer_cost_per_cm2"),
            num("interposer_defects_per_cm2"), num("package_area_factor"),
            num("bond_yield"), num("bonding_cost_per_chiplet")};

        ops_["cost_tr"] = {{"process", schema_type::object, {}, {}, &process_},
                           {"product", schema_type::object, {}, {}, &product_},
                           {"economics", schema_type::object, {}, {},
                            &economics_}};
        ops_["gross_die"] = {num("wafer_radius_cm"), num("edge_exclusion_cm"),
                             num("die_width_mm"), num("die_height_mm"),
                             text("method", methods(), {"\"voodoo\""}),
                             num("scribe_mm")};
        ops_["yield"] = {
            text("model", {"\"poisson\"", "\"murphy\"", "\"seeds\"",
                           "\"bose_einstein\"", "\"neg_binomial\"",
                           "\"scaled_poisson\"", "\"reference\""},
                 {"\"voodoo\"", "\"fixed\""}),
            num("expected_faults"), num("die_area_cm2"),
            num("defects_per_cm2"),
            integer("critical_steps", {"10", "0", "-3", "12"},
                    {"2147483648", "-2147483649"}),
            num("alpha"), num("d"), num("p"), num("lambda_um"), num("y0"),
            num("a0_cm2")};
        ops_["scenario1"] = {num("lambda_um"), num("c0_usd"), num("x"),
                             num("wafer_radius_cm"), num("design_density")};
        ops_["scenario2"] = ops_["scenario1"];
        ops_["scenario2"].push_back(num("y0"));
        ops_["table3"] = {integer("row", {"0", "1", "5", "17"},
                                  {"18", "-1", "99"})};
        ops_["mc_yield"] = {
            num("line_width_um"), num("line_spacing_um"),
            num("line_length_um"),
            integer("line_count", {"15", "1", "-2", "40"}, {"2147483648"}),
            num("defect_r0_um"), num("defect_p"), num("defect_q"),
            integer("dies", {"1", "64", "100000000"},
                    {"0", "-3", "100000001"}),
            num("defects_per_um2"), num("extra_material_fraction"),
            {"seed", schema_type::uint53,
             {"0", "1", "24301", "9007199254740992"},
             {"-1", "9007199254740994"}}};
        ops_["stats"] = {};
        ops_["chiplet"] = {integer("chiplets", {"1", "4", "16"},
                                   {"0", "17", "-1"})};
        ops_["chiplet"].insert(ops_["chiplet"].end(), chiplet_base_.begin(),
                               chiplet_base_.end());
        ops_["partition_explore"] = chiplet_base_;
        for (schema_field f :
             {text("splits", {"\"1\"", "\"1,2,4\"", "\"1,2,3,4,5,6,7,8\"",
                              "\"1,16\"", "\"1,3\""},
                   {"\"4,2,1\"", "\"2,4\"", "\"1,02\"", "\"1,17\"", "\"\"",
                    "\"1,,2\"", "\"1,2,3,4,5,6,7,8,9\"", "\" 1\"", "\"1,\""}),
              schema_field{"area_from_mm2", schema_type::number,
                           {"40", "0.5", "1e6"}, {"0", "-5", "-0"}},
              schema_field{"area_to_mm2", schema_type::number,
                           {"1000", "30", "2.5e3"}, {"0", "-1e-300"}},
              integer("count", {"1", "32", "65536"}, {"0", "65537", "-4"}),
              text("scale", {"\"linear\"", "\"log\""}, {"\"cubic\"", "\"\""})}) {
            ops_["partition_explore"].push_back(std::move(f));
        }
        // The sweep's target is generated separately; its own fields
        // follow its bespoke parse.
        ops_["sweep"] = {
            {"target", schema_type::object, {}, {}, nullptr, presence::always},
            text("param", {}, {"\"nope\"", "\"process\"", "\"\"",
                               "\"process.yield.model\"", "\"model\""}),
            num("from"), num("to"),
            integer("count", {"1", "2", "7", "65536"}, {"0", "65537"}),
            text("scale", {"\"linear\"", "\"log\""}, {"\"cubic\""})};
        for (schema_field& f : ops_["sweep"]) {
            if (f.name != "count" && f.name != "scale") {
                f.when = presence::always;
            }
        }
        envelope_ = {
            {"id", schema_type::any,
             {"1", "\"x\"", "null", "[1,\"two\"]", "{\"a\":1}", "-0.5"}, {}},
            {"deadline_ms", schema_type::uint53, {"60000", "5", "1"},
             {"-1", "9007199254740994"}},
            text("trace_id", {"\"t-1\"", "\"\"", "\"say \\\"hi\\\"\""}, {})};

        for (const char* op : {"cost_tr", "gross_die", "yield", "scenario1",
                               "scenario2", "mc_yield", "chiplet"}) {
            sweep_targets_.push_back(op);
            const serve::request defaults = serve::parse_request(
                serve::json::parse(std::string{"{\"op\":\""} + op + "\"}"));
            collect_numbers(serve::request_to_json(defaults), "",
                            params_[op]);
        }
        for (const auto& [op, fields] : ops_) {
            op_names_.push_back(op);
            add_sites(op, fields, "");
            add_sites(op, envelope_, "", /*with_object=*/false);
        }
        // The faulting sites grouped by field (or object), and every
        // pair of fields of one op: whichever order the parser reads an
        // op's fields in, some pair of these lines tells it apart.
        for (const schema_site& s : sites_) {
            if (s.kind == fault::omitted || s.kind == fault::valid) {
                continue;
            }
            if (faulting_.empty() || faulting_.back()[0].op != s.op ||
                faulting_.back()[0].path != s.path) {
                faulting_.emplace_back();
            }
            faulting_.back().push_back(s);
        }
        for (std::size_t a = 0; a < faulting_.size(); ++a) {
            for (std::size_t b = a + 1; b < faulting_.size() &&
                                        faulting_[b][0].op == faulting_[a][0].op;
                 ++b) {
                pairs_.emplace_back(a, b);
            }
        }
    }

    /// The lines of a seed that visit every site once, then every pair
    /// of faulting fields once.
    [[nodiscard]] std::size_t systematic_lines() const {
        return sites_.size() + pairs_.size();
    }

    /// Line `index` of the corpus of `seed`: the first
    /// systematic_lines() lines of any seed visit every site and every
    /// pair of faulting fields once; the rest pick sites at random.
    [[nodiscard]] std::string line(std::uint64_t seed, std::size_t index) {
        splitmix64 rng{seed * 0x100000001b3ull + index};
        std::vector<schema_site> faults;
        if (index >= sites_.size() && index < systematic_lines()) {
            const auto [a, b] = pairs_[index - sites_.size()];
            faults = {rng.pick(faulting_[a]), rng.pick(faulting_[b])};
            if (rng.below(2) == 0) {
                std::swap(faults[0], faults[1]);
            }
            return request_line(faults[0].op, faults, rng, 0);
        }
        faults.push_back(index < sites_.size() ? sites_[index]
                                               : rng.pick(sites_));
        // A second fault in the same op, another field or block.
        if (rng.below(2) == 0) {
            for (int tries = 0; tries < 8; ++tries) {
                const schema_site& s = rng.pick(sites_);
                if (s.op == faults[0].op && s.path != faults[0].path) {
                    faults.push_back(s);
                    break;
                }
            }
        }
        return request_line(faults[0].op, faults, rng, 0);
    }

private:
    static std::vector<std::string> methods() {
        return {"\"maly_rows\"", "\"maly_rows_best_orient\"",
                "\"area_ratio\"", "\"circumference\"", "\"ferris_prabhu\"",
                "\"exact\""};
    }

    static void collect_numbers(const serve::json::value& v,
                                const std::string& prefix,
                                std::vector<std::string>& out) {
        for (const serve::json::object::member& m : v.as_object().members()) {
            const std::string path =
                prefix.empty() ? m.first : prefix + "." + m.first;
            if (m.second.is_number()) {
                out.push_back(path);
            } else if (m.second.is_object()) {
                collect_numbers(m.second, path, out);
            }
        }
    }

    void add_sites(const std::string& op, const schema_block& fields,
                   const std::string& prefix, bool with_object = true) {
        if (with_object) {
            sites_.push_back({op, prefix, fault::unknown_sibling});
        }
        for (const schema_field& f : fields) {
            const std::string path = prefix.empty() ? f.name
                                                    : prefix + "." + f.name;
            for (const fault k : {fault::omitted, fault::valid,
                                  fault::wrong_type}) {
                sites_.push_back({op, path, k});
            }
            if (f.type == schema_type::integer ||
                f.type == schema_type::uint53) {
                sites_.push_back({op, path, fault::non_integral});
            }
            if (!f.bad.empty()) {
                sites_.push_back({op, path, fault::out_of_range});
            }
            if (f.members != nullptr) {
                add_sites(op, *f.members, path);
            }
        }
    }

    std::string random_number(splitmix64& rng) {
        static const std::vector<std::string> edges = {
            "0", "-0", "1", "-1", "2.5", "1e300", "-1e300", "5e-324",
            "1e-300", "0.7", "1.7976931348623157e308", "12345678901234567"};
        if (rng.below(4) == 0) {
            return rng.pick(edges);
        }
        const double magnitude =
            std::pow(10.0, static_cast<double>(rng.below(13)) - 6.0);
        const double unit =
            static_cast<double>(rng() >> 11) * 0x1.0p-53 * 4.0 - 2.0;
        return serve::json::format_number(unit * magnitude);
    }

    std::string valid_value(const schema_field& f, const std::string& op,
                            const std::string& path,
                            const std::vector<schema_site>& faults,
                            splitmix64& rng, int depth) {
        if (f.type == schema_type::object) {
            if (f.members == nullptr) {  // a sweep's target
                return target_value(rng, depth);
            }
            return object_value(op, *f.members, path, faults, rng, depth);
        }
        if (op == "sweep" && f.name == "param" && !target_op_.empty()) {
            const auto it = params_.find(target_op_);
            if (it != params_.end() && rng.below(8) != 0) {
                return "\"" + rng.pick(it->second) + "\"";
            }
            return "\"lambda_um\"";
        }
        if (f.valid.empty()) {
            return random_number(rng);
        }
        return rng.pick(f.valid);
    }

    std::string faulted_value(const schema_field& f, fault kind,
                              splitmix64& rng) {
        static const std::vector<std::string> not_number = {
            "\"1\"", "true", "null", "{}", "{\"a\":1}", "[1]", "false"};
        static const std::vector<std::string> not_text = {
            "1", "true", "null", "{\"a\":\"b\"}", "[\"x\"]", "-2.5"};
        static const std::vector<std::string> not_object = {
            "\"x\"", "true", "null", "1", "[]", "[{}]"};
        static const std::vector<std::string> fractions = {
            "2.5", "0.5", "-0.25", "1e-7", "16.000001"};
        switch (kind) {
            case fault::wrong_type:
                switch (f.type) {
                    case schema_type::text: return rng.pick(not_text);
                    case schema_type::object: return rng.pick(not_object);
                    case schema_type::any: return "null";
                    default: return rng.pick(not_number);
                }
            case fault::non_integral: return rng.pick(fractions);
            case fault::out_of_range:
                return f.bad.empty() ? "null" : rng.pick(f.bad);
            default: return "null";
        }
    }

    /// The object of `fields` at `prefix`, with the faults that fall in
    /// it and random valid members elsewhere, in a shuffled order.
    std::string object_value(const std::string& op, const schema_block& fields,
                             const std::string& prefix,
                             const std::vector<schema_site>& faults,
                             splitmix64& rng, int depth) {
        std::vector<std::string> members;
        for (const schema_field& f : fields) {
            const std::string path = prefix.empty() ? f.name
                                                    : prefix + "." + f.name;
            const schema_site* hit = nullptr;
            bool inside = false;
            for (const schema_site& s : faults) {
                if (s.path == path && s.kind != fault::unknown_sibling) {
                    hit = &s;
                } else if (s.path.size() > path.size() &&
                           s.path.compare(0, path.size(), path) == 0 &&
                           s.path[path.size()] == '.') {
                    inside = true;
                } else if (s.path == path) {
                    inside = true;  // an unknown member of this object
                }
            }
            std::string value;
            if (hit != nullptr) {
                if (hit->kind == fault::omitted) {
                    continue;
                }
                value = hit->kind == fault::valid
                            ? valid_value(f, op, path, faults, rng, depth)
                            : faulted_value(f, hit->kind, rng);
            } else if (inside || f.when == presence::always ||
                       (f.when == presence::random && rng.below(2) == 0)) {
                value = valid_value(f, op, path, faults, rng, depth);
            } else {
                continue;
            }
            members.push_back("\"" + f.name + "\":" + value);
        }
        for (const schema_site& s : faults) {
            if (s.kind == fault::unknown_sibling && s.path == prefix) {
                static const std::vector<std::string> strays = {
                    "bogus", "lamda_um", "Op", "chiplets", "row", "model",
                    "process", "target"};
                std::string stray = rng.pick(strays);
                for (const schema_field& f : fields) {
                    if (f.name == stray) {
                        stray = "bogus";
                    }
                }
                if (prefix.empty() && stray == "target") {
                    stray = "bogus";  // an envelope or payload sibling
                }
                members.push_back("\"" + stray + "\":1");
            }
        }
        for (std::size_t i = members.size(); i > 1; --i) {
            std::swap(members[i - 1], members[rng.below(i)]);
        }
        std::string out = "{";
        for (std::size_t i = 0; i < members.size(); ++i) {
            out += (i == 0 ? "" : ",") + members[i];
        }
        return out + "}";
    }

    /// A sweep target: any op's line (a sweepable one mostly, sometimes
    /// a nested sweep), with one fault of its own a third of the time.
    std::string target_value(splitmix64& rng, int depth) {
        std::string op = rng.below(10) == 0 ? rng.pick(op_names_)
                                            : rng.pick(sweep_targets_);
        if (op == "sweep" && depth >= 2) {
            op = "scenario1";
        }
        target_op_ = op;
        std::vector<schema_site> own;
        if (rng.below(3) == 0) {
            for (int tries = 0; tries < 16; ++tries) {
                const schema_site& s = rng.pick(sites_);
                if (s.op == op) {
                    own.push_back(s);
                    break;
                }
            }
        }
        return request_line(op, own, rng, depth + 1);
    }

    std::string request_line(const std::string& op,
                             const std::vector<schema_site>& faults,
                             splitmix64& rng, int depth) {
        // A sweep's target comes first among its fields, so `param` can
        // name one of the target's own parameters.
        const std::string saved = std::move(target_op_);
        target_op_.clear();
        schema_block fields = {{"op", schema_type::text,
                                {"\"" + op + "\""}, {}, nullptr,
                                presence::always}};
        fields.insert(fields.end(), ops_.at(op).begin(), ops_.at(op).end());
        for (schema_field f : envelope_) {
            // A target carries an envelope field only as its fault.
            if (depth > 0) {
                f.when = presence::if_faulted;
            }
            fields.push_back(std::move(f));
        }
        std::string line = object_value(op, fields, "", faults, rng, depth);
        target_op_ = saved;
        return line;
    }

    schema_block yield_spec_;
    schema_block process_;
    schema_block product_;
    schema_block economics_;
    schema_block chiplet_base_;
    schema_block envelope_;
    std::map<std::string, schema_block> ops_;
    std::map<std::string, std::vector<std::string>> params_;
    std::vector<std::string> op_names_;
    std::vector<std::string> sweep_targets_;
    std::vector<schema_site> sites_;
    std::vector<std::vector<schema_site>> faulting_;
    std::vector<std::pair<std::size_t, std::size_t>> pairs_;
    std::string target_op_;
};

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
    // much as a fresh 16-lane one: only per-grid storage.  Checked for
    // sweeps the scalar planner feeds: gross_die, cost_tr through a
    // nested path and chiplet over d2d_area_mm2.
    struct grid_kind {
        const char* name;
        /// A fresh sweep of `count` lanes.
        std::function<std::string(int count, double shift)> line;
    };
    const auto num = [](double x) { return serve::json::format_number(x); };
    const std::vector<grid_kind> kinds = {
        {"gross_die sweep",
         [&](int count, double shift) {
             return R"({"op":"sweep","param":"die_width_mm","from":)" +
                    num(4.0 * shift) + R"(,"to":)" + num(24.0 * shift) +
                    R"(,"count":)" + std::to_string(count) +
                    R"(,"target":{"op":"gross_die"}})";
         }},
        {"cost_tr sweep",
         [&](int count, double shift) {
             return R"({"op":"sweep","param":"product.transistors","from":)" +
                    num(1e6 * shift) + R"(,"to":)" + num(8e6 * shift) +
                    R"(,"count":)" + std::to_string(count) +
                    R"(,"target":{"op":"cost_tr"}})";
         }},
        {"chiplet sweep",
         [&](int count, double shift) {
             return R"({"op":"sweep","param":"d2d_area_mm2","from":)" +
                    num(1.0 * shift) + R"(,"to":)" + num(30.0 * shift) +
                    R"(,"count":)" + std::to_string(count) +
                    R"(,"target":{"op":"chiplet","chiplets":4,)"
                    R"("substrate":"interposer"}})";
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
        // repeat than the next (11 to 14 for either size of these
        // sweeps on the same sequence), so compare the fewest over eight repeats of each size: an
        // allocation per lane would add 240 to every 256-lane repeat.
        std::uint64_t small = UINT64_MAX;
        std::uint64_t large = UINT64_MAX;
        for (int r = 0; r < 8; ++r) {
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

/// How the lines of a differential run came out on the reference parser.
struct parse_tally {
    std::size_t keys = 0;
    std::size_t errors = 0;
    std::vector<std::string> messages;  ///< distinct "code: message"
};

/// Expects parse_request_fast to give, line for line, the canonical key
/// or the error code and message that parse_request gives.
void expect_fast_parse_matches_legacy(const std::vector<std::string>& lines,
                                      parse_tally& tally) {
    exec::arena arena;
    serve::json::arena_parser parser;
    serve::fast_parse_state state;
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
        if (legacy_error.empty()) {
            ++tally.keys;
        } else {
            ++tally.errors;
            tally.messages.push_back(std::move(legacy_error));
        }
    }
    std::sort(tally.messages.begin(), tally.messages.end());
    tally.messages.erase(
        std::unique(tally.messages.begin(), tally.messages.end()),
        tally.messages.end());
}

/// The generated schema corpus of each seed in [first_seed, first_seed +
/// seeds): its systematic lines, then `random_lines` more.
void expect_schema_corpus_matches_legacy(std::uint64_t first_seed,
                                         std::uint64_t seeds,
                                         std::size_t random_lines,
                                         parse_tally& tally) {
    schema_corpus_generator gen;
    const std::size_t count = gen.systematic_lines() + random_lines;
    std::vector<std::string> lines;
    for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
        lines.clear();
        for (std::size_t i = 0; i < count; ++i) {
            lines.push_back(gen.line(seed, i));
        }
        parse_tally part;
        expect_fast_parse_matches_legacy(lines, part);
        if (::testing::Test::HasFailure()) {
            return;  // one seed's report is enough to read
        }
        tally.keys += part.keys;
        tally.errors += part.errors;
        tally.messages.insert(tally.messages.end(), part.messages.begin(),
                              part.messages.end());
    }
    std::sort(tally.messages.begin(), tally.messages.end());
    tally.messages.erase(
        std::unique(tally.messages.begin(), tally.messages.end()),
        tally.messages.end());
}

TEST(FastParse, CanonicalKeysAndErrorsMatchLegacy) {
    std::vector<std::string> lines = corpus();
    const std::vector<std::string> extra = fuzz_corpus(1000);
    lines.insert(lines.end(), extra.begin(), extra.end());
    parse_tally tally;
    expect_fast_parse_matches_legacy(lines, tally);

    // The generated schema corpus: every site and every pair of
    // faulting fields of every op once per seed, then random sites,
    // over a few seeds.
    parse_tally generated;
    expect_schema_corpus_matches_legacy(1, 3, 500, generated);
    // Both outcomes are common, and the faults reach many distinct
    // checks (each message names its field).
    EXPECT_GT(generated.keys, 500u);
    EXPECT_GT(generated.errors, 2000u);
    EXPECT_GT(generated.messages.size(), 120u);
}

TEST(FastParse, DISABLED_GeneratedSchemaCorpusLongRun) {
    // The same differential over many more seeds (about 10^6 lines):
    // too long for every ctest, run by CI on its own.
    parse_tally generated;
    expect_schema_corpus_matches_legacy(1000, 250, 1500, generated);
    EXPECT_GT(generated.keys, 100000u);
}

// ---------------------------------------------------------------------------
// Sweep parameters: every numeric leaf of every sweep target op.
// ---------------------------------------------------------------------------

/// The dotted paths of `v`'s leaves, numbers and the rest apart.
void leaf_paths(const serve::json::value& v, const std::string& prefix,
                std::vector<std::string>& numbers,
                std::vector<std::string>& others) {
    for (const serve::json::object::member& m : v.as_object().members()) {
        const std::string path =
            prefix.empty() ? m.first : prefix + "." + m.first;
        if (m.second.is_object()) {
            others.push_back(path);
            leaf_paths(m.second, path, numbers, others);
        } else if (m.second.is_number()) {
            numbers.push_back(path);
        } else if (path != "op") {
            others.push_back(path);
        }
    }
}

std::string set_error(serve::request lane, std::string_view path, double v) {
    try {
        serve::set_numeric_param(lane, path, v);
    } catch (const serve::request_error& e) {
        return e.code() + ": " + e.what();
    }
    return "";
}

TEST(SweepParams, EveryNumericLeafOfEveryTargetOp) {
    std::size_t leaves = 0;
    std::size_t integers = 0;
    for (int i = 0; i < serve::op_count; ++i) {
        const auto op = static_cast<serve::op_code>(i);
        if (op == serve::op_code::sweep || op == serve::op_code::stats ||
            serve::primary_metric(op) == nullptr) {
            continue;  // not a sweep target
        }
        const std::string name{serve::to_string(op)};
        SCOPED_TRACE(name);
        const serve::request defaults = serve::parse_request(
            serve::json::parse("{\"op\":\"" + name + "\"}"));
        std::vector<std::string> numbers;
        std::vector<std::string> others;
        leaf_paths(serve::request_to_json(defaults), "", numbers, others);
        ASSERT_FALSE(numbers.empty());

        // Non-leaf, non-numeric and unknown paths are refused.
        for (const std::string& path : others) {
            EXPECT_FALSE(serve::numeric_param_exists(defaults, path)) << path;
        }
        for (const char* path : {"process", "process.yield.model", "",
                                 "process.nope", "nope", "op", ".",
                                 "process.", ".x", "x.y"}) {
            EXPECT_FALSE(serve::numeric_param_exists(defaults, path)) << path;
        }

        for (const std::string& path : numbers) {
            SCOPED_TRACE(path);
            ++leaves;
            EXPECT_TRUE(serve::numeric_param_exists(defaults, path));
            serve::request lane = defaults;
            const double before = serve::numeric_param_value(lane, path);
            const bool is_integer =
                serve::numeric_param_ptr(lane, path) == nullptr;
            // An integer leaf moves by one (dies, chiplets and seed stay
            // in range); a double leaf takes a value its default is not.
            const double v = is_integer ? before + 1.0 : before * 1.5 + 0.25;
            serve::set_numeric_param(lane, path, v);
            EXPECT_EQ(serve::numeric_param_value(lane, path), v);
            std::string key;
            serve::canonical_key_into(lane, key);
            EXPECT_EQ(key,
                      serve::json::canonical(serve::request_to_json(lane)));
            EXPECT_NE(key, defaults.canonical_key);

            if (!is_integer) {
                continue;
            }
            ++integers;
            const char* not_integral = path == "seed"
                                           ? "bad_param: sweep: lane is not a seed"
                                           : "bad_param: sweep: lane is not an integer";
            EXPECT_EQ(set_error(defaults, path, 2.5), not_integral);
            EXPECT_EQ(set_error(defaults, path, -0.5), not_integral);
            if (path == "seed") {
                EXPECT_EQ(set_error(defaults, path, -1.0), not_integral);
            } else {
                EXPECT_EQ(set_error(defaults, path, 2147483648.0),
                          not_integral);
            }
            if (path == "dies") {
                EXPECT_EQ(set_error(defaults, path, 0.0),
                          "bad_param: mc_yield: dies must be in [1, 1e8]");
            }
            if (path == "chiplets") {
                EXPECT_EQ(set_error(defaults, path, 17.0),
                          "bad_param: chiplet: chiplets must be in [1, 16]");
            }
        }
    }
    // cost_tr 16, gross_die 5, yield 10, scenario1 5, scenario2 6,
    // mc_yield 11, chiplet 27.
    EXPECT_EQ(leaves, 80u);
    EXPECT_EQ(integers, 5u);  // critical_steps, line_count, dies, seed, chiplets
}

TEST(SweepParams, ResolvedOnceBindsEveryLaneLikeTheDottedPath) {
    // A grid resolves its swept path once and binds each lane by offset.
    // For every numeric leaf of every target op, a numeric_param resolved
    // on the defaults and applied to lanes that differ from them in every
    // number writes what set_numeric_param writes, throws what it throws
    // (out-of-range and non-integral lanes included), and points at the
    // member numeric_param_ptr finds.
    for (int i = 0; i < serve::op_count; ++i) {
        const auto op = static_cast<serve::op_code>(i);
        if (op == serve::op_code::sweep || op == serve::op_code::stats ||
            serve::primary_metric(op) == nullptr) {
            continue;
        }
        const std::string name{serve::to_string(op)};
        SCOPED_TRACE(name);
        const serve::request defaults = serve::parse_request(
            serve::json::parse("{\"op\":\"" + name + "\"}"));
        std::vector<std::string> numbers;
        std::vector<std::string> others;
        leaf_paths(serve::request_to_json(defaults), "", numbers, others);
        // A base whose every double differs from the defaults.
        serve::request base = defaults;
        for (const std::string& path : numbers) {
            if (double* p = serve::numeric_param_ptr(base, path)) {
                *p = *p * 1.25 + 0.5;
            }
        }
        for (const std::string& path : numbers) {
            SCOPED_TRACE(path);
            const serve::numeric_param param{defaults, path};
            serve::request probe = base;
            EXPECT_EQ(param.ptr(probe), serve::numeric_param_ptr(probe, path));
            EXPECT_EQ(param.is_double(), param.ptr(probe) != nullptr);
            for (const double v : {3.0, 2.5, -1.0, 0.0, 17.0, 2147483648.0}) {
                serve::request resolved = base;
                serve::request dotted = base;
                std::string resolved_error;
                try {
                    param.set(resolved, v);
                } catch (const serve::request_error& e) {
                    resolved_error = e.code() + ": " + e.what();
                }
                EXPECT_EQ(resolved_error, set_error(dotted, path, v)) << v;
                if (resolved_error.empty()) {
                    serve::set_numeric_param(dotted, path, v);
                    std::string a;
                    std::string b;
                    serve::canonical_key_into(resolved, a);
                    serve::canonical_key_into(dotted, b);
                    EXPECT_EQ(a, b) << v;
                }
            }
        }
    }
    EXPECT_THROW((serve::numeric_param{serve::parse_request(serve::json::parse(
                                           R"({"op":"cost_tr"})")),
                                       "process.nope"}),
                 std::logic_error);
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
