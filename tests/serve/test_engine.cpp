#include "serve/engine.hpp"

#include "exec/thread_pool.hpp"
#include "grid_reference.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/partition.hpp"
#include "serve/request_fast.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace serve = silicon::serve;
namespace json = silicon::serve::json;
namespace grid_reference = silicon::serve::grid_reference;
namespace exec = silicon::exec;
namespace obs = silicon::obs;

namespace {

serve::engine_config config_with(unsigned parallelism,
                                 std::size_t cache_capacity = 65536) {
    serve::engine_config c;
    c.parallelism = parallelism;
    c.cache_capacity = cache_capacity;
    return c;
}

/// Every cacheable endpoint with non-default parameters, exercising the
/// full routing surface.
const std::vector<std::string>& endpoint_lines() {
    static const std::vector<std::string> lines = {
        R"({"op":"cost_tr"})",
        R"({"op":"cost_tr","product":{"transistors":4e6,"feature_size_um":0.6},
            "process":{"yield":{"model":"scaled","d":1.72,"p":4.07}},
            "economics":{"overhead_usd":2e6,"volume_wafers":500}})",
        R"({"op":"gross_die","die_width_mm":7.5,"die_height_mm":9,
            "method":"area_ratio"})",
        R"({"op":"yield","model":"poisson","die_area_cm2":0.8})",
        R"({"op":"yield","model":"murphy","defects_per_cm2":0.6})",
        R"({"op":"yield","model":"seeds"})",
        R"({"op":"yield","model":"bose_einstein","critical_steps":12})",
        R"({"op":"yield","model":"neg_binomial","alpha":1.5})",
        R"({"op":"yield","model":"scaled_poisson","lambda_um":0.6})",
        R"({"op":"yield","model":"reference","y0":0.6,"a0_cm2":0.9})",
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","lambda_um":1.1,"y0":0.8})",
        R"({"op":"table3","row":0})",
        R"({"op":"table3","row":5})",
        R"({"op":"mc_yield","dies":400,"seed":11})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,"count":5,
            "target":{"op":"scenario2"}})",
        R"({"op":"sweep","param":"product.transistors","from":1e6,"to":1e8,
            "count":3,"scale":"log","target":{"op":"cost_tr"}})",
    };
    return lines;
}

TEST(Engine, GoldenEquivalenceWithDirectEvaluation) {
    // The served response must be byte-identical to evaluating the
    // parsed request through the reference path (no cache, no batch).
    serve::engine served{config_with(0)};
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};

    for (const std::string& line : endpoint_lines()) {
        const serve::request req = serve::parse_request(json::parse(line));
        const std::string expected =
            "{\"ok\":true,\"result\":" + json::dump(reference.evaluate(req)) +
            "}";
        EXPECT_EQ(served.handle_line(line), expected) << line;
    }
}

TEST(Engine, BatchBitIdenticalAcrossParallelism) {
    std::vector<std::string> lines;
    for (int copy = 0; copy < 40; ++copy) {
        for (const std::string& line : endpoint_lines()) {
            lines.push_back(line);
        }
    }
    lines.push_back(R"({"op":"nope"})");
    lines.push_back("}{ garbage");
    lines.push_back(R"({"op":"scenario1","id":[1,"two",{"three":3}]})");

    serve::engine serial{config_with(1)};
    const std::vector<std::string> expected = serial.handle_batch(lines);
    ASSERT_EQ(expected.size(), lines.size());

    for (unsigned parallelism : {4u, 0u}) {
        serve::engine pooled{config_with(parallelism)};
        EXPECT_EQ(pooled.handle_batch(lines), expected)
            << "parallelism=" << parallelism;
    }
}

TEST(Engine, CacheHitReturnsIdenticalBytes) {
    serve::engine engine{config_with(1)};
    const std::string line = R"({"op":"scenario2","lambda_um":0.9})";
    const std::string cold = engine.handle_line(line);
    const std::string warm = engine.handle_line(line);
    EXPECT_EQ(cold, warm);

    const serve::memo_cache::stats s = engine.cache_stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(Engine, CacheHitsAcrossMemberOrderAndIds) {
    serve::engine engine{config_with(1)};
    (void)engine.handle_line(R"({"op":"table3","row":4})");
    (void)engine.handle_line(R"({"row":4,"op":"table3","id":9})");
    (void)engine.handle_line(R"({"op":"table3","row":4,"id":"again"})");
    const serve::memo_cache::stats s = engine.cache_stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 2u);
}

TEST(Engine, IdEchoedVerbatim) {
    serve::engine engine{config_with(1)};
    EXPECT_EQ(engine.handle_line(R"({"op":"table3","row":1,"id":42})")
                  .substr(0, 9),
              R"({"id":42,)");
    const std::string nested =
        engine.handle_line(R"({"id":{"a":[1]},"op":"table3","row":1})");
    EXPECT_EQ(nested.substr(0, 16), R"({"id":{"a":[1]},)");
}

TEST(Engine, ErrorEnvelopes) {
    serve::engine engine{config_with(1)};

    const std::string parse = engine.handle_line("not json");
    EXPECT_NE(parse.find(R"("ok":false)"), std::string::npos);
    EXPECT_NE(parse.find(R"("code":"parse_error")"), std::string::npos);

    const std::string unknown = engine.handle_line(R"({"op":"warp"})");
    EXPECT_NE(unknown.find(R"("code":"unknown_op")"), std::string::npos);

    const std::string field =
        engine.handle_line(R"({"op":"scenario1","lambda":1})");
    EXPECT_NE(field.find(R"("code":"unknown_field")"), std::string::npos);

    // Infeasible model input: scenario1 rejects non-positive lambda.
    const std::string domain =
        engine.handle_line(R"({"op":"scenario1","lambda_um":-1})");
    EXPECT_NE(domain.find(R"("ok":false)"), std::string::npos) << domain;

    // Errors keep their id.
    const std::string with_id =
        engine.handle_line(R"({"op":"warp","id":"e1"})");
    EXPECT_EQ(with_id.substr(0, 12), R"({"id":"e1",")");
}

TEST(Engine, TraceIdEchoedOnEveryErrorTaxonomyEnvelope) {
    // The trace must survive every failure class reachable from a
    // parsed request — that is exactly when the operator needs the
    // correlation most.  (`parse_error` is the deliberate exception: a
    // line that failed to parse has no trustworthy members, so nothing
    // is scanned out of it; `overloaded`/`batch_too_large` splice a
    // raw-scanned trace and are pinned in the limits suite.)
    serve::engine_config cfg = config_with(1);
    cfg.limits.max_mc_dies = 100;
    serve::engine engine{cfg};

    const std::pair<const char*, const char*> cases[] = {
        {"unknown_op", R"({"op":"nope","trace_id":"t-x"})"},
        {"bad_request", R"({"op":42,"trace_id":"t-x"})"},
        {"unknown_field", R"({"op":"scenario1","bogus":1,"trace_id":"t-x"})"},
        {"bad_param",
         R"({"op":"scenario1","lambda_um":"half","trace_id":"t-x"})"},
        {"bad_param", R"({"op":"scenario1","lambda_um":0,"trace_id":"t-x"})"},
        {"too_large", R"({"op":"mc_yield","dies":1000,"trace_id":"t-x"})"},
        {"deadline_exceeded",
         R"({"op":"mc_yield","dies":50,"deadline_ms":0,"trace_id":"t-x"})"},
    };
    for (const auto& [code, line] : cases) {
        const std::string response = engine.handle_line(line);
        EXPECT_NE(response.find(std::string{"\"code\":\""} + code + "\""),
                  std::string::npos)
            << line << " -> " << response;
        EXPECT_EQ(response.rfind(R"({"trace_id":"t-x","ok":false)", 0), 0u)
            << line << " -> " << response;
    }

    // A non-string trace_id is itself a schema error (echoing a
    // non-string would corrupt the envelope).
    const std::string bad =
        engine.handle_line(R"({"op":"scenario1","trace_id":42})");
    EXPECT_NE(bad.find(R"("code":"bad_param")"), std::string::npos) << bad;
    EXPECT_EQ(bad.find("\"trace_id\":"), std::string::npos)
        << "non-string trace must not be echoed: " << bad;

    // And a parse error stays trace-free even when the broken bytes
    // happen to contain the member.
    const std::string torn =
        engine.handle_line(R"({"trace_id":"t-torn","op":)");
    EXPECT_NE(torn.find(R"("code":"parse_error")"), std::string::npos);
    EXPECT_EQ(torn.find("t-torn"), std::string::npos) << torn;
}

TEST(Engine, TraceIdEchoPositionAndBytes) {
    serve::engine engine{config_with(1)};
    // With an id: id first, trace second — the envelope key order is
    // part of the wire contract.
    const std::string both = engine.handle_line(
        R"({"id":9,"op":"scenario1","lambda_um":0.5,"trace_id":"t-a"})");
    EXPECT_EQ(both.rfind(R"({"id":9,"trace_id":"t-a","ok":true)", 0), 0u)
        << both;
    // Escapes round-trip exactly like json::dump.
    const std::string escaped = engine.handle_line(
        R"({"op":"table3","row":1,"trace_id":"say \"hi\"\n"})");
    EXPECT_NE(escaped.find(R"("trace_id":"say \"hi\"\n")"),
              std::string::npos)
        << escaped;
    // Absent trace: the response is byte-identical to the pre-trace
    // format (golden compatibility).
    const std::string bare =
        engine.handle_line(R"({"op":"scenario1","lambda_um":0.5})");
    EXPECT_EQ(bare.find("trace_id"), std::string::npos);
    EXPECT_EQ(bare.rfind(R"({"ok":true,"result":)", 0), 0u);
}

TEST(Engine, ErrorsAreNeverCached) {
    serve::engine engine{config_with(1)};
    const std::string line = R"({"op":"scenario1","lambda_um":-1})";
    (void)engine.handle_line(line);
    (void)engine.handle_line(line);
    EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(Engine, HeavyTailMonteCarloIsAnErrorReplyAndServingGoesOn) {
    // A size tail near p = 1 makes the sampling margin infinite (1.01) or
    // the defect count billions per die (1.5): the run must be refused
    // up front, not crash or spin, and the next line must still be
    // served.
    for (const unsigned parallelism : {1u, 4u}) {
        serve::engine engine{config_with(parallelism)};
        for (const char* line :
             {R"({"id":1,"op":"mc_yield","dies":1,"defect_p":1.01})",
              R"({"id":2,"op":"mc_yield","dies":1,"defect_p":1.5})"}) {
            const json::value reply = json::parse(engine.handle_line(line));
            const json::object& o = reply.as_object();
            EXPECT_FALSE(o.find("ok")->as_bool()) << line;
            EXPECT_EQ(o.find("error")->as_object().find("code")->as_string(),
                      "domain_error")
                << line;
        }
        EXPECT_EQ(engine.cache_stats().entries, 0u);
        const std::string next =
            engine.handle_line(R"({"id":3,"op":"mc_yield","dies":50})");
        EXPECT_NE(next.find(R"("ok":true)"), std::string::npos) << next;
    }
}

TEST(Engine, MetricsCountRequestsAndErrors) {
    serve::engine engine{config_with(1)};
    (void)engine.handle_line(R"({"op":"scenario1"})");
    (void)engine.handle_line(R"({"op":"scenario1"})");
    (void)engine.handle_line(R"({"op":"scenario1","lambda":1})");

    const serve::endpoint_metrics& m =
        engine.metrics().at(serve::op_code::scenario1);
    EXPECT_EQ(m.requests.load(), 3u);
    EXPECT_EQ(m.errors.load(), 1u);
    EXPECT_EQ(m.cache_hits.load(), 1u);
}

TEST(Engine, ErrorAccountingPerLineKind) {
    // One failing line of each kind, and how each is counted: as a
    // parse error, under which endpoint, and with which flight-record
    // code.  Lines whose op is unknown count under no endpoint.
    struct failing_line {
        const char* line;
        const char* code;
        const char* endpoint;  // "" = counted under no endpoint
        const char* id;        // flight-record id field
    };
    const std::vector<failing_line> lines = {
        {R"({"id":1,"op":"scenario1")", "parse_error", "", ""},
        {R"([1,2,3])", "bad_request", "", ""},
        {R"({"id":3,"op":"nope","trace_id":"t3"})", "unknown_op", "", "3"},
        {R"({"id":"4","op":"table3","row":99})", "bad_param", "table3", "4"},
        {R"({"id":5,"op":"scenario1","deadline_ms":0})", "deadline_exceeded",
         "scenario1", "5"},
        {R"({"id":6,"op":"sweep","param":"from","target":{"op":"sweep",)"
         R"("param":"lambda_um","target":{"op":"nope"}}})",
         "unknown_op", "sweep", "6"},
    };
    obs::flight_recorder& flight = obs::flight_recorder::instance();
    flight.clear();
    flight.set_deterministic(true);
    serve::engine engine{config_with(1)};
    for (const failing_line& l : lines) {
        SCOPED_TRACE(l.line);
        const json::value reply = json::parse(engine.handle_line(l.line));
        const json::object& error =
            reply.as_object().find("error")->as_object();
        EXPECT_EQ(error.find("code")->as_string(), l.code);
    }
    std::string dump;
    flight.export_jsonl(dump);
    flight.set_deterministic(false);
    flight.clear();

    const json::value stats =
        json::parse(engine.handle_line(R"({"op":"stats"})"));
    const json::object& result =
        stats.as_object().find("result")->as_object();
    EXPECT_EQ(result.find("parse_errors")->as_number(), 1.0);
    EXPECT_EQ(engine.deadline_exceeded_total(), 1u);
    for (const serve::op_code op :
         {serve::op_code::table3, serve::op_code::scenario1,
          serve::op_code::sweep}) {
        SCOPED_TRACE(std::string{serve::to_string(op)});
        EXPECT_EQ(engine.metrics().at(op).requests.load(), 1u);
        EXPECT_EQ(engine.metrics().at(op).errors.load(), 1u);
    }
    std::uint64_t requests = 0;
    for (int op = 0; op < serve::op_count; ++op) {
        requests +=
            engine.metrics().at(static_cast<serve::op_code>(op)).requests;
    }
    EXPECT_EQ(requests, 4u);  // three known-op lines, plus the stats probe

    std::vector<json::value> records;
    std::size_t at = 0;
    for (std::size_t nl = dump.find('\n'); nl != std::string::npos;
         nl = dump.find('\n', at)) {
        records.push_back(json::parse(dump.substr(at, nl - at)));
        at = nl + 1;
    }
    ASSERT_EQ(records.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        SCOPED_TRACE(lines[i].line);
        const json::object& r = records[i].as_object();
        EXPECT_EQ(r.find("code")->as_string(), lines[i].code);
        EXPECT_EQ(r.find("endpoint")->as_string(), lines[i].endpoint);
        EXPECT_EQ(r.find("id")->as_string(), lines[i].id);
        EXPECT_EQ(r.find("anomaly")->as_bool(),
                  std::string{lines[i].code} == "deadline_exceeded");
    }
}

TEST(Engine, EveryBatchLineIsParsedOnce) {
    // Valid, malformed-JSON, schema-error and unknown-op lines in one
    // batch: each is parsed exactly once (one `serve.parse` span), a
    // failed line is answered from the failure its parse recorded, and
    // replies and error accounting equal lone-line serving.
    const std::vector<std::string> lines = {
        R"({"id":1,"op":"scenario1","lambda_um":0.5})",
        R"({"id":2,"op":"scenario1")",
        R"({"id":3,"op":"table3","row":2})",
        R"([1,2,3])",
        R"({"id":5,"op":"nope","trace_id":"t5"})",
        R"({"id":6,"op":"scenario1","lambda":1})",
        R"({"id":7,"op":"yield","model":"murphy","defects_per_cm2":0.6})",
        R"(not json at all)",
        R"({"id":9,"op":"gross_die","die_width_mm":7.5,"die_height_mm":9})",
        R"({"id":10,"op":"yield","model":"nope"})",
        R"({"id":1,"op":"scenario1","lambda_um":0.5})",
        R"({"id":12,"op":"scenario2","y0":"high"})",
        R"({"id":13,"op":"sweep","param":"lambda_um","from":0.5,)"
        R"("to":1.5,"count":3,"target":{"op":"nope"}})",
        R"({"id":14,"op":"table3","row":99})",
        R"({"id":15,"op":"cost_tr","product":{"transistors":4e6}})",
        R"({"id":16,"trace_id":7,"op":"scenario2","lambda_um":1.1})",
    };
    ASSERT_EQ(lines.size(), 16u);
    const auto parse_errors = [](serve::engine& e) {
        const json::value stats =
            json::parse(e.handle_line(R"({"op":"stats"})"));
        return stats.as_object()
            .find("result")
            ->as_object()
            .find("parse_errors")
            ->as_number();
    };
    serve::engine lone_engine{config_with(1)};
    std::string lone;
    for (const std::string& line : lines) {
        std::string out;
        lone_engine.handle_line_into(line, out);
        lone += out + "\n";
    }
    obs::tracer& tracer = obs::tracer::instance();
    for (const unsigned parallelism : {1u, 4u}) {
        SCOPED_TRACE(parallelism);
        serve::engine engine{config_with(parallelism)};
        tracer.clear();
        tracer.enable();
        std::string gather;
        engine.handle_batch_into(lines, gather);
        tracer.disable();
        const std::string trace = tracer.export_chrome_json();
        tracer.clear();
        std::size_t spans = 0;
        for (std::size_t at = trace.find(R"("name":"serve.parse")");
             at != std::string::npos;
             at = trace.find(R"("name":"serve.parse")", at + 1)) {
            ++spans;
        }
        EXPECT_EQ(spans, lines.size());
        EXPECT_EQ(gather, lone);
        EXPECT_EQ(parse_errors(engine), parse_errors(lone_engine));
        for (int op = 0; op < serve::op_count; ++op) {
            const auto code = static_cast<serve::op_code>(op);
            if (code == serve::op_code::stats) {
                continue;
            }
            SCOPED_TRACE(std::string{serve::to_string(code)});
            EXPECT_EQ(engine.metrics().at(code).requests.load(),
                      lone_engine.metrics().at(code).requests.load());
            EXPECT_EQ(engine.metrics().at(code).errors.load(),
                      lone_engine.metrics().at(code).errors.load());
        }
    }
}

TEST(Engine, StatsEndpointIsLive) {
    serve::engine engine{config_with(1)};
    (void)engine.handle_line(R"({"op":"table3","row":2})");
    const std::string first = engine.handle_line(R"({"op":"stats"})");
    (void)engine.handle_line(R"({"op":"table3","row":3})");
    const std::string second = engine.handle_line(R"({"op":"stats"})");
    EXPECT_NE(first, second);  // live snapshot, not cached
    EXPECT_EQ(engine.cache_stats().entries, 2u);  // stats never stored

    const json::value doc = json::parse(second);
    const json::object& result =
        doc.as_object().find("result")->as_object();
    ASSERT_NE(result.find("cache"), nullptr);
    ASSERT_NE(result.find("endpoints"), nullptr);
}

TEST(Engine, SweepSharesCacheWithPointQueries) {
    // A grid point answered earlier as a standalone request is a cache
    // hit inside a later sweep whose target has no batch kernel — a
    // gross_die, a cost_tr through a nested path, an integer chiplet
    // parameter, an mc_yield seed — and the spliced reply still matches
    // the per-point reference.  A kernel sweep (scenario1) never probes
    // the point cache, and its reply matches the reference too.
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};
    struct sweep_case {
        std::string point;
        std::string sweep;
        bool kernel;
    };
    const std::vector<sweep_case> cases = {
        {R"({"op":"gross_die","die_width_mm":10})",
         R"({"op":"sweep","param":"die_width_mm","from":10,"to":20,"count":2,
             "target":{"op":"gross_die"}})",
         false},
        {R"({"op":"cost_tr","product":{"transistors":1000000}})",
         R"({"op":"sweep","param":"product.transistors","from":1000000,
             "to":2000000,"count":2,"target":{"op":"cost_tr"}})",
         false},
        {R"({"op":"chiplet","chiplets":2})",
         R"({"op":"sweep","param":"chiplets","from":1,"to":3,"count":3,
             "target":{"op":"chiplet"}})",
         false},
        {R"({"op":"mc_yield","dies":200,"seed":2})",
         R"({"op":"sweep","param":"seed","from":1,"to":3,"count":3,
             "target":{"op":"mc_yield","dies":200}})",
         false},
        {R"({"op":"scenario1","lambda_um":0.5})",
         R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,"count":2,
             "target":{"op":"scenario1"}})",
         true},
    };
    for (const sweep_case& c : cases) {
        serve::engine engine{config_with(1)};
        (void)engine.handle_line(c.point);
        const auto before = engine.cache_stats();
        const std::string got = engine.handle_line(c.sweep);
        if (c.kernel) {
            EXPECT_EQ(engine.cache_stats().hits, before.hits) << c.sweep;
        } else {
            // The sweep hit the pre-warmed point.
            EXPECT_GT(engine.cache_stats().hits, before.hits) << c.sweep;
        }
        EXPECT_EQ(got,
                  grid_reference::sweep_reference(reference, c.sweep, got))
            << c.sweep;
    }
}

/// Every entry of the engine's point cache, key -> result bytes, read
/// back through a snapshot of it.
std::map<std::string, std::string> cached_entries(serve::engine& engine) {
    const std::string path = testing::TempDir() + "lane_cache_" +
                             std::to_string(::getpid()) + ".bin";
    EXPECT_TRUE(engine.snapshot_write(path).ok);
    serve::memo_cache copy{std::size_t{1} << 20, 1};
    const serve::snapshot::restore_result r = serve::snapshot::restore_file(
        copy, serve::snapshot::config_fingerprint(engine.config().fast_math),
        path);
    std::remove(path.c_str());
    EXPECT_EQ(r.outcome, serve::snapshot::restore_outcome::restored)
        << r.reason;
    std::map<std::string, std::string> out;
    for (const auto& [key, value] : copy.shard_snapshot(0)) {
        out.emplace(key, value);
    }
    return out;
}

/// The metric `cache` stores beside `key` (nullopt when absent), read
/// by a one-lane batch probe: a lane splice's read, which counts a hit
/// and promotes the entry.
std::optional<double> stored_metric(serve::memo_cache& cache,
                                    std::string_view key) {
    const serve::memo_cache::hashed_key lane =
        serve::memo_cache::hashed_key::of(key);
    std::optional<double> metric;
    serve::memo_cache::batch_order order;
    cache.probe_batch({&lane, 1}, {&metric, 1}, order);
    return metric;
}

/// Checks the metric the engine's cache stores beside each of `cached`
/// (key -> bytes, all of its entries): bit for bit the number its bytes
/// carry under the key's primary metric, or NaN when that member is
/// null or absent or the op has none — what a lane splice reads back.
void expect_stored_metrics(serve::engine& engine,
                           const std::map<std::string, std::string>& cached,
                           const std::string& grid_line) {
    for (const auto& [key, bytes] : cached) {
        const serve::request req = serve::parse_request(json::parse(key));
        const char* name = serve::primary_metric(req.op);
        const json::value result = json::parse(bytes);
        const json::value* member =
            name != nullptr ? result.as_object().find(name) : nullptr;
        const std::optional<double> stored =
            stored_metric(engine.cache(), key);
        ASSERT_TRUE(stored.has_value()) << key;
        if (member != nullptr && member->is_number()) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(*stored),
                      std::bit_cast<std::uint64_t>(member->as_number()))
                << key << "\n  in " << grid_line;
        } else {
            EXPECT_TRUE(std::isnan(*stored))
                << key << "\n  in " << grid_line;
        }
    }
}

/// Checks the point cache an engine holds after serving only
/// `grid_line` (answered `reply`) against the lanes' point requests:
/// each lane a parallelism-1, cache-off engine answers ok must be cached
/// under its canonical key with exactly that reply's result bytes (which
/// also equal the DOM evaluation's), and nothing else may be cached.  A
/// lane whose point request errors (rejected, or infeasible) thus has no
/// entry.  Returns the error lanes.
std::size_t expect_lane_entries(serve::engine& engine,
                                serve::engine& reference,
                                const std::string& grid_line,
                                const std::vector<json::value>& points) {
    static const std::string ok_prefix = R"({"ok":true,"result":)";
    std::map<std::string, std::string> expected;
    std::size_t error_lanes = 0;
    for (const json::value& point : points) {
        serve::request req;
        try {
            req = serve::parse_request(point);
        } catch (const serve::request_error&) {
            ++error_lanes;
            continue;
        }
        const std::string ref = reference.handle_line(json::dump(point));
        if (ref.rfind(ok_prefix, 0) != 0) {
            ++error_lanes;
            continue;
        }
        const std::string body =
            ref.substr(ok_prefix.size(), ref.size() - ok_prefix.size() - 1);
        EXPECT_EQ(json::dump(reference.evaluate(req)), body);
        expected[req.canonical_key] = body;
    }
    std::map<std::string, std::string> cached = cached_entries(engine);
    expect_stored_metrics(engine, cached, grid_line);
    // The grid's own reply is cached under the grid's key.
    cached.erase(serve::parse_request(json::parse(grid_line)).canonical_key);
    EXPECT_EQ(cached.size(), expected.size()) << grid_line;
    for (const auto& [key, bytes] : cached) {
        const auto it = expected.find(key);
        if (it == expected.end()) {
            ADD_FAILURE() << "a lane that errors as a point was cached: "
                          << key << "\n  in " << grid_line;
            continue;
        }
        EXPECT_EQ(bytes, it->second) << key << "\n  in " << grid_line;
    }
    return error_lanes;
}

/// Sweeps over every numeric parameter of scenario1, scenario2 and the
/// seven yield models.  Each grid spans the parameter's default scaled
/// by factors in [-0.5, 2.5], so many grids cross zero into lanes the
/// library rejects, and integer parameters get non-integral lanes.
std::vector<std::string> generated_sweeps(std::uint64_t seed) {
    const std::vector<std::string> targets = {
        R"({"op":"scenario1"})",
        R"({"op":"scenario2"})",
        R"({"op":"scenario2","y0":0.6})",
        R"({"op":"yield","model":"poisson"})",
        R"({"op":"yield","model":"murphy"})",
        R"({"op":"yield","model":"seeds","expected_faults":0.7})",
        R"({"op":"yield","model":"bose_einstein"})",
        R"({"op":"yield","model":"neg_binomial","alpha":0.8})",
        R"({"op":"yield","model":"scaled_poisson"})",
        R"({"op":"yield","model":"reference"})",
    };
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> factor{-0.5, 2.5};
    std::vector<std::string> sweeps;
    for (const std::string& target : targets) {
        const json::value key = json::parse(
            serve::parse_request(json::parse(target)).canonical_key);
        for (const json::object::member& m : key.as_object().members()) {
            if (!m.second.is_number()) {
                continue;
            }
            const double v = m.second.as_number();
            const double base = v != 0.0 ? std::abs(v) : 1.0;
            const int count = 2 + static_cast<int>(rng() % 31);
            sweeps.push_back(R"({"op":"sweep","param":")" + m.first +
                             R"(","from":)" +
                             json::format_number(base * factor(rng)) +
                             R"(,"to":)" +
                             json::format_number(base * factor(rng)) +
                             R"(,"count":)" + std::to_string(count) +
                             R"(,"target":)" + target + "}");
        }
    }
    return sweeps;
}

/// partition_explore grids over splits drawn from {1, 2, 4, 8}, with
/// total areas up to 80,000 mm^2 (past a 30 cm wafer, so cells turn
/// infeasible) and a varied base.
std::vector<std::string> generated_explores(std::uint64_t seed) {
    const std::vector<std::string> splits = {"1", "1,2", "1,4,8",
                                             "1,2,4,8"};
    const std::vector<std::string> substrates = {"organic", "rdl",
                                                 "interposer"};
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    std::vector<std::string> explores;
    for (int g = 0; g < 12; ++g) {
        const double from = 20.0 + 3000.0 * unit(rng);
        const double to = from * (1.0 + 30.0 * unit(rng));
        explores.push_back(
            R"({"op":"partition_explore","splits":")" +
            splits[g % splits.size()] + R"(","area_from_mm2":)" +
            json::format_number(from) + R"(,"area_to_mm2":)" +
            json::format_number(to) + R"(,"count":)" +
            std::to_string(2 + rng() % 23) + R"(,"scale":")" +
            (g % 3 == 0 ? "log" : "linear") + R"(","defects_per_cm2":)" +
            json::format_number(0.05 + 2.0 * unit(rng)) +
            R"(,"d2d_area_mm2":)" + json::format_number(20.0 * unit(rng)) +
            R"(,"substrate":")" + substrates[rng() % substrates.size()] +
            "\"}");
    }
    return explores;
}

/// The dotted paths of every number in a canonical key (nested
/// objects included), e.g. "process.yield.y0".
void number_paths(const json::value& v, const std::string& prefix,
                  std::vector<std::string>& out) {
    for (const json::object::member& m : v.as_object().members()) {
        const std::string path =
            prefix.empty() ? m.first : prefix + "." + m.first;
        if (m.second.is_number()) {
            out.push_back(path);
        } else if (m.second.is_object()) {
            number_paths(m.second, path, out);
        }
    }
}

/// Lane values around `base`: signed zeros, integers (in and out of
/// every integer parameter's range), fractions, and a random grid.
std::vector<double> lane_values(double base, std::mt19937_64& rng) {
    std::vector<double> xs = {0.0,  -0.0, 1.0,  2.0,        7.0,   16.0,
                              17.0, -1.0, 0.5,  1e8,        1e8 + 1,
                              2147483648.0, 9007199254740993.0, 1e300,
                              base, -base,  base * 1e-7};
    std::uniform_real_distribution<double> factor{-0.5, 2.5};
    const double scale = base != 0.0 ? std::abs(base) : 1.0;
    for (int i = 0; i < 24; ++i) {
        xs.push_back(scale * factor(rng));
    }
    return xs;
}

/// Sweeps over every numeric parameter of targets with no batch kernel:
/// gross_die, cost_tr (nested process.*, product.* and economics.*
/// paths), chiplet (its integer chiplets included) and a small
/// mc_yield.  Like generated_sweeps, each grid spans the parameter's
/// default scaled by factors in [-0.5, 2.5], so grids cross into lanes
/// the library rejects and integer parameters get non-integral lanes.
std::vector<std::string> generated_scalar_sweeps(std::uint64_t seed) {
    const std::vector<std::string> targets = {
        R"({"op":"gross_die"})",
        R"({"op":"gross_die","method":"area_ratio"})",
        R"({"op":"cost_tr"})",
        R"({"op":"chiplet","chiplets":4,"substrate":"rdl"})",
        R"({"op":"mc_yield","dies":64})",
    };
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> factor{-0.5, 2.5};
    std::vector<std::string> sweeps;
    for (const std::string& target : targets) {
        const serve::request base = serve::parse_request(json::parse(target));
        std::vector<std::string> paths;
        number_paths(json::parse(base.canonical_key), "", paths);
        for (const std::string& path : paths) {
            if (!serve::numeric_param_exists(base, path)) {
                continue;
            }
            const double v = serve::numeric_param_value(base, path);
            const double scale = v != 0.0 ? std::abs(v) : 1.0;
            const int count = 2 + static_cast<int>(rng() % 15);
            sweeps.push_back(R"({"op":"sweep","param":")" + path +
                             R"(","from":)" +
                             json::format_number(scale * factor(rng)) +
                             R"(,"to":)" +
                             json::format_number(scale * factor(rng)) +
                             R"(,"count":)" + std::to_string(count) +
                             R"(,"target":)" + target + "}");
        }
    }
    return sweeps;
}

TEST(EngineLaneKeys, TemplateKeysMatchCanonicalKeys) {
    // Every lane of generated grids over every sweepable (op, param) —
    // double, integer and nested process.* parameters, mc_yield's seed
    // and dies: the template's key equals canonical_key_into of the
    // bound lane, byte for byte.  A rejected lane is never keyed.
    const std::vector<std::string> targets = {
        R"({"op":"cost_tr"})",
        R"({"op":"cost_tr","process":{"yield":{"model":"scaled"},
            "gross_die_method":"exact"},"product":{"name":"a \"b\""}})",
        R"({"op":"cost_tr","process":{"yield":{"model":"fixed","fixed":0.7}}})",
        R"({"op":"gross_die","method":"area_ratio"})",
        R"({"op":"yield","model":"poisson"})",
        R"({"op":"yield","model":"murphy"})",
        R"({"op":"yield","model":"seeds"})",
        R"({"op":"yield","model":"bose_einstein"})",
        R"({"op":"yield","model":"neg_binomial"})",
        R"({"op":"yield","model":"scaled_poisson"})",
        R"({"op":"yield","model":"reference"})",
        R"({"op":"scenario1"})",
        R"({"op":"scenario2","y0":0.6})",
        R"({"op":"mc_yield","dies":64})",
        R"({"op":"chiplet","chiplets":4,"substrate":"interposer"})",
    };
    std::mt19937_64 rng{0x6b657973u};
    std::size_t lanes = 0;
    std::size_t rejected = 0;
    std::size_t grids = 0;
    std::string got;
    std::string want;
    for (const std::string& target : targets) {
        const serve::request base =
            serve::parse_request(json::parse(target));
        std::vector<std::string> paths;
        number_paths(json::parse(base.canonical_key), "", paths);
        for (const std::string& path : paths) {
            if (!serve::numeric_param_exists(base, path)) {
                continue;
            }
            const serve::lane_key_template keys{base, path};
            ++grids;
            serve::request lane = base;
            const double v = serve::numeric_param_value(base, path);
            for (const double x : lane_values(v, rng)) {
                try {
                    serve::set_numeric_param(lane, path, x);
                } catch (const serve::request_error&) {
                    ++rejected;
                    continue;
                }
                got.clear();
                want.clear();
                keys.key_into(lane, got);
                serve::canonical_key_into(lane, want);
                ASSERT_EQ(got, want) << path << " = " << x;
                ++lanes;
            }
        }
    }
    EXPECT_GT(grids, 150u);
    EXPECT_GT(lanes, 6000u);
    EXPECT_GT(rejected, 50u);  // integer lanes off the integers or range
}

TEST(EngineLaneKeys, ATemplateRejectsAParameterOutsideTheKey) {
    // A template cuts the key at one number: a path that names no
    // number of the key (a string member, a block, an unknown name) is
    // a logic error.
    const serve::request base = serve::parse_request(
        json::parse(R"({"op":"cost_tr","product":{"name":"a"}})"));
    for (const std::string_view path :
         {"product.name", "process", "nope", "process.yield.model"}) {
        EXPECT_THROW((serve::lane_key_template{base, path}), std::logic_error)
            << path;
    }
    EXPECT_NO_THROW((serve::lane_key_template{base, "process.yield.y0"}));
}

TEST(Engine, SweepKernelLanesPopulateThePointCache) {
    // A point query after a sweep answers with the bytes of a fresh
    // scalar evaluation.  Lanes evaluated one by one land in the point
    // cache under their point-request canonical keys, so that query is a
    // warm hit; SoA-kernel lanes never enter the cache, so after a
    // kernel sweep it is a miss.
    struct sweep_case {
        std::string sweep;
        std::string point;
        bool kernel;
    };
    const std::vector<sweep_case> cases = {
        {R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.0,
             "count":2,"target":{"op":"scenario1"}})",
         R"({"op":"scenario1","lambda_um":1.0})", true},
        {R"({"op":"sweep","param":"lambda_um","from":0.6,"to":1.2,
             "count":2,"target":{"op":"scenario2","y0":0.8}})",
         R"({"op":"scenario2","lambda_um":1.2,"y0":0.8})", true},
        {R"({"op":"sweep","param":"expected_faults","from":0.5,"to":2,
             "count":2,"target":{"op":"yield","model":"murphy"}})",
         R"({"op":"yield","model":"murphy","expected_faults":2})", true},
        {R"({"op":"sweep","param":"die_area_cm2","from":0.5,"to":1.5,
             "count":2,"target":{"op":"yield","model":"reference"}})",
         R"({"op":"yield","model":"reference","die_area_cm2":1.5})", true},
        {R"({"op":"sweep","param":"die_width_mm","from":5,"to":9,
             "count":2,"target":{"op":"gross_die"}})",
         R"({"op":"gross_die","die_width_mm":9})", false},
        {R"({"op":"sweep","param":"product.transistors","from":1000000,
             "to":3000000,"count":2,"target":{"op":"cost_tr"}})",
         R"({"op":"cost_tr","product":{"transistors":3000000}})", false},
        {R"({"op":"sweep","param":"d2d_area_mm2","from":2,"to":6,
             "count":2,"target":{"op":"chiplet","chiplets":4}})",
         R"({"op":"chiplet","chiplets":4,"d2d_area_mm2":6})", false},
        {R"({"op":"sweep","param":"chiplets","from":0,"to":20,
             "count":11,"target":{"op":"chiplet"}})",
         R"({"op":"chiplet","chiplets":8})", false},
        {R"({"op":"sweep","param":"seed","from":1,"to":3,
             "count":3,"target":{"op":"mc_yield","dies":100}})",
         R"({"op":"mc_yield","dies":100,"seed":3})", false},
    };
    for (const sweep_case& c : cases) {
        serve::engine engine{config_with(1)};
        (void)engine.handle_line(c.sweep);
        const auto before = engine.cache_stats();
        const std::string warm = engine.handle_line(c.point);
        const auto after = engine.cache_stats();
        EXPECT_EQ(after.hits, before.hits + (c.kernel ? 0 : 1)) << c.point;
        EXPECT_EQ(after.misses, before.misses + (c.kernel ? 1 : 0))
            << c.point;

        // The answer equals a fresh evaluation's.
        serve::engine cold{config_with(1)};
        EXPECT_EQ(warm, cold.handle_line(c.point)) << c.point;
    }

    // Generated scalar grids: every entry a sweep leaves equals the
    // point reply, and no lane that errors as a point leaves one.
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};
    for (const unsigned parallelism : {1u, 4u}) {
        std::size_t lanes = 0;
        std::size_t error_lanes = 0;
        for (const std::string& sweep : generated_scalar_sweeps(0x5eed)) {
            serve::engine engine{config_with(parallelism)};
            const std::string reply = engine.handle_line(sweep);
            ASSERT_EQ(reply.rfind(R"({"ok":true,)", 0), 0u) << reply;
            const std::vector<json::value> points =
                grid_reference::sweep_points(sweep, reply);
            lanes += points.size();
            error_lanes +=
                expect_lane_entries(engine, reference, sweep, points);
        }
        // The grids cover both kinds of lane.
        EXPECT_GT(error_lanes, lanes / 10) << "parallelism=" << parallelism;
        EXPECT_LT(error_lanes, lanes / 2 + lanes / 4)
            << "parallelism=" << parallelism;
    }

    // Generated kernel grids: every lane equals its point reply's
    // metric, a lane that errors as a point is null, and the cache holds
    // only the sweep's own reply.
    for (const unsigned parallelism : {1u, 4u}) {
        std::size_t lanes = 0;
        std::size_t null_lanes = 0;
        for (const std::string& sweep : generated_sweeps(0x5eed)) {
            serve::engine engine{config_with(parallelism)};
            const std::string reply = engine.handle_line(sweep);
            ASSERT_EQ(reply.rfind(R"({"ok":true,)", 0), 0u) << reply;
            EXPECT_EQ(reply,
                      grid_reference::sweep_reference(reference, sweep, reply));
            EXPECT_EQ(engine.cache_stats().entries, 1u) << sweep;
            const json::value doc = json::parse(reply);
            for (const json::value& y : doc.as_object()
                                            .find("result")
                                            ->as_object()
                                            .find("ys")
                                            ->as_array()) {
                ++lanes;
                null_lanes += y.is_null() ? 1 : 0;
            }
        }
        // The grids cover both kinds of lane.
        EXPECT_GT(null_lanes, lanes / 10) << "parallelism=" << parallelism;
        EXPECT_LT(null_lanes, lanes / 2 + lanes / 4)
            << "parallelism=" << parallelism;
    }
}

TEST(Engine, CacheAwareSweepSplicesPrewarmedLanes) {
    // The lane planner probes the point cache per lane, evaluates the
    // missing lanes only, and splices the cached lanes back in lane
    // order — so a pre-warmed grid point is served from memory and the
    // response stays byte-identical at every thread count.  Grid
    // [10,50]x5 has exact-double lanes {10,20,30,40,50}.  A kernel sweep
    // over the same kind of grid ignores the pre-warmed points and is
    // byte-identical too.
    struct sweep_case {
        std::string sweep;
        std::vector<std::string> prewarm;
        bool kernel;
    };
    const std::vector<sweep_case> cases = {
        {R"({"op":"sweep","param":"die_width_mm","from":10,"to":50,
             "count":5,"target":{"op":"gross_die"}})",
         {R"({"op":"gross_die","die_width_mm":20})",
          R"({"op":"gross_die","die_width_mm":40})"},
         false},
        {R"({"op":"sweep","param":"lambda_um","from":1,"to":5,"count":5,
             "target":{"op":"scenario1"}})",
         {R"({"op":"scenario1","lambda_um":2})",
          R"({"op":"scenario1","lambda_um":4})"},
         true},
    };
    for (const sweep_case& c : cases) {
        SCOPED_TRACE(c.sweep);
        serve::engine cold{config_with(1, /*cache_capacity=*/0)};
        const std::string expected = cold.handle_line(c.sweep);

        for (unsigned parallelism : {1u, 4u, 0u}) {
            serve::engine engine{config_with(parallelism)};
            for (const std::string& point : c.prewarm) {
                (void)engine.handle_line(point);
            }
            const auto before = engine.cache_stats();
            EXPECT_EQ(engine.handle_line(c.sweep), expected)
                << "parallelism=" << parallelism;
            const auto after = engine.cache_stats();
            // Both pre-warmed lanes were cache hits inside a scalar
            // sweep; a kernel sweep never probes.
            EXPECT_EQ(after.hits, before.hits + (c.kernel ? 0 : 2))
                << "parallelism=" << parallelism;
        }
    }
}

TEST(Engine, FullyCachedSweepIsByteIdenticalToCold) {
    // A coarser sweep whose grid is a subset of an earlier fine sweep:
    // byte-identical to a cache-disabled engine's answer.  For the
    // scalar targets (gross_die, cost_tr through a nested path, chiplet
    // over d2d_area_mm2, and the integer chiplets with rejected lanes)
    // every ok lane is in the cache, so the lanes evaluate over zero
    // points and the response is pure splice; a kernel target
    // (scenario2) evaluates its lanes again.
    struct sweep_case {
        const char* grid;    ///< param, from and to of both sweeps
        const char* target;  ///< the target object
        int coarse_hits;     ///< ok lanes of the coarse sweep
    };
    const std::vector<sweep_case> cases = {
        {R"("param":"lambda_um","from":1,"to":5)",
         R"({"op":"scenario2","y0":0.8})", 0},
        {R"("param":"die_width_mm","from":10,"to":30)",
         R"({"op":"gross_die"})", 3},
        {R"("param":"product.transistors","from":1000000,"to":5000000)",
         R"({"op":"cost_tr"})", 3},
        {R"("param":"d2d_area_mm2","from":2,"to":10)",
         R"({"op":"chiplet","chiplets":4})", 3},
        {R"("param":"chiplets","from":0,"to":20)",
         R"({"op":"chiplet"})", 1},  // lanes 0, 10, 20: only 10 is ok
    };
    for (const sweep_case& c : cases) {
        SCOPED_TRACE(c.target);
        const auto sweep = [&](int count) {
            return std::string{R"({"op":"sweep",)"} + c.grid +
                   R"(,"count":)" + std::to_string(count) +
                   R"(,"target":)" + c.target + "}";
        };
        const std::string fine = sweep(5);
        const std::string coarse = sweep(3);
        serve::engine cold{config_with(1, /*cache_capacity=*/0)};
        const std::string expected = cold.handle_line(coarse);
        ASSERT_EQ(expected.rfind(R"({"ok":true,)", 0), 0u) << expected;

        serve::engine engine{config_with(4)};
        (void)engine.handle_line(fine);  // caches its ok lanes
        const auto before = engine.cache_stats();
        EXPECT_EQ(engine.handle_line(coarse), expected);
        const auto after = engine.cache_stats();
        EXPECT_EQ(after.hits, before.hits + c.coarse_hits)
            << "every ok coarse lane must splice from cache";
    }
}

TEST(Engine, ExploreLanesPopulateTheChipletPointCache) {
    // partition_explore cells run on the SoA chiplet kernel and never
    // enter the point cache: after an explore, a chiplet point request
    // for one of its cells is a miss, answered with a fresh evaluation's
    // bytes.  The chiplet point cache is fed by chiplet sweeps instead:
    // after one over d2d_area_mm2, each lane's point request is a hit
    // with the same bytes.  Defaults sum to 600 mm^2, so totals
    // {600,1200} scale by exact factors {1,2} and a handwritten point
    // request produces the same canonical doubles.
    serve::engine fresh{config_with(1, /*cache_capacity=*/0)};
    {
        serve::engine engine{config_with(1)};
        (void)engine.handle_line(
            R"({"op":"partition_explore","splits":"1,2","area_from_mm2":600,
                "area_to_mm2":1200,"count":2})");
        EXPECT_EQ(engine.cache_stats().entries, 1u);
        const auto before = engine.cache_stats();
        const std::vector<std::string> points = {
            R"({"op":"chiplet","chiplets":1})",  // total 600, factor 1
            R"({"op":"chiplet","chiplets":2,"logic_area_mm2":700,
                "memory_area_mm2":300,"io_area_mm2":200})",  // total 1200
        };
        for (const std::string& point : points) {
            EXPECT_EQ(engine.handle_line(point), fresh.handle_line(point))
                << point;
        }
        const auto after = engine.cache_stats();
        EXPECT_EQ(after.hits, before.hits);
        EXPECT_EQ(after.misses, before.misses + points.size());
    }
    {
        serve::engine engine{config_with(1)};
        (void)engine.handle_line(
            R"({"op":"sweep","param":"d2d_area_mm2","from":0,"to":20,
                "count":3,"target":{"op":"chiplet","chiplets":4,
                "substrate":"interposer"}})");
        const auto before = engine.cache_stats();
        const std::vector<std::string> points = {
            R"({"op":"chiplet","chiplets":4,"substrate":"interposer",
                "d2d_area_mm2":0})",
            R"({"op":"chiplet","chiplets":4,"substrate":"interposer",
                "d2d_area_mm2":10})",
            R"({"op":"chiplet","chiplets":4,"substrate":"interposer",
                "d2d_area_mm2":20})",
        };
        for (const std::string& point : points) {
            EXPECT_EQ(engine.handle_line(point), fresh.handle_line(point))
                << point;
        }
        const auto after = engine.cache_stats();
        EXPECT_EQ(after.hits, before.hits + points.size());
        EXPECT_EQ(after.misses, before.misses);
    }

    // Generated explores: every reply matches its chiplet point
    // requests, and the cache holds only the explore's own reply.
    // Generated chiplet sweeps over d2d_area_mm2, some with infeasible
    // lanes: every entry equals the chiplet point reply, and no lane
    // that errors as a point leaves one.
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};
    for (const unsigned parallelism : {1u, 4u}) {
        for (const std::string& explore : generated_explores(0xce11)) {
            serve::engine grid{config_with(parallelism)};
            const std::string reply = grid.handle_line(explore);
            ASSERT_EQ(reply.rfind(R"({"ok":true,)", 0), 0u) << reply;
            EXPECT_EQ(reply, grid_reference::explore_reference(
                                 reference, explore, reply));
            EXPECT_EQ(grid.cache_stats().entries, 1u) << explore;
        }
        std::mt19937_64 rng{0xd2d};
        std::uniform_real_distribution<double> unit{0.0, 1.0};
        std::size_t lanes = 0;
        std::size_t infeasible = 0;
        for (int g = 0; g < 12; ++g) {
            const std::string sweep =
                R"({"op":"sweep","param":"d2d_area_mm2","from":)" +
                json::format_number(-40.0 + 60.0 * unit(rng)) +
                R"(,"to":)" + json::format_number(30000.0 * unit(rng)) +
                R"(,"count":)" + std::to_string(2 + rng() % 23) +
                R"(,"target":{"op":"chiplet","chiplets":)" +
                std::to_string(1 + rng() % 8) + R"(,"logic_area_mm2":)" +
                json::format_number(100.0 + 4000.0 * unit(rng)) +
                R"(,"substrate":")" +
                (g % 3 == 0 ? "organic" : g % 3 == 1 ? "rdl" : "interposer") +
                "\"}}";
            serve::engine grid{config_with(parallelism)};
            const std::string reply = grid.handle_line(sweep);
            ASSERT_EQ(reply.rfind(R"({"ok":true,)", 0), 0u) << reply;
            const std::vector<json::value> points =
                grid_reference::sweep_points(sweep, reply);
            lanes += points.size();
            infeasible += expect_lane_entries(grid, reference, sweep, points);
        }
        EXPECT_GT(infeasible, lanes / 20) << "parallelism=" << parallelism;
        EXPECT_LT(infeasible, lanes / 2) << "parallelism=" << parallelism;
    }
}

TEST(Engine, EvaluateIntoWritesDumpBytesAndReturnsTheMetric) {
    // The one result path of every op: the bytes evaluate_into appends
    // are exactly json::dump of their own parse (member order, number
    // and string formatting), and the metric it returns is the parsed
    // primary-metric member bit for bit — NaN exactly when that member
    // is absent or null.  Inputs: every endpoint line, the generated
    // sweep and explore grids, and each grid's lanes as point requests.
    std::vector<std::string> lines = endpoint_lines();
    lines.insert(
        lines.end(),
        {
            R"({"op":"cost_tr","product":{"name":"Q\"x\\y\n\t\u0001é"}})",
            R"({"op":"gross_die","method":"circumference","scribe_mm":0.1})",
            R"({"op":"gross_die","method":"exact","die_width_mm":14})",
            R"({"op":"gross_die","die_width_mm":400,"die_height_mm":400})",
            R"({"op":"chiplet","chiplets":3,"substrate":"rdl"})",
            R"({"op":"chiplet","chiplets":16,"logic_area_mm2":2000})",
            R"({"op":"partition_explore","splits":"1,2","area_from_mm2":20,
                "area_to_mm2":60,"count":3})",
            R"({"op":"sweep","param":"dies","from":0,"to":200,"count":3,
                "target":{"op":"mc_yield","seed":5}})",
            R"({"op":"sweep","param":"chiplets","from":1,"to":17,"count":5,
                "target":{"op":"chiplet","substrate":"interposer"}})",
            R"({"op":"stats"})",
        });
    const std::vector<std::string> sweeps = generated_sweeps(0x5eed);
    const std::vector<std::string> explores = generated_explores(0xce11);

    for (const unsigned parallelism : {1u, 4u}) {
        serve::engine engine{config_with(parallelism)};
        std::size_t checked = 0;
        std::size_t metrics = 0;
        std::size_t errors = 0;
        // Checks one request line; false when it is rejected.
        const auto check = [&](const std::string& line) {
            SCOPED_TRACE(line);
            serve::request req;
            std::string bytes = "kept|";
            double metric = 0.0;
            try {
                req = serve::parse_request(json::parse(line));
                metric = engine.evaluate_into(req, bytes);
            } catch (const std::exception&) {
                ++errors;
                return false;
            }
            EXPECT_EQ(bytes.rfind("kept|", 0), 0u);
            const std::string body = bytes.substr(5);
            const json::value parsed = json::parse(body);
            EXPECT_EQ(json::dump(parsed), body);
            const char* name = serve::primary_metric(req.op);
            const json::value* member =
                name != nullptr ? parsed.as_object().find(name) : nullptr;
            EXPECT_EQ(std::isnan(metric),
                      member == nullptr || member->is_null());
            if (member != nullptr && member->is_number()) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(metric),
                          std::bit_cast<std::uint64_t>(member->as_number()));
                ++metrics;
            }
            ++checked;
            return true;
        };
        for (const std::string& line : lines) {
            EXPECT_TRUE(check(line)) << line;
        }
        for (const std::string& sweep : sweeps) {
            check(sweep);
            for (const json::value& point : grid_reference::sweep_points(
                     sweep, engine.handle_line(sweep))) {
                check(json::dump(point));
            }
        }
        for (const std::string& explore : explores) {
            check(explore);
            for (const std::vector<json::value>& row :
                 grid_reference::explore_points(
                     explore, engine.handle_line(explore))) {
                for (const json::value& point : row) {
                    check(json::dump(point));
                }
            }
        }
        // Every kind of outcome is covered: ok results with and without
        // a metric, and inputs the library rejects.
        EXPECT_GT(metrics, 1000u) << "parallelism=" << parallelism;
        EXPECT_GT(checked, metrics + sweeps.size() + explores.size())
            << "parallelism=" << parallelism;
        EXPECT_GT(errors, 100u) << "parallelism=" << parallelism;
    }
}

TEST(Engine, OverlappingExploreSplicesCachedCellsByteIdentical) {
    // A second explore over a sub-grid of the first: the response must
    // be byte-identical to a cache-disabled engine's at every thread
    // count, and no cell is a cache hit, since explore cells never enter
    // the point cache.  A chiplet sweep over the integer chiplets does
    // splice its overlap: a coarse 0..20 grid after a fine one answers
    // each ok lane (2..16 in steps of 2) from the cache, and its
    // rejected lanes (0, 18, 20) are never probed.
    struct overlap_case {
        std::string fine;
        std::string coarse;
        std::uint64_t coarse_hits;
    };
    const std::vector<overlap_case> cases = {
        {R"({"op":"partition_explore","splits":"1,2,4","area_from_mm2":100,
             "area_to_mm2":400,"count":4})",
         R"({"op":"partition_explore","splits":"1,2,4","area_from_mm2":100,
             "area_to_mm2":400,"count":2})",
         0},
        {R"({"op":"sweep","param":"chiplets","from":0,"to":20,"count":21,
             "target":{"op":"chiplet","substrate":"rdl"}})",
         R"({"op":"sweep","param":"chiplets","from":0,"to":20,"count":11,
             "target":{"op":"chiplet","substrate":"rdl"}})",
         8},
    };
    for (const overlap_case& c : cases) {
        SCOPED_TRACE(c.coarse);
        serve::engine cold{config_with(1, /*cache_capacity=*/0)};
        const std::string expected = cold.handle_line(c.coarse);

        for (unsigned parallelism : {1u, 4u, 0u}) {
            serve::engine engine{config_with(parallelism)};
            (void)engine.handle_line(c.fine);
            const auto before = engine.cache_stats();
            EXPECT_EQ(engine.handle_line(c.coarse), expected)
                << "parallelism=" << parallelism;
            const auto after = engine.cache_stats();
            EXPECT_EQ(after.hits, before.hits + c.coarse_hits)
                << "parallelism=" << parallelism;
        }
    }
}

TEST(Engine, KernelGridsCacheOnlyTheirOwnLine) {
    // The cache rule.  A sweep whose target has a batch kernel and a
    // partition_explore evaluate every lane on the kernel and never
    // touch the point cache: afterwards it holds exactly the grid line's
    // own reply, with fast_math off and on, at threads 1 and 4.  A sweep
    // with no kernel caches each ok lane under its point request's key,
    // with that point reply's bytes, under either fast_math setting.
    const std::vector<std::string> kernel_grids = {
        R"({"op":"sweep","param":"lambda_um","from":0.3,"to":1.5,
            "count":40,"target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","from":0.3,"to":1.5,
            "count":40,"target":{"op":"scenario2","y0":0.7}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,
            "count":40,"target":{"op":"yield","model":"poisson"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,
            "count":40,"target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,
            "count":40,"target":{"op":"yield","model":"seeds"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,
            "count":40,"target":{"op":"yield","model":"bose_einstein"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,
            "count":40,"target":{"op":"yield","model":"neg_binomial"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,
            "count":40,"target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":3,
            "count":40,"target":{"op":"yield","model":"reference"}})",
        R"({"op":"partition_explore","splits":"1,2,4,8","area_from_mm2":100,
            "area_to_mm2":2000,"count":16})",
    };
    const std::vector<std::string> scalar_grids = {
        R"({"op":"sweep","param":"die_width_mm","from":5,"to":40,
            "count":8,"target":{"op":"gross_die"}})",
        R"({"op":"sweep","param":"chiplets","from":0,"to":20,
            "count":21,"target":{"op":"chiplet"}})",
    };
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};
    for (const bool fast_math : {false, true}) {
        for (const unsigned parallelism : {1u, 4u}) {
            SCOPED_TRACE(testing::Message() << "fast_math=" << fast_math
                                            << " parallelism="
                                            << parallelism);
            serve::engine_config config = config_with(parallelism);
            config.fast_math = fast_math;
            for (const std::string& grid : kernel_grids) {
                serve::engine engine{config};
                const std::string reply = engine.handle_line(grid);
                ASSERT_EQ(reply.rfind(R"({"ok":true,)", 0), 0u) << reply;
                const auto after = engine.cache_stats();
                EXPECT_EQ(after.entries, 1u) << grid;
                EXPECT_EQ(after.hits, 0u) << grid;
                // The one entry is the line's own: a repeat is a hit.
                EXPECT_EQ(engine.handle_line(grid), reply) << grid;
                EXPECT_EQ(engine.cache_stats().hits, 1u) << grid;
            }
            for (const std::string& grid : scalar_grids) {
                serve::engine engine{config};
                const std::string reply = engine.handle_line(grid);
                ASSERT_EQ(reply.rfind(R"({"ok":true,)", 0), 0u) << reply;
                const std::vector<json::value> points =
                    grid_reference::sweep_points(grid, reply);
                const std::size_t errors =
                    expect_lane_entries(engine, reference, grid, points);
                EXPECT_EQ(engine.cache_stats().entries,
                          points.size() - errors + 1)
                    << grid;
            }
        }
    }
}

TEST(Engine, SweepInfeasiblePointsAreNull) {
    serve::engine engine{config_with(1)};
    // Lambda swept through zero: non-positive grid points infeasible.
    const std::string response = engine.handle_line(
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":-0.5,
            "count":3,"target":{"op":"scenario1"}})");
    const json::value doc = json::parse(response);
    const json::object& result =
        doc.as_object().find("result")->as_object();
    const json::array& ys = result.find("ys")->as_array();
    ASSERT_EQ(ys.size(), 3u);
    EXPECT_TRUE(ys[0].is_number());
    EXPECT_TRUE(ys[2].is_null());
}

TEST(Engine, EmptyBatch) {
    serve::engine engine{config_with(0)};
    EXPECT_TRUE(engine.handle_batch({}).empty());
}

TEST(Engine, BatchDedupCoalescesDuplicates) {
    serve::engine engine{config_with(1)};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario2","lambda_um":0.8})",
        R"({"lambda_um":0.5,"op":"scenario1"})",  // same canonical key
    };
    const std::vector<std::string> responses = engine.handle_batch(lines);
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(responses[0], responses[3]);
    EXPECT_NE(responses[0], responses[2]);

    // Two twins spliced from one representative evaluation.
    EXPECT_EQ(engine.dedup_hits(), 2u);
    const serve::endpoint_metrics& m =
        engine.metrics().at(serve::op_code::scenario1);
    EXPECT_EQ(m.requests.load(), 3u);
    EXPECT_EQ(m.cache_hits.load(), 2u);  // twins answered from cache
}

TEST(Engine, BatchDedupPreservesOrderAndIds) {
    serve::engine engine{config_with(0)};
    std::vector<std::string> lines;
    for (int i = 0; i < 24; ++i) {
        lines.push_back(R"({"id":)" + std::to_string(i) +
                        R"(,"op":"scenario1","lambda_um":0.5})");
    }
    const std::vector<std::string> responses = engine.handle_batch(lines);
    ASSERT_EQ(responses.size(), lines.size());
    for (int i = 0; i < 24; ++i) {
        const std::string prefix = R"({"id":)" + std::to_string(i) + ",";
        EXPECT_EQ(responses[i].substr(0, prefix.size()), prefix) << i;
    }
    EXPECT_EQ(engine.dedup_hits(), 23u);
}

TEST(Engine, BatchDedupDoesNotCoalesceErrors) {
    serve::engine engine{config_with(1)};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":-1})",
        R"({"op":"scenario1","lambda_um":-1})",
    };
    const std::vector<std::string> responses = engine.handle_batch(lines);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_NE(responses[0].find(R"("ok":false)"), std::string::npos);
    EXPECT_EQ(responses[0], responses[1]);

    // Errors are never cached, so the twin re-evaluated instead of
    // splicing a coalesced result: both attempts show up as errors.
    const serve::endpoint_metrics& m =
        engine.metrics().at(serve::op_code::scenario1);
    EXPECT_EQ(m.errors.load(), 2u);
    EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(Engine, BatchDedupDisabledLeavesBehaviorIntact) {
    // Dedup answers twins from the cache, so caching off turns it off.
    serve::engine engine{config_with(1, /*cache_capacity=*/0)};
    const std::vector<std::string> lines = {
        R"({"op":"scenario1","lambda_um":0.5})",
        R"({"op":"scenario1","lambda_um":0.5})",
    };
    const std::vector<std::string> responses = engine.handle_batch(lines);
    EXPECT_EQ(responses[0], responses[1]);
    EXPECT_EQ(engine.dedup_hits(), 0u);
}

std::uint64_t pool_runs() {
    return obs::metrics_registry::global()
        .get_counter("silicon_exec_pool_runs_total")
        .value();
}

TEST(EngineFanOut, WarmTwoLineBatchWakesNoWorker) {
    // Two warm lines are microseconds of work: below the grain the
    // batch runs inline on the caller at the default width — also when
    // a line's op is heavy but its result is already cached.
    const std::string point = R"({"id":1,"op":"scenario1","lambda_um":0.5})";
    for (const std::string& second :
         {std::string{R"({"id":2,"op":"yield","expected_faults":1.5})"},
          std::string{R"({"id":3,"op":"mc_yield","dies":20000})"}}) {
        SCOPED_TRACE(second);
        serve::engine engine{config_with(0)};
        const std::vector<std::string> lines = {point, second};
        const std::vector<std::string> cold = engine.handle_batch(lines);
        const std::uint64_t before = pool_runs();
        EXPECT_EQ(engine.handle_batch(lines), cold);
        EXPECT_EQ(pool_runs(), before);
        EXPECT_EQ(
            engine.metrics().at(serve::op_code::scenario1).cache_hits.load(),
            1u);
    }
}

TEST(EngineFanOut, McYieldBatchStillFansOut) {
    std::vector<std::string> lines;
    for (int i = 0; i < 32; ++i) {
        lines.push_back(R"({"id":)" + std::to_string(i) +
                        R"(,"op":"mc_yield","dies":2000,"seed":)" +
                        std::to_string(100 + i) + "}");
    }
    serve::engine serial{config_with(1)};
    const std::vector<std::string> expected = serial.handle_batch(lines);
    serve::engine engine{config_with(0)};
    const std::uint64_t before = pool_runs();
    EXPECT_EQ(engine.handle_batch(lines), expected);
    if (exec::thread_pool::hardware_threads() > 1) {
        EXPECT_GT(pool_runs(), before);
        EXPECT_NE(engine.prometheus_text().find(
                      "silicon_exec_pool_runs_total"),
                  std::string::npos);
    }
}

TEST(EngineFanOut, ErroredRepresentativeTwinsReEvaluateOnBothSidesOfTheGrain) {
    // Inline (a two-line batch) and fanned out (behind enough Monte-Carlo
    // work to cross the grain): the twin of an errored representative
    // finds nothing cached and re-evaluates, and both count as errors.
    const std::string bad = R"({"op":"scenario1","lambda_um":-1})";
    for (const std::size_t heavy : {std::size_t{0}, std::size_t{16}}) {
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < heavy; ++i) {
            lines.push_back(R"({"op":"mc_yield","dies":5000,"seed":)" +
                            std::to_string(i) + "}");
        }
        lines.push_back(bad);
        lines.push_back(bad);
        for (const unsigned parallelism : {1u, 0u}) {
            SCOPED_TRACE("heavy=" + std::to_string(heavy) +
                         " parallelism=" + std::to_string(parallelism));
            serve::engine engine{config_with(parallelism)};
            const std::vector<std::string> responses =
                engine.handle_batch(lines);
            ASSERT_EQ(responses.size(), lines.size());
            EXPECT_NE(responses[heavy].find(R"("ok":false)"),
                      std::string::npos);
            EXPECT_EQ(responses[heavy], responses[heavy + 1]);
            EXPECT_EQ(engine.dedup_hits(), 1u);
            EXPECT_EQ(
                engine.metrics().at(serve::op_code::scenario1).errors.load(),
                2u);
        }
    }
}

TEST(EngineFanOut, HandleBatchIntoGathersTheBatchRepliesInOrder) {
    serve::engine engine{config_with(0)};
    std::vector<std::string> lines = endpoint_lines();
    lines.push_back(lines.front());  // a twin
    lines.push_back("not json");
    std::string expected;
    for (const std::string& r : engine.handle_batch(lines)) {
        expected += r + "\n";
    }
    std::string gather = "kept|";
    engine.handle_batch_into(lines, gather);
    EXPECT_EQ(gather, "kept|" + expected);
}

std::uint64_t exec_counter(const char* name) {
    return obs::metrics_registry::global().get_counter(name).value();
}

/// Batch `rep` of the nested fan-out gate: fresh grid lines of every
/// kind that evaluates lanes in pool tasks — kernel sweeps, a yield
/// kernel sweep, a scalar-target (cost_tr) sweep, an mc_yield-target
/// sweep whose lanes fan out again, a sweep together with its
/// refinement (the two share every lane, in the same batch), the
/// refinement of the previous batch's sweep, partition_explore grids
/// and mc_yield runs.  Each number moves with `rep`, so every line and
/// nearly every lane is a cache miss.
std::vector<std::string> nested_gate_batch(int rep) {
    const auto num = [](double v) { return json::format_number(v); };
    const double k = 1.0 + 1e-6 * rep;
    const auto refine_of = [&](int r, int count) {
        const double kr = 1.0 + 1e-6 * r;
        return R"({"op":"sweep","param":"lambda_um","from":)" +
               num(0.35 * kr) + R"(,"to":)" + num(1.3 * kr) +
               R"(,"count":)" + std::to_string(count) +
               R"(,"target":{"op":"scenario2","y0":0.8}})";
    };
    std::vector<std::string> lines = {
        R"({"op":"sweep","param":"lambda_um","from":)" + num(0.3 * k) +
            R"(,"to":)" + num(1.4 * k) +
            R"(,"count":180,"target":{"op":"scenario1"}})",
        refine_of(rep, 170),
        refine_of(rep, 339),
        R"({"op":"sweep","param":"die_area_cm2","from":)" + num(0.1 * k) +
            R"(,"to":)" + num(3.5 * k) +
            R"(,"count":180,"target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"product.transistors","from":)" +
            num(1e6 * k) + R"(,"to":)" + num(1e8 * k) +
            R"(,"count":24,"scale":"log","target":{"op":"cost_tr"}})",
        R"({"op":"sweep","param":"defects_per_um2","from":)" +
            num(5e-5 * k) + R"(,"to":)" + num(2e-4 * k) +
            R"(,"count":3,"target":{"op":"mc_yield","dies":1500,"seed":)" +
            std::to_string(rep) + "}}",
        R"({"op":"partition_explore","splits":"1,2,4,8","area_from_mm2":)" +
            num(100.0 * k) + R"(,"area_to_mm2":)" + num(900.0 * k) +
            R"(,"count":40})",
        R"({"op":"partition_explore","splits":"1,3,6","substrate":"rdl",)"
        R"("area_from_mm2":)" +
            num(60.0 * k) + R"(,"area_to_mm2":)" + num(700.0 * k) +
            R"(,"count":32})",
        R"({"op":"mc_yield","dies":3000,"seed":)" + std::to_string(rep) +
            "}",
        R"({"op":"mc_yield","dies":1500,"line_spacing_um":1.2,"seed":)" +
            std::to_string(1000 + rep) + "}",
    };
    if (rep > 0) {
        lines.push_back(refine_of(rep - 1, 3 * 169 + 1));
    }
    return lines;
}

/// Every entry of an engine's point cache: key -> (bytes, the bits of
/// the metric stored beside them).
std::map<std::string, std::pair<std::string, std::uint64_t>> cache_contents(
    serve::engine& engine) {
    std::map<std::string, std::pair<std::string, std::uint64_t>> out;
    serve::memo_cache& cache = engine.cache();
    for (std::size_t i = 0; i < cache.shard_count(); ++i) {
        for (auto& [key, value] : cache.shard_snapshot(i)) {
            const std::optional<double> metric = stored_metric(cache, key);
            EXPECT_TRUE(metric.has_value()) << key;
            out.emplace(std::move(key),
                        std::pair{std::move(value),
                                  std::bit_cast<std::uint64_t>(
                                      metric.value_or(0.0))});
        }
    }
    return out;
}

TEST(EngineNestedFanOut, MixedGridBatchesMatchSerialEngines) {
    // The gate for nested fan-out: grid lines served as pool tasks fan
    // their lanes out again, onto idle workers and onto threads waiting
    // in a shallower join.  A waiting thread that ran a sibling line
    // would re-enter eval_lanes and overwrite its own thread's lane keys
    // while its grid's key shards still write into them (wrong bytes or
    // a cache entry under the wrong key).  Every batch's replies must
    // equal a serial cache-off engine's, and the cache must end up
    // holding exactly the entries, bytes and stored metrics of a serial
    // engine that served the same batches.
    constexpr std::size_t capacity = std::size_t{1} << 18;
    serve::engine engine{config_with(4, capacity)};
    serve::engine serial{config_with(1, capacity)};
    serve::engine reference{config_with(1, 0)};
    for (int rep = 0; rep < 50; ++rep) {
        const std::vector<std::string> lines = nested_gate_batch(rep);
        const std::vector<std::string> expected =
            reference.handle_batch(lines);
        for (const std::string& reply : expected) {
            ASSERT_NE(reply.find(R"("ok":true)"), std::string::npos)
                << reply;
        }
        ASSERT_EQ(engine.handle_batch(lines), expected) << "batch " << rep;
        ASSERT_EQ(serial.handle_batch(lines), expected) << "batch " << rep;
    }
    EXPECT_EQ(engine.cache_stats().evictions, 0u);
    EXPECT_EQ(serial.cache_stats().evictions, 0u);
    EXPECT_TRUE(cache_contents(engine) == cache_contents(serial));
}

// ---------------------------------------------------------------------------
// Segmented batches: the event loop serves every ready connection's
// lines as one batch of segments, one per connection.  Each segment
// must get exactly the bytes a batch of its own would.
// ---------------------------------------------------------------------------

/// `line` with `"id":i,"trace_id":"t<i>"` spliced in as its first
/// members.
std::string tagged(const std::string& line, std::size_t i) {
    return R"({"id":)" + std::to_string(i) + R"(,"trace_id":"t)" +
           std::to_string(i) + "\"," + line.substr(1);
}

/// Fresh grid lines of every kind (nested_gate_batch) with point lines,
/// twins across segments and an error line between them.
std::vector<std::string> segment_mix(int rep) {
    std::vector<std::string> lines = nested_gate_batch(rep);
    const std::vector<std::string>& points = endpoint_lines();
    lines.insert(lines.begin() + 2, points[static_cast<std::size_t>(rep)]);
    lines.insert(lines.begin() + 6, "not json");
    lines.push_back(lines.front());  // a twin in another segment
    lines.push_back(points[static_cast<std::size_t>(rep) + 1]);
    lines.push_back(lines[2]);
    return lines;
}

/// The segments served one after another, each as a batch of its own:
/// what per-connection batches write.  `reply_ends` gets each
/// segment's end offset.
std::string serve_in_turn(serve::engine& engine,
                          const std::vector<std::string>& lines,
                          const std::vector<std::size_t>& ends,
                          std::vector<std::size_t>& reply_ends) {
    std::string gather;
    reply_ends.clear();
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
        engine.handle_batch_into(
            std::span<const std::string>{lines}.subspan(begin, end - begin),
            gather);
        reply_ends.push_back(gather.size());
        begin = end;
    }
    return gather;
}

std::string serve_segmented(serve::engine& engine,
                            const std::vector<std::string>& lines,
                            const std::vector<std::size_t>& ends,
                            std::vector<std::size_t>& reply_ends) {
    std::string gather;
    reply_ends.assign(ends.size(), 0);
    engine.handle_batch_into(lines, ends, gather, reply_ends);
    return gather;
}

TEST(EngineSegments, OverLongSegmentIsTooLargeWholeWhileNeighboursAreServed) {
    serve::engine_config config = config_with(4);
    config.limits.max_batch_lines = 3;
    serve::engine engine{config};
    serve::engine in_turn{config};
    const std::vector<std::string>& points = endpoint_lines();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < 9; ++i) {
        lines.push_back(tagged(points[i], i));
    }
    const std::vector<std::size_t> ends = {2, 6, 9};
    std::vector<std::size_t> got_ends;
    std::vector<std::size_t> want_ends;
    const std::string got = serve_segmented(engine, lines, ends, got_ends);
    EXPECT_EQ(got, serve_in_turn(in_turn, lines, ends, want_ends));
    EXPECT_EQ(got_ends, want_ends);

    std::vector<std::string> got_replies;
    for (std::size_t at = 0, nl = got.find('\n'); nl != std::string::npos;
         at = nl + 1, nl = got.find('\n', at)) {
        got_replies.push_back(got.substr(at, nl - at));
    }
    ASSERT_EQ(got_replies.size(), lines.size());
    serve::engine reference{config_with(1, 0)};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const bool rejected = i >= 2 && i < 6;
        SCOPED_TRACE(got_replies[i]);
        EXPECT_EQ(got_replies[i].find(R"("code":"too_large")") !=
                      std::string::npos,
                  rejected);
        EXPECT_NE(got_replies[i].find("\"t" + std::to_string(i) + "\""),
                  std::string::npos);
        if (!rejected) {
            EXPECT_EQ(got_replies[i], reference.handle_line(lines[i]));
        }
    }
    EXPECT_EQ(engine.admission().rejected(
                  serve::reject_reason::batch_too_large),
              4u);
}

TEST(EngineSegments, OverBudgetSegmentIsOverloadedAndLeavesNoResidue) {
    serve::engine_config config = config_with(4);
    config.limits.max_inflight_bytes = 4096;
    serve::engine engine{config};
    serve::engine reference{config_with(1, 0)};
    const std::vector<std::string>& points = endpoint_lines();
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < 6; ++i) {
        lines.push_back(tagged(points[i], i));
    }
    // The middle segment's first line alone is over the budget.  Its
    // neighbours' bytes are in flight with it, so it is refused as a
    // batch arriving while another one is served would be (a batch
    // alone in flight is admitted at any size).
    lines[2] = R"({"op":"table3","row":3,"id":")" + std::string(5000, 'x') +
               R"(","trace_id":"t2"})";
    const std::vector<std::size_t> ends = {2, 4, 6};
    std::vector<std::size_t> got_ends;
    const std::string got = serve_segmented(engine, lines, ends, got_ends);
    EXPECT_EQ(engine.admission().inflight_bytes(), 0u);
    EXPECT_EQ(engine.admission().rejected(serve::reject_reason::overloaded),
              2u);

    std::string want;
    std::vector<std::size_t> want_ends;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i == 2 || i == 3) {
            serve::append_overloaded(serve::scan_trace_id(lines[i]), want);
        } else {
            want += reference.handle_line(lines[i]);
        }
        want += '\n';
        if (i % 2 == 1) {
            want_ends.push_back(want.size());
        }
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_ends, want_ends);

    // The refused segment left nothing behind: served again on its own,
    // it is admitted.
    std::string alone;
    engine.handle_batch_into(std::span<const std::string>{lines}.subspan(2, 2),
                             alone);
    EXPECT_EQ(alone.find("overloaded"), std::string::npos) << alone;
    EXPECT_EQ(engine.admission().inflight_bytes(), 0u);
}

TEST(EngineSegments, RepliesAndFlightRecordsStayInLineOrder) {
    serve::engine_config config = config_with(4);
    config.limits.max_batch_lines = 8;
    obs::flight_recorder& flight = obs::flight_recorder::instance();
    flight.clear();
    flight.set_deterministic(true);
    serve::engine engine{config};
    std::vector<std::string> lines = nested_gate_batch(7);
    const std::vector<std::string>& points = endpoint_lines();
    lines.insert(lines.end(), points.begin(), points.begin() + 10);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        lines[i] = tagged(lines[i], i);
    }
    // Segments of 5, 9 (over the bound) and the rest (at most 8).
    const std::vector<std::size_t> ends = {5, 14, lines.size()};
    ASSERT_LE(lines.size() - 14, 8u);
    std::vector<std::size_t> reply_ends;
    const std::string got = serve_segmented(engine, lines, ends, reply_ends);
    std::string dump;
    flight.export_jsonl(dump);
    flight.set_deterministic(false);
    flight.clear();

    const auto split = [](const std::string& text) {
        std::vector<json::value> out;
        for (std::size_t at = 0, nl = text.find('\n');
             nl != std::string::npos; at = nl + 1, nl = text.find('\n', at)) {
            out.push_back(json::parse(text.substr(at, nl - at)));
        }
        return out;
    };
    const std::vector<json::value> replies = split(got);
    const std::vector<json::value> records = split(dump);
    ASSERT_EQ(replies.size(), lines.size());
    ASSERT_EQ(records.size(), lines.size());
    EXPECT_EQ(reply_ends.back(), got.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        SCOPED_TRACE(lines[i]);
        const std::string trace = "t" + std::to_string(i);
        const bool rejected = i >= 5 && i < 14;
        const json::object& reply = replies[i].as_object();
        const json::object& record = records[i].as_object();
        EXPECT_EQ(reply.find("trace_id")->as_string(), trace);
        EXPECT_EQ(record.find("trace_id")->as_string(), trace);
        EXPECT_EQ(record.find("code")->as_string(),
                  rejected ? "too_large" : "ok");
        if (!rejected) {
            EXPECT_EQ(reply.find("id")->as_number(), static_cast<double>(i));
            EXPECT_EQ(record.find("id")->as_string(), std::to_string(i));
        }
    }
}

TEST(EngineSegments, BytesEqualPerConnectionBatchesServedInTurn) {
    serve::engine reference{config_with(1, 0)};
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        SCOPED_TRACE(parallelism);
        serve::engine combined{config_with(parallelism)};
        serve::engine in_turn{config_with(parallelism)};
        for (int rep = 0; rep < 3; ++rep) {
            // Twice each: the second pass answers from the cache.
            const std::vector<std::string> lines = segment_mix(rep);
            const std::size_t n = lines.size();
            std::string want;
            for (const std::string& r : reference.handle_batch(lines)) {
                want += r + "\n";
            }
            const std::vector<std::size_t> ends = {1, 5, 5, 9, n - 2, n};
            for (int pass = 0; pass < 2; ++pass) {
                std::vector<std::size_t> got_ends;
                std::vector<std::size_t> want_ends;
                const std::string got =
                    serve_segmented(combined, lines, ends, got_ends);
                EXPECT_EQ(got, serve_in_turn(in_turn, lines, ends, want_ends))
                    << "rep " << rep << " pass " << pass;
                EXPECT_EQ(got_ends, want_ends);
                EXPECT_EQ(got, want) << "rep " << rep << " pass " << pass;
            }
        }
    }
}

TEST(EngineFanOut, NestedRunsAndHelpedTasksMoveOnGridBatchesOnly) {
    // silicon_exec_nested_runs_total counts runs submitted from inside a
    // pool task that woke a worker, silicon_exec_helped_tasks_total the
    // tasks a waiting submitter ran for a deeper job.  A batch of cached
    // point lines fans out (parse, serve) but never nests; a batch of
    // grid lines nests in every line, and the thread that submitted the
    // batch helps the lines' Monte-Carlo shards while it waits.
    if (exec::thread_pool::hardware_threads() < 2) {
        GTEST_SKIP() << "a one-thread pool never fans out";
    }
    serve::engine engine{config_with(0)};
    std::vector<std::string> points;
    for (int i = 0; i < 64; ++i) {
        points.push_back(R"({"op":"scenario1","lambda_um":)" +
                         json::format_number(0.3 + 0.01 * i) + "}");
    }
    (void)engine.handle_batch(points);
    const std::uint64_t nested_before =
        exec_counter("silicon_exec_nested_runs_total");
    const std::uint64_t helped_before =
        exec_counter("silicon_exec_helped_tasks_total");
    const std::uint64_t runs_before = pool_runs();
    (void)engine.handle_batch(points);
    EXPECT_GT(pool_runs(), runs_before);
    EXPECT_EQ(exec_counter("silicon_exec_nested_runs_total"), nested_before);
    EXPECT_EQ(exec_counter("silicon_exec_helped_tasks_total"),
              helped_before);

    // Whether a waiting thread finds a shard left to help depends on
    // timing, so grid batches repeat (fresh each time) until one did.
    bool helped = false;
    for (int rep = 0; rep < 200 && !helped; ++rep) {
        const std::string seed = std::to_string(rep);
        (void)engine.handle_batch(
            {R"({"op":"mc_yield","dies":40000,"seed":)" + seed + "}",
             R"({"op":"sweep","param":"lambda_um","from":0.3,"to":1.2,)"
             R"("count":256,"target":{"op":"scenario2","x":)" +
                 json::format_number(1.5 + 1e-3 * rep) + "}}",
             R"({"op":"mc_yield","dies":30000,"seed":)" + seed + "7}",
             R"({"op":"partition_explore","splits":"1,2,4,8","count":64,)"
             R"("area_from_mm2":)" +
                 json::format_number(100.0 + rep) + "}"});
        helped = exec_counter("silicon_exec_helped_tasks_total") >
                 helped_before;
    }
    EXPECT_GT(exec_counter("silicon_exec_nested_runs_total"), nested_before);
    EXPECT_TRUE(helped);
    const std::string text = engine.prometheus_text();
    EXPECT_NE(text.find("silicon_exec_nested_runs_total"), std::string::npos);
    EXPECT_NE(text.find("silicon_exec_helped_tasks_total"),
              std::string::npos);
}

/// Serves every sweep at --threads 1/4/0 three ways — on a cold
/// engine, with caching off, and after each lane's point request was
/// answered on its own (so every lane splices from the cache) — and
/// checks every reply lane by lane against the per-point reference.
void expect_lanes_match_point_requests(
    const std::vector<std::string>& sweeps) {
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine cold{config_with(parallelism)};
        serve::engine uncached{config_with(parallelism, 0)};
        serve::engine warm{config_with(parallelism)};
        for (const std::string& line : sweeps) {
            SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                         " line=" + line);
            const std::string got = cold.handle_line(line);
            ASSERT_NE(got.find(R"("ok":true)"), std::string::npos) << got;
            EXPECT_EQ(got,
                      grid_reference::sweep_reference(reference, line, got));
            EXPECT_EQ(uncached.handle_line(line), got);
            for (const json::value& point :
                 grid_reference::sweep_points(line, got)) {
                (void)warm.handle_line(json::dump(point));
            }
            EXPECT_EQ(warm.handle_line(line), got);
        }
    }
}

TEST(Engine, SweepLanesMatchPointRequests) {
    // Every sweep lane — SoA-kernel targets and scalar-lane targets,
    // including infeasible (null) lanes — equals the primary metric of
    // its point request, at every thread count and cache state.
    const std::vector<std::string> sweeps = {
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,"count":7,
            "target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":-0.5,"count":5,
            "target":{"op":"scenario2","y0":0.85}})",
        R"({"op":"sweep","param":"y0","from":0.05,"to":1,"count":6,
            "scale":"log","target":{"op":"scenario2"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":4,"count":9,
            "target":{"op":"yield","model":"poisson"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.2,"to":3,"count":5,
            "target":{"op":"yield","model":"poisson","defects_per_cm2":0.5}})",
        R"({"op":"sweep","param":"lambda_um","from":0.4,"to":1.2,"count":6,
            "target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"d","from":0,"to":3,"count":5,
            "target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"a0_cm2","from":0.5,"to":2,"count":4,
            "target":{"op":"yield","model":"reference","y0":0.7}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":5,"count":8,
            "target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"alpha","from":-1,"to":3,"count":5,
            "target":{"op":"yield","model":"neg_binomial"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,"count":7,
            "target":{"op":"yield","model":"seeds"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":2,"count":6,
            "target":{"op":"yield","model":"seeds","defects_per_cm2":0.8}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":4,"count":6,
            "target":{"op":"yield","model":"bose_einstein",
                      "critical_steps":12}})",
        R"({"op":"sweep","param":"defects_per_cm2","from":-0.5,"to":1.5,
            "count":5,"target":{"op":"yield","model":"bose_einstein",
                                "die_area_cm2":0.8}})",
        R"({"op":"sweep","param":"expected_faults","from":-1,"to":3,"count":5,
            "target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"process.c0_usd","from":100,"to":3000,
            "count":5,"scale":"log","target":{"op":"cost_tr"}})",
        R"({"op":"sweep","param":"die_width_mm","from":2,"to":30,"count":5,
            "target":{"op":"gross_die"}})",
        R"({"op":"sweep","param":"logic_area_mm2","from":50,"to":800,
            "count":5,"target":{"op":"chiplet","chiplets":2}})",
        R"({"op":"sweep","param":"bond_yield","from":0.5,"to":1.5,"count":5,
            "target":{"op":"chiplet","chiplets":8}})",
    };
    expect_lanes_match_point_requests(sweeps);
}

TEST(SweepLanes, IntegerParametersMatchPointRequests) {
    // Integer-typed parameters: a lane is null exactly when its point
    // request is rejected (non-integral, outside the int or 2^53
    // range, dies outside [1, 1e8], chiplets outside [1, 16]) or fails
    // to evaluate.  Log grids land off the integers too.
    expect_lanes_match_point_requests({
        R"({"op":"sweep","param":"critical_steps","from":-2,"to":3,
            "count":11,"target":{"op":"yield","model":"bose_einstein",
                                 "expected_faults":1.5}})",
        R"({"op":"sweep","param":"critical_steps","from":2147483640,
            "to":2147483655,"count":6,
            "target":{"op":"yield","model":"bose_einstein"}})",
        R"({"op":"sweep","param":"critical_steps","from":1,"to":40,
            "count":5,"target":{"op":"yield","model":"poisson"}})",
        R"({"op":"sweep","param":"dies","from":0,"to":2,"count":5,
            "target":{"op":"mc_yield","seed":7}})",
        R"({"op":"sweep","param":"dies","from":100000001,"to":3e9,
            "count":2,"target":{"op":"mc_yield"}})",
        R"({"op":"sweep","param":"line_count","from":-1,"to":4,"count":11,
            "target":{"op":"mc_yield","dies":200}})",
        R"({"op":"sweep","param":"line_count","from":2147483648,"to":3e9,
            "count":2,"target":{"op":"mc_yield","dies":200}})",
        R"({"op":"sweep","param":"seed","from":-1,"to":3,"count":9,
            "target":{"op":"mc_yield","dies":100}})",
        R"({"op":"sweep","param":"seed","from":9007199254740990,
            "to":9007199254740994,"count":5,
            "target":{"op":"mc_yield","dies":100}})",
        R"({"op":"sweep","param":"chiplets","from":0,"to":20,"count":21,
            "target":{"op":"chiplet"}})",
        R"({"op":"sweep","param":"chiplets","from":0.5,"to":4.5,"count":9,
            "target":{"op":"chiplet","logic_area_mm2":600}})",
        R"({"op":"sweep","param":"chiplets","from":1,"to":16,"count":5,
            "scale":"log","target":{"op":"chiplet"}})",
    });
}

TEST(SweepLanes, McYieldTargetsMatchPointRequests) {
    expect_lanes_match_point_requests({
        R"({"op":"sweep","param":"defects_per_um2","from":0,"to":4e-4,
            "count":5,"target":{"op":"mc_yield","dies":300,"seed":3}})",
        R"({"op":"sweep","param":"line_spacing_um","from":-0.4,"to":1.6,
            "count":6,"target":{"op":"mc_yield","dies":200}})",
        R"({"op":"sweep","param":"extra_material_fraction","from":0,"to":1,
            "count":3,"target":{"op":"mc_yield","dies":250,"seed":9}})",
        R"({"op":"sweep","param":"defect_r0_um","from":0.2,"to":2,
            "count":4,"scale":"log","target":{"op":"mc_yield","dies":150}})",
    });
}

TEST(SweepLanes, McYieldSweepDeadlineIsDeadlineExceeded) {
    // The deadline reaches the Monte-Carlo lanes, and the sweep
    // re-raises it: never an ok reply with nulls where lanes were cut.
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine engine{config_with(parallelism)};
        const std::string zero = engine.handle_line(
            R"({"op":"sweep","deadline_ms":0,"param":"seed","from":1,
                "to":4,"count":4,"target":{"op":"mc_yield","dies":200}})");
        EXPECT_NE(zero.find(R"("code":"deadline_exceeded")"),
                  std::string::npos)
            << "parallelism=" << parallelism << " " << zero;
        const std::string late = engine.handle_line(
            R"({"op":"sweep","deadline_ms":1,"param":"seed","from":1,
                "to":8,"count":8,
                "target":{"op":"mc_yield","dies":20000000}})");
        EXPECT_NE(late.find(R"("code":"deadline_exceeded")"),
                  std::string::npos)
            << "parallelism=" << parallelism << " " << late;
        EXPECT_EQ(engine.deadline_exceeded_total(), 2u);
    }
}

TEST(Engine, PartitionExploreMatchesPointRequestsAcrossThreads) {
    // The crossover response is golden material: every cost cell equals
    // the chiplet point request for the rescaled base at that split,
    // byte for byte at every thread count and with caching off (the
    // acceptance property the silicond smoke pins end-to-end).
    const std::vector<std::string> lines = {
        R"({"op":"partition_explore"})",
        R"({"op":"partition_explore","splits":"1,2,4,8","count":17,
            "scale":"log","area_from_mm2":30,"area_to_mm2":1500})",
        R"({"op":"partition_explore","splits":"1,3","count":9,
            "substrate":"interposer","d2d_area_mm2":12})",
        // Tiny areas make fine splits infeasible (die smaller than a
        // grid cell never happens, but zero/negative per-die faults
        // regions exercise NaN lanes via the huge-area tail).
        R"({"op":"partition_explore","splits":"1,16","count":8,
            "area_from_mm2":5,"area_to_mm2":70000,"scale":"log"})",
    };
    serve::engine reference{config_with(1, /*cache_capacity=*/0)};
    std::vector<std::string> expected;
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine engine{config_with(parallelism)};
        serve::engine uncached{config_with(parallelism, 0)};
        for (std::size_t i = 0; i < lines.size(); ++i) {
            SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                         " line=" + lines[i]);
            const std::string got = engine.handle_line(lines[i]);
            if (parallelism == 1) {
                expected.push_back(got);
                EXPECT_EQ(got, grid_reference::explore_reference(
                                   reference, lines[i], got));
            }
            EXPECT_EQ(got, expected[i]);
            EXPECT_EQ(uncached.handle_line(lines[i]), got);
        }
    }
}

TEST(Engine, PartitionExploreFindsTheCrossover) {
    // The Chiplet Actuary qualitative result through the endpoint: the
    // monolithic die wins the small-area end of the default grid, a
    // multi-die split wins the large end, and crossover_area_mm2 marks
    // the first grid area where a split is cheaper.
    serve::engine engine{config_with(1)};
    const std::string response = engine.handle_line(
        R"({"op":"partition_explore","splits":"1,2,4","area_from_mm2":40,
            "area_to_mm2":1000,"count":25})");
    const json::value doc = json::parse(response);
    const json::object& result =
        doc.as_object().find("result")->as_object();

    const json::array& best = result.find("best_split")->as_array();
    ASSERT_EQ(best.size(), 25u);
    EXPECT_EQ(best.front().as_number(), 1.0);   // small: monolithic
    EXPECT_GT(best.back().as_number(), 1.0);    // large: split wins

    const json::value* crossover = result.find("crossover_area_mm2");
    ASSERT_NE(crossover, nullptr);
    ASSERT_TRUE(crossover->is_number());
    const json::array& xs = result.find("xs")->as_array();
    EXPECT_GT(crossover->as_number(), xs.front().as_number());
    EXPECT_LE(crossover->as_number(), xs.back().as_number());

    // ys is one cost row per split, null-padded where infeasible.
    const json::array& ys = result.find("ys")->as_array();
    ASSERT_EQ(ys.size(), 3u);
    for (const json::value& row : ys) {
        EXPECT_EQ(row.as_array().size(), 25u);
    }
}

TEST(Engine, PartitionExploreBudgetChargesGridCells) {
    // splits x count grid cells charge against max_sweep_points, under
    // the dedicated explore_too_large reason — structural, so the same
    // request is rejected identically every time.
    serve::engine_config config = config_with(1);
    config.limits.max_sweep_points = 32;
    serve::engine engine{config};

    // 3 splits x 10 points = 30 cells: admitted.
    const std::string ok = engine.handle_line(
        R"({"op":"partition_explore","splits":"1,2,4","count":10})");
    EXPECT_NE(ok.find(R"("ok":true)"), std::string::npos);

    // 3 splits x 11 points = 33 cells: rejected.
    const std::string rejected = engine.handle_line(
        R"({"op":"partition_explore","splits":"1,2,4","count":11})");
    EXPECT_NE(rejected.find(R"("code":"too_large")"), std::string::npos);
    EXPECT_NE(rejected.find("max_sweep_points"), std::string::npos);
    EXPECT_EQ(engine.admission().rejected(
                  serve::reject_reason::explore_too_large),
              1u);

    // A plain sweep still charges its own reason, not the explore one.
    const std::string sweep = engine.handle_line(
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1,"count":40,
            "target":{"op":"scenario1"}})");
    EXPECT_NE(sweep.find(R"("code":"too_large")"), std::string::npos);
    EXPECT_EQ(engine.admission().rejected(
                  serve::reject_reason::sweep_too_large),
              1u);
}

TEST(Engine, StatsAndPrometheusExposePartitionPricerCounters) {
    // The 2^n - 1 partition pricer's mask-memoization stats surface
    // through both observability channels.  The counters are
    // process-global and cumulative, so drive the optimizer first and
    // check the exposed values against the library accessors.
    const std::vector<silicon::opt::block> blocks = {
        {"a", 1e6, 100.0}, {"b", 2e6, 100.0}, {"c", 3e6, 100.0},
        {"d", 4e6, 100.0},
    };
    (void)silicon::opt::optimize_partitions(
        blocks,
        [](const std::vector<silicon::opt::block>& group) {
            double t = 0.0;
            for (const silicon::opt::block& b : group) {
                t += b.transistors;
            }
            return std::pair<double, double>{t * 1e-6, 0.5};
        },
        [](std::size_t dies) { return 2.0 * static_cast<double>(dies); });
    const std::uint64_t hits = silicon::opt::partition_pricer_hits();
    const std::uint64_t entries = silicon::opt::partition_pricer_entries();
    EXPECT_GE(entries, 15u);  // 2^4 - 1 subsets priced at least once
    EXPECT_GT(hits, entries); // every partition scan is memoized lookups

    serve::engine engine{config_with(1)};
    const std::string response =
        engine.handle_line(R"({"op":"stats"})");
    const json::value doc = json::parse(response);
    const json::object& pricer = doc.as_object()
                                     .find("result")
                                     ->as_object()
                                     .find("partition_pricer")
                                     ->as_object();
    EXPECT_EQ(pricer.find("hits")->as_number(),
              static_cast<double>(silicon::opt::partition_pricer_hits()));
    EXPECT_EQ(
        pricer.find("entries")->as_number(),
        static_cast<double>(silicon::opt::partition_pricer_entries()));

    const std::string text = engine.prometheus_text();
    EXPECT_NE(text.find("silicon_partition_pricer_hits_total"),
              std::string::npos);
    EXPECT_NE(text.find("silicon_partition_pricer_entries_total"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// fast_math (engine_config::fast_math): vector-path sweeps and
// partition grids.  Values may drift from the scalar path within the
// DESIGN.md §15 ULP bounds, but the contracts below are exact.
// ---------------------------------------------------------------------------

const std::vector<std::string>& fast_math_lines() {
    static const std::vector<std::string> lines = {
        R"({"op":"sweep","param":"lambda_um","from":0.3,"to":1.5,)"
        R"("count":64,"target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"lambda_um","from":0.3,"to":1.5,)"
        R"("count":64,"target":{"op":"scenario2","y0":0.7}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":64,"target":{"op":"yield","model":"poisson"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":64,"target":{"op":"yield","model":"murphy"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":64,"target":{"op":"yield","model":"seeds"}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":33,"target":{"op":"yield","model":"bose_einstein",)"
        R"("critical_steps":9}})",
        R"({"op":"sweep","param":"expected_faults","from":0,"to":6,)"
        R"("count":33,"target":{"op":"yield","model":"neg_binomial",)"
        R"("alpha":2.5}})",
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,)"
        R"("count":33,"target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":0.1,"to":4,)"
        R"("count":33,"target":{"op":"yield","model":"reference",)"
        R"("y0":0.7}})",
        R"({"op":"partition_explore","splits":"1,2,4,8","count":17,)"
        R"("area_from_mm2":30,"area_to_mm2":1500,"scale":"log"})",
    };
    return lines;
}

TEST(FastMath, SweepsDeterministicAcrossParallelism) {
    // fast_math is NOT bit-identical to scalar, but it must be
    // bit-identical to itself at every thread count (lanes are
    // independent; sub-range kernel calls compose bytewise).
    std::vector<std::vector<std::string>> outputs;
    for (const unsigned parallelism : {1u, 4u, 0u}) {
        serve::engine_config config = config_with(parallelism);
        config.fast_math = true;
        serve::engine engine{config};
        std::vector<std::string> out;
        for (const std::string& line : fast_math_lines()) {
            out.push_back(engine.handle_line(line));
        }
        outputs.push_back(std::move(out));
    }
    for (std::size_t i = 0; i < fast_math_lines().size(); ++i) {
        SCOPED_TRACE(fast_math_lines()[i]);
        EXPECT_EQ(outputs[0][i], outputs[1][i]);
        EXPECT_EQ(outputs[0][i], outputs[2][i]);
    }
}

TEST(FastMath, NullLanesMatchScalarSweeps) {
    // Sweeps crossing invalid parameter ranges: the vector path masks
    // guard lanes before the transcendental, so the set of JSON null
    // lanes must be identical to the scalar path's.
    const std::vector<std::string> lines = {
        R"({"op":"sweep","param":"alpha","from":-1,"to":2,"count":21,)"
        R"("target":{"op":"yield","model":"neg_binomial",)"
        R"("expected_faults":1.5}})",
        R"({"op":"sweep","param":"lambda_um","from":-0.5,"to":1.5,)"
        R"("count":21,"target":{"op":"yield","model":"scaled_poisson"}})",
        R"({"op":"sweep","param":"lambda_um","from":-0.5,"to":1.5,)"
        R"("count":21,"target":{"op":"scenario1"}})",
        R"({"op":"sweep","param":"y0","from":-0.2,"to":1.4,)"
        R"("count":21,"target":{"op":"scenario2"}})",
    };
    serve::engine_config fast_config = config_with(1);
    fast_config.fast_math = true;
    serve::engine fast{fast_config};
    serve::engine scalar{config_with(1)};
    for (const std::string& line : lines) {
        SCOPED_TRACE(line);
        const json::value fast_doc = json::parse(fast.handle_line(line));
        const json::value scalar_doc =
            json::parse(scalar.handle_line(line));
        const json::array& fast_ys = fast_doc.as_object()
                                         .find("result")
                                         ->as_object()
                                         .find("ys")
                                         ->as_array();
        const json::array& scalar_ys = scalar_doc.as_object()
                                           .find("result")
                                           ->as_object()
                                           .find("ys")
                                           ->as_array();
        ASSERT_EQ(fast_ys.size(), scalar_ys.size());
        bool any_null = false;
        for (std::size_t i = 0; i < fast_ys.size(); ++i) {
            EXPECT_EQ(fast_ys[i].is_null(), scalar_ys[i].is_null())
                << "lane " << i;
            any_null = any_null || scalar_ys[i].is_null();
        }
        EXPECT_TRUE(any_null) << "grid never crossed the invalid range";
    }
}

TEST(FastMath, SweepLanesDoNotPoisonPointCache) {
    // Fast sweep lanes must never populate the per-point memoization
    // cache: a point query after a fast sweep has to return the exact
    // scalar bytes (a cache hit fed by a fast lane would leak drifted
    // values into bit-exact workflows).
    serve::engine_config config = config_with(1);
    config.fast_math = true;
    serve::engine fast{config};
    serve::engine scalar{config_with(1)};

    // Sweep across a grid whose first point is exactly lambda 0.5 —
    // the same canonical key as the point query below.
    const std::string sweep =
        R"({"op":"sweep","param":"lambda_um","from":0.5,"to":1.5,)"
        R"("count":3,"target":{"op":"scenario2","y0":0.7}})";
    (void)fast.handle_line(sweep);
    (void)scalar.handle_line(sweep);

    const std::string point =
        R"({"op":"scenario2","lambda_um":0.5,"y0":0.7})";
    EXPECT_EQ(fast.handle_line(point), scalar.handle_line(point));
    // And again (now definitely a warm hit on both engines).
    EXPECT_EQ(fast.handle_line(point), scalar.handle_line(point));
}

TEST(FastMath, OffIsBitIdenticalToScalarEngine) {
    // The flag default: an engine with fast_math off serves exactly
    // the bytes of the pre-flag engine for the whole sweep surface.
    serve::engine_config off_config = config_with(1);
    off_config.fast_math = false;
    serve::engine off{off_config};
    serve::engine scalar{config_with(1)};
    for (const std::string& line : fast_math_lines()) {
        SCOPED_TRACE(line);
        EXPECT_EQ(off.handle_line(line), scalar.handle_line(line));
    }
}

TEST(FastMath, StatuszReportsSimdTargetAndFlag) {
    serve::engine_config config = config_with(1);
    config.fast_math = true;
    serve::engine engine{config};
    const json::value doc = engine.statusz_json();
    const json::object& cfg =
        doc.as_object().find("config")->as_object();
    EXPECT_TRUE(cfg.find("fast_math")->as_bool());
    const std::string& target = cfg.find("simd_target")->as_string();
    EXPECT_TRUE(target == "scalar" || target == "avx2" ||
                target == "neon");

    const std::string text = engine.prometheus_text();
    EXPECT_NE(text.find("silicon_build_info{simd_target=\"" + target +
                        "\",fast_math=\"on\"}"),
              std::string::npos);
}

}  // namespace
