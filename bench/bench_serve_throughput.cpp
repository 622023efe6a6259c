// Serving throughput: requests/second through serve::engine, measured
// two ways.
//
// 1. The memoization gate (unchanged from the first serve bench): a
//    mixed batch of unique queries served cold, then the same batch
//    again fully warm.  The warm pass exercises only the zero-allocation
//    hot path (arena parse, canonical probe, envelope splice) and must
//    beat the serial cold pass by >= 5x.
//
// 2. The cold-batch ablation gate (the perf target of the batch
//    execution work): a sweep-heavy, duplicate-heavy batch served by a
//    fresh engine with the batch machinery ON (hot path, intra-batch
//    dedup) versus a fresh engine with both flags OFF.  Responses must
//    be byte-identical; throughput must be >= 3x.  This is an
//    apples-to-apples single-process A/B — the same binary, the same
//    workload, only the engine_config flags differ.  Sweeps run on the
//    one lane planner either way; the kernel-vs-per-point speedup is
//    gated by bench_batch_kernels and bench_chiplet.
//
// Results land in BENCH_serve.json (machine readable, git-tracked).
// SILICON_BENCH_TINY=1 shrinks the workload and skips both gates so CI
// smoke runs stay cheap and unflaky.

#include "serve/engine.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace {

namespace serve = silicon::serve;
namespace json = silicon::serve::json;

std::string num(double v) { return json::format_number(v); }

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// A deterministic mixed workload: every line unique, every endpoint
/// except stats represented.  Weighted toward evaluation-heavy
/// requests (Monte-Carlo yield, multi-point sweeps) — the realistic
/// serving mix, and the work memoization actually saves.  `n` should
/// be a multiple of 8.
std::vector<std::string> make_requests(std::size_t n) {
    std::vector<std::string> lines;
    lines.reserve(n);
    for (std::size_t i = 0; lines.size() < n; ++i) {
        const double lambda = 0.35 + 0.0001 * static_cast<double>(i);
        switch (i % 8) {
        case 0:
            lines.push_back(R"({"op":"scenario1","lambda_um":)" + num(lambda) +
                            "}");
            break;
        case 1:
            lines.push_back(R"({"op":"scenario2","lambda_um":)" + num(lambda) +
                            "}");
            break;
        case 2:
            lines.push_back(R"({"op":"cost_tr","product":{"transistors":)" +
                            num(1e6 + static_cast<double>(i)) + "}}");
            break;
        case 3:
            lines.push_back(R"({"op":"gross_die","die_width_mm":)" +
                            num(5.0 + 0.001 * static_cast<double>(i)) +
                            R"(,"die_height_mm":8.0})");
            break;
        case 4:
            lines.push_back(R"({"op":"yield","model":"murphy","die_area_cm2":)" +
                            num(0.5 + 0.0001 * static_cast<double>(i)) +
                            R"(,"defects_per_cm2":0.8})");
            break;
        case 5:
            lines.push_back(R"({"op":"mc_yield","dies":1500,"seed":)" +
                            std::to_string(i) + "}");
            break;
        case 6:
            lines.push_back(R"({"op":"mc_yield","dies":1500,"line_count":)" +
                            std::to_string(10 + i % 20) + R"(,"seed":)" +
                            std::to_string(i) + "}");
            break;
        default:
            lines.push_back(
                R"({"op":"sweep","param":"lambda_um","from":)" + num(lambda) +
                R"(,"to":)" + num(lambda + 0.4) +
                R"(,"count":16,"target":{"op":"scenario2"}})");
            break;
        }
    }
    return lines;
}

/// The cold-batch ablation workload: half multi-point sweeps (the SoA
/// kernel surface), half point queries repeated `dup` times each (the
/// intra-batch dedup surface).  `n` lines total.
std::vector<std::string> make_batch_workload(std::size_t n,
                                             std::size_t sweep_count,
                                             std::size_t dup) {
    std::vector<std::string> lines;
    lines.reserve(n);
    std::size_t unique = 0;
    while (lines.size() < n) {
        const double lambda = 0.4 + 0.001 * static_cast<double>(unique);
        if (unique % 2 == 0) {
            // Sweeps over the kernel-eligible targets.
            const char* target = (unique % 4 == 0)
                                     ? R"({"op":"scenario2"})"
                                     : R"({"op":"scenario1"})";
            lines.push_back(R"({"op":"sweep","param":"lambda_um","from":)" +
                            num(lambda) + R"(,"to":)" + num(lambda + 0.6) +
                            R"(,"count":)" + std::to_string(sweep_count) +
                            R"(,"target":)" + target + "}");
        } else {
            // Point queries, each duplicated across the batch.
            const std::string line =
                R"({"op":"scenario1","lambda_um":)" + num(lambda) + "}";
            for (std::size_t d = 0; d < dup && lines.size() < n; ++d) {
                lines.push_back(line);
            }
        }
        ++unique;
    }
    return lines;
}

double run_pass(serve::engine& engine, const std::vector<std::string>& lines,
                std::vector<std::string>* responses_out = nullptr) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> responses = engine.handle_batch(lines);
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    const double rate = static_cast<double>(responses.size()) / seconds;
    if (responses_out != nullptr) {
        *responses_out = std::move(responses);
    }
    return rate;
}

}  // namespace

int main() {
    const bool tiny = tiny_mode();
    const std::size_t kRequests = tiny ? 64 : 8192;
    const std::size_t kBatchLines = tiny ? 64 : 2048;
    const std::size_t kSweepCount = tiny ? 8 : 64;
    const std::size_t kDup = 8;
    const std::vector<std::string> lines = make_requests(kRequests);

    // --- Pass set 1: the memoization gate ------------------------------
    serve::engine_config serial_config;
    serial_config.parallelism = 1;
    serve::engine serial_engine{serial_config};
    const double serial_cold = run_pass(serial_engine, lines);

    serve::engine_config pooled_config;
    pooled_config.parallelism = 0;
    serve::engine pooled_engine{pooled_config};
    const double pooled_cold = run_pass(pooled_engine, lines);
    const double cache_warm = run_pass(pooled_engine, lines);

    const serve::memo_cache::stats cache = pooled_engine.cache_stats();

    std::printf("bench_serve_throughput (%zu unique mixed requests)\n",
                kRequests);
    std::printf("  %-22s %12.0f req/s\n", "serial cold", serial_cold);
    std::printf("  %-22s %12.0f req/s  (%.2fx serial)\n", "pooled cold",
                pooled_cold, pooled_cold / serial_cold);
    std::printf("  %-22s %12.0f req/s  (%.2fx serial)\n", "cache warm",
                cache_warm, cache_warm / serial_cold);
    std::printf("  cache: %zu hits / %zu misses / %zu entries\n",
                static_cast<std::size_t>(cache.hits),
                static_cast<std::size_t>(cache.misses),
                static_cast<std::size_t>(cache.entries));

    // --- Pass set 2: the cold-batch ablation gate ----------------------
    const std::vector<std::string> batch =
        make_batch_workload(kBatchLines, kSweepCount, kDup);

    serve::engine_config on_config;
    on_config.parallelism = 0;
    serve::engine on_engine{on_config};

    serve::engine_config off_config;
    off_config.parallelism = 0;
    off_config.hot_path = false;
    off_config.batch_dedup = false;
    serve::engine off_engine{off_config};

    std::vector<std::string> on_responses;
    std::vector<std::string> off_responses;
    const double batch_on = run_pass(on_engine, batch, &on_responses);
    const double batch_off = run_pass(off_engine, batch, &off_responses);
    const bool identical = on_responses == off_responses;

    std::printf(
        "cold batch ablation (%zu lines: %zu-point sweeps + x%zu dups)\n",
        kBatchLines, kSweepCount, kDup);
    std::printf("  %-22s %12.0f req/s\n", "flags off", batch_off);
    std::printf("  %-22s %12.0f req/s  (%.2fx off)\n", "flags on", batch_on,
                batch_on / batch_off);
    std::printf("  dedup hits %zu, arena bytes %zu, responses %s\n",
                static_cast<std::size_t>(on_engine.dedup_hits()),
                static_cast<std::size_t>(on_engine.arena_bytes()),
                identical ? "byte-identical" : "DIFFER");

    // --- Machine-readable results --------------------------------------
    json::object doc;
    doc.set("bench", json::value{std::string{"bench_serve_throughput"}});
    doc.set("tiny", json::value{tiny});
    json::object warm;
    warm.set("requests", json::value{static_cast<double>(kRequests)});
    warm.set("serial_cold_req_per_s", json::value{serial_cold});
    warm.set("pooled_cold_req_per_s", json::value{pooled_cold});
    warm.set("cache_warm_req_per_s", json::value{cache_warm});
    warm.set("warm_speedup_vs_serial", json::value{cache_warm / serial_cold});
    warm.set("required_speedup", json::value{5.0});
    doc.set("memoization", json::value{std::move(warm)});
    json::object cold;
    cold.set("lines", json::value{static_cast<double>(kBatchLines)});
    cold.set("sweep_count", json::value{static_cast<double>(kSweepCount)});
    cold.set("dup_factor", json::value{static_cast<double>(kDup)});
    cold.set("flags_off_req_per_s", json::value{batch_off});
    cold.set("flags_on_req_per_s", json::value{batch_on});
    cold.set("speedup", json::value{batch_on / batch_off});
    cold.set("required_speedup", json::value{3.0});
    cold.set("responses_identical", json::value{identical});
    cold.set("dedup_hits",
             json::value{static_cast<double>(on_engine.dedup_hits())});
    cold.set("arena_bytes",
             json::value{static_cast<double>(on_engine.arena_bytes())});
    doc.set("cold_batch_ablation", json::value{std::move(cold)});

    bool gate_pass = identical && cache.hits >= kRequests;
    if (!tiny) {
        gate_pass = gate_pass && cache_warm >= 5.0 * serial_cold &&
                    batch_on >= 3.0 * batch_off;
    }
    json::object gate;
    gate.set("skipped", json::value{tiny});
    gate.set("pass", json::value{gate_pass});
    doc.set("gate", json::value{std::move(gate)});

    const std::string path = "BENCH_serve.json";
    std::ofstream file{path, std::ios::binary | std::ios::trunc};
    file << json::dump(json::value{std::move(doc)}) << "\n";
    file.close();
    std::printf("[json] wrote %s\n", path.c_str());

    // --- Gates ----------------------------------------------------------
    if (!identical) {
        std::printf("FAIL: ablation responses differ\n");
        return 1;
    }
    if (cache.hits < kRequests) {
        std::printf("FAIL: warm pass was not fully cached\n");
        return 1;
    }
    if (tiny) {
        std::printf("OK: tiny mode, speedup gates skipped\n");
        return 0;
    }
    if (cache_warm < 5.0 * serial_cold) {
        std::printf("FAIL: cache warm %.2fx serial, want >= 5x\n",
                    cache_warm / serial_cold);
        return 1;
    }
    if (batch_on < 3.0 * batch_off) {
        std::printf("FAIL: cold batch %.2fx with flags on, want >= 3x\n",
                    batch_on / batch_off);
        return 1;
    }
    std::printf("OK: warm >= 5x serial cold, cold batch >= 3x flags-off\n");
    return 0;
}
