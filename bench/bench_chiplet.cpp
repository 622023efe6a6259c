// bench_chiplet.cpp — throughput of the chiplet partition kernel
// (chiplet/batch.hpp) against the per-point serve path it lets
// `partition_explore` skip, plus the crossover-stability check that
// backs the partition_explore golden corpus.
//
// Two scalar baselines are measured, mirroring bench_batch_kernels:
//
//   engine per-point  - the generic sweep shape over the `chiplet`
//                       endpoint, kept only here as the baseline: per
//                       grid point, clone the target JSON doc, poke the
//                       area, re-canonicalize through parse_request,
//                       evaluate_into the result bytes, and re-parse
//                       them to extract cost_per_good_system_usd.
//                       This is the gated comparison (>= 4x).
//   library scalar    - scaled_to_total + evaluate_chiplet per lane.
//                       Not gated; it is the bit-exactness reference
//                       (the kernel calls the same scalar core, so any
//                       mismatch is a real defect, not rounding).
//
// The crossover check is deterministic and runs even in tiny mode: one
// partition_explore request is served at parallelism 1/4/0, all three
// responses must be byte-identical, monolithic must win the low end of
// the grid and a split the high end (Chiplet Actuary's die-size
// crossover, arXiv:2203.12268).
//
// Results land in BENCH_chiplet.json (machine readable, git-tracked);
// an optional argv[1] overrides the output path so the ctest smoke can
// write into the build tree.  SILICON_BENCH_TINY=1 shrinks the
// workload and skips the speedup gate.

#include "chiplet/batch.hpp"
#include "chiplet/model.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace chiplet = silicon::chiplet;
namespace serve = silicon::serve;
namespace json = silicon::serve::json;

namespace {

bool tiny_mode() {
    const char* v = std::getenv("SILICON_BENCH_TINY");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// Time `work()` repeatedly until `min_seconds` elapses; returns lanes
/// per second.
double rate_lanes_per_s(std::size_t lanes, double min_seconds,
                        const std::function<void()>& work) {
    using clock = std::chrono::steady_clock;
    std::size_t reps = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    do {
        work();
        ++reps;
        elapsed = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < min_seconds);
    return static_cast<double>(lanes) * static_cast<double>(reps) / elapsed;
}

/// Linear total-area grid over the range the golden corpus sweeps.
std::vector<double> area_grid(std::size_t n) {
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = 40.0 + 960.0 * static_cast<double>(i) /
                           static_cast<double>(n > 1 ? n - 1 : 1);
    }
    return xs;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string path = argc > 1 ? argv[1] : "BENCH_chiplet.json";
    const bool tiny = tiny_mode();
    const std::size_t kernel_lanes = tiny ? 2048 : std::size_t{1} << 16;
    const std::size_t engine_lanes = tiny ? 128 : 8192;
    const double min_seconds = tiny ? 0.01 : 0.2;
    constexpr double required_speedup = 4.0;
    constexpr int kChiplets = 4;

    const chiplet::chiplet_spec base;  // the serve-layer defaults

    // Bit-exactness first: the speedup is only meaningful if the kernel
    // reproduces the scalar library bits lane for lane.
    bool bit_exact = true;
    {
        const std::vector<double> xs = area_grid(2048);
        std::vector<double> out(xs.size());
        chiplet::batch::cost_per_good_system(base, kChiplets, xs.data(),
                                             out.data(), xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            chiplet::chiplet_spec spec =
                chiplet::scaled_to_total(base, xs[i]);
            spec.chiplets = kChiplets;
            const double expected =
                chiplet::evaluate_chiplet(spec).cost_per_good_system_usd;
            if (std::memcmp(&expected, &out[i], sizeof expected) != 0) {
                bit_exact = false;
                std::printf("FAIL: chiplet kernel lane %zu differs\n", i);
                break;
            }
        }
    }

    // Kernel and library-scalar rates.
    const std::vector<double> xs = area_grid(kernel_lanes);
    std::vector<double> out(xs.size());
    const double kernel_rate = rate_lanes_per_s(kernel_lanes, min_seconds, [&] {
        chiplet::batch::cost_per_good_system(base, kChiplets, xs.data(),
                                             out.data(), xs.size());
    });
    const double library_rate =
        rate_lanes_per_s(kernel_lanes, min_seconds, [&] {
            for (std::size_t i = 0; i < xs.size(); ++i) {
                chiplet::chiplet_spec spec =
                    chiplet::scaled_to_total(base, xs[i]);
                spec.chiplets = kChiplets;
                out[i] = chiplet::evaluate_chiplet(spec)
                             .cost_per_good_system_usd;
            }
        });

    // The per-point path a naive explore would take: the generic sweep
    // shape over the `chiplet` endpoint, step for step (JSON clone ->
    // member poke -> parse_request -> evaluate_into (the result bytes)
    // -> re-parse -> metric extraction).
    serve::engine_config config;
    config.parallelism = 1;
    config.cache_capacity = 0;  // honest cold per-point evaluation
    serve::engine engine{config};
    const json::value target_doc =
        json::parse("{\"op\":\"chiplet\",\"chiplets\":4}");
    const std::vector<double> exs = area_grid(engine_lanes);
    std::vector<double> eout(exs.size());
    const double engine_rate = rate_lanes_per_s(engine_lanes, min_seconds, [&] {
        for (std::size_t i = 0; i < exs.size(); ++i) {
            json::value doc = target_doc;
            doc.as_object().set("logic_area_mm2", json::value{exs[i]});
            const serve::request point = serve::parse_request(doc);
            std::string result;
            (void)engine.evaluate_into(point, result);
            const json::value parsed = json::parse(result);
            eout[i] = parsed.as_object()
                          .find(serve::primary_metric(point.op))
                          ->as_number();
        }
    });

    std::printf(
        "chiplet kernel %12.0f lanes/s | library %12.0f (%5.1fx) | "
        "engine per-point %10.0f (%5.1fx) | bit-exact %s\n",
        kernel_rate, library_rate, kernel_rate / library_rate, engine_rate,
        kernel_rate / engine_rate, bit_exact ? "yes" : "NO");

    // Crossover stability: the same explore request must serialize
    // byte-identically at every thread count, and the crossover must
    // exist with monolithic winning the low end.  Deterministic, so it
    // runs even in tiny mode.
    const std::string explore_line =
        "{\"op\":\"partition_explore\",\"splits\":\"1,2,4\","
        "\"area_from_mm2\":40,\"area_to_mm2\":1000,\"count\":25}";
    std::string reference;
    bool responses_identical = true;
    for (const unsigned threads : {1u, 4u, 0u}) {
        serve::engine_config c;
        c.parallelism = threads;
        serve::engine e{c};
        const std::string response = e.handle_line(explore_line);
        if (reference.empty()) {
            reference = response;
        } else if (response != reference) {
            responses_identical = false;
            std::printf("FAIL: partition_explore differs at threads=%u\n",
                        threads);
        }
    }
    double crossover_area = 0.0;
    bool monolithic_wins_low = false;
    bool split_wins_high = false;
    try {
        const json::value parsed = json::parse(reference);
        const json::object& result =
            parsed.as_object().find("result")->as_object();
        const json::value* crossover = result.find("crossover_area_mm2");
        if (crossover != nullptr && crossover->is_number()) {
            crossover_area = crossover->as_number();
        }
        const json::array& best = result.find("best_split")->as_array();
        monolithic_wins_low =
            !best.empty() && best.front().is_number() &&
            best.front().as_number() == 1.0;
        split_wins_high = !best.empty() && best.back().is_number() &&
                          best.back().as_number() > 1.0;
    } catch (const std::exception& e) {
        std::printf("FAIL: explore response unparsable: %s\n", e.what());
        responses_identical = false;
    }
    const bool crossover_ok = responses_identical && crossover_area > 0.0 &&
                              monolithic_wins_low && split_wins_high;
    std::printf(
        "crossover %8.1f mm^2 | monolithic wins low end %s | split wins "
        "high end %s | responses identical %s\n",
        crossover_area, monolithic_wins_low ? "yes" : "NO",
        split_wins_high ? "yes" : "NO", responses_identical ? "yes" : "NO");

    const bool speedup_ok = kernel_rate >= required_speedup * engine_rate;

    // Machine-readable results.
    json::object doc;
    doc.set("bench", json::value{std::string{"bench_chiplet"}});
    doc.set("tiny", json::value{tiny});
    doc.set("required_speedup_vs_engine", json::value{required_speedup});
    json::object kernel;
    kernel.set("lanes", json::value{static_cast<double>(kernel_lanes)});
    kernel.set("chiplets", json::value{static_cast<double>(kChiplets)});
    kernel.set("kernel_lanes_per_s", json::value{kernel_rate});
    kernel.set("library_scalar_lanes_per_s", json::value{library_rate});
    kernel.set("engine_perpoint_lanes_per_s", json::value{engine_rate});
    kernel.set("speedup_vs_library", json::value{kernel_rate / library_rate});
    kernel.set("speedup_vs_engine", json::value{kernel_rate / engine_rate});
    kernel.set("bit_exact", json::value{bit_exact});
    doc.set("kernel", json::value{std::move(kernel)});
    json::object crossover;
    crossover.set("area_mm2", json::value{crossover_area});
    crossover.set("monolithic_wins_low_end", json::value{monolithic_wins_low});
    crossover.set("split_wins_high_end", json::value{split_wins_high});
    crossover.set("responses_identical", json::value{responses_identical});
    doc.set("crossover", json::value{std::move(crossover)});
    json::object gate;
    gate.set("skipped", json::value{tiny});
    gate.set("pass",
             json::value{bit_exact && crossover_ok && (tiny || speedup_ok)});
    doc.set("gate", json::value{std::move(gate)});

    std::ofstream file{path, std::ios::binary | std::ios::trunc};
    file << json::dump(json::value{std::move(doc)}) << "\n";
    file.close();
    std::printf("[json] wrote %s\n", path.c_str());

    if (!bit_exact) {
        std::printf("FAIL: chiplet kernel not bit-exact\n");
        return 1;
    }
    if (!crossover_ok) {
        std::printf("FAIL: crossover missing or unstable\n");
        return 1;
    }
    if (tiny) {
        std::printf("OK: tiny mode, speedup gate skipped\n");
        return 0;
    }
    if (!speedup_ok) {
        std::printf("FAIL: kernel < %.0fx engine per-point rate\n",
                    required_speedup);
        return 1;
    }
    std::printf("OK: kernel >= %.0fx the per-point path, crossover stable\n",
                required_speedup);
    return 0;
}
