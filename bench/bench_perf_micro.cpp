// bench_perf_micro — google-benchmark microbenchmarks of the hot paths:
// model evaluation throughput matters because the optimizers and contour
// grids call them tens of thousands of times.

#include "grid_batch.hpp"

#include "analysis/contour.hpp"
#include "analysis/sweep.hpp"
#include "chiplet/model.hpp"
#include "core/cost_model.hpp"
#include "core/table3.hpp"
#include "geometry/gross_die.hpp"
#include "yield/critical_area.hpp"
#include "yield/monte_carlo.hpp"
#include "yield/wafer_sim.hpp"
#include "opt/partition.hpp"
#include "opt/minimize.hpp"
#include "serve/engine.hpp"
#include "serve/json.hpp"

#include <benchmark/benchmark.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace {

using namespace silicon;

void bm_maly_row_count(benchmark::State& state) {
    const geometry::wafer w = geometry::wafer::six_inch();
    const geometry::die d = geometry::die::square(millimeters{10.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(geometry::maly_row_count(w, d));
    }
}
BENCHMARK(bm_maly_row_count);

void bm_exact_placement(benchmark::State& state) {
    const geometry::wafer w = geometry::wafer::six_inch();
    const geometry::die d = geometry::die::square(millimeters{10.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(geometry::exact_count(w, d).count);
    }
}
BENCHMARK(bm_exact_placement);

void bm_cost_model_evaluate(benchmark::State& state) {
    const core::process_spec process{
        cost::wafer_cost_model{dollars{500.0}, 1.4},
        geometry::wafer::six_inch(),
        yield::scaled_poisson_model::fig8_calibration(),
        geometry::gross_die_method::maly_rows};
    const core::cost_model model{process};
    core::product_spec p;
    p.transistors = 5e5;
    p.design_density = 152.0;
    p.feature_size = microns{0.8};
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evaluate(p).cost_per_transistor);
    }
}
BENCHMARK(bm_cost_model_evaluate);

void bm_table3_full_reproduction(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::reproduce_table3());
    }
}
BENCHMARK(bm_table3_full_reproduction);

void bm_average_critical_area(benchmark::State& state) {
    yield::wire_array_layout layout;
    layout.line_width = 1.0;
    layout.line_spacing = 1.2;
    layout.line_length = 200.0;
    layout.line_count = 20;
    const yield::defect_size_distribution d{0.6, 4.07};
    for (auto _ : state) {
        benchmark::DoNotOptimize(yield::average_critical_area(
            layout, yield::fault_kind::short_circuit, d));
    }
}
BENCHMARK(bm_average_critical_area);

void bm_monte_carlo_1k_dies(benchmark::State& state) {
    yield::wire_array_layout layout;
    layout.line_width = 1.0;
    layout.line_spacing = 1.2;
    layout.line_length = 100.0;
    layout.line_count = 10;
    const yield::defect_size_distribution sizes{0.6, 4.07};
    yield::monte_carlo_config config;
    config.dies = 1000;
    config.defects_per_um2 = 2e-4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            yield::simulate_layout_yield(layout, sizes, config));
    }
}
BENCHMARK(bm_monte_carlo_1k_dies);

// Serial-vs-parallel throughput of the 100k-die Monte-Carlo run on the
// exec engine; the range argument is the thread count (0 = hardware
// concurrency).  Results are bit-identical across thread counts by the
// determinism contract, so the rows differ only in wall-clock.
void bm_monte_carlo_100k_dies(benchmark::State& state) {
    yield::wire_array_layout layout;
    layout.line_width = 1.0;
    layout.line_spacing = 1.2;
    layout.line_length = 100.0;
    layout.line_count = 10;
    const yield::defect_size_distribution sizes{0.6, 4.07};
    yield::monte_carlo_config config;
    config.dies = 100000;
    config.defects_per_um2 = 2e-4;
    config.parallelism = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            yield::simulate_layout_yield(layout, sizes, config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(config.dies));
}
BENCHMARK(bm_monte_carlo_100k_dies)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(0);

// The mc_yield endpoint's shape (15 wires of 150 um, 10k dies), run
// serially: the shape silicond serves, reported as dies per second.  The
// arguments are the line spacing in tenths of a micron and the defect
// density in defects per 1e6 um^2: the endpoint's defaults (1.2 um,
// 1e-4) and the corners of the benchmark's mc_yield lines (0.8/1.6 um ×
// 5e-5/2e-4).
void bm_monte_carlo_endpoint_defaults(benchmark::State& state) {
    yield::wire_array_layout layout;
    layout.line_width = 1.0;
    layout.line_spacing = static_cast<double>(state.range(0)) * 0.1;
    layout.line_length = 150.0;
    layout.line_count = 15;
    const yield::defect_size_distribution sizes{0.6, 4.07};
    yield::monte_carlo_config config;
    config.dies = 10000;
    config.defects_per_um2 = static_cast<double>(state.range(1)) * 1e-6;
    config.parallelism = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            yield::simulate_layout_yield(layout, sizes, config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(config.dies));
}
BENCHMARK(bm_monte_carlo_endpoint_defaults)
    ->ArgNames({"spacing_dum", "density_ppm"})
    ->Args({12, 100})
    ->Args({8, 50})
    ->Args({8, 200})
    ->Args({16, 50})
    ->Args({16, 200});

void bm_contour_extraction(benchmark::State& state) {
    const analysis::grid g = analysis::evaluate_grid(
        analysis::linspace(-2.0, 2.0, 101),
        analysis::linspace(-2.0, 2.0, 101),
        [](double x, double y) { return x * x + y * y; });
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::extract_contours(g, 1.7));
    }
}
BENCHMARK(bm_contour_extraction);

void bm_wafer_sim_100_wafers(benchmark::State& state) {
    const geometry::wafer w = geometry::wafer::six_inch();
    const geometry::die d = geometry::die::square(millimeters{12.0});
    yield::wafer_sim_config config;
    config.wafers = 100;
    config.defects_per_cm2 = 1.0;
    config.parallelism = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(yield::simulate_wafers(w, d, config));
    }
}
BENCHMARK(bm_wafer_sim_100_wafers)->Arg(1)->Arg(0);

void bm_grid_evaluate_101x101(benchmark::State& state) {
    const std::vector<double> xs = analysis::linspace(-2.0, 2.0, 101);
    const std::vector<double> ys = analysis::linspace(-2.0, 2.0, 101);
    const unsigned parallelism = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::grid::evaluate(
            xs, ys,
            [](double x, double y) {
                return std::exp(-x * x - y * y) * std::cos(4.0 * x * y);
            },
            parallelism));
    }
}
BENCHMARK(bm_grid_evaluate_101x101)->Arg(1)->Arg(0);

void bm_set_partitions_8(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(opt::set_partitions(8));
    }
}
BENCHMARK(bm_set_partitions_8);

void bm_optimal_feature_size(benchmark::State& state) {
    const core::process_spec process{
        cost::wafer_cost_model{dollars{500.0}, 1.4},
        geometry::wafer::six_inch(),
        yield::scaled_poisson_model::fig8_calibration(),
        geometry::gross_die_method::maly_rows};
    const core::cost_model model{process};
    core::product_spec p;
    p.transistors = 5e5;
    p.design_density = 152.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.optimal_feature_size(p, microns{0.5}, microns{1.0}));
    }
}
BENCHMARK(bm_optimal_feature_size);

/// The 17 numbers each cell of a 4x64 partition_explore writes into its
/// chiplet result (splits 1, 2, 4, 8 over 100-900 mm^2): the values the
/// lane feed formats most.
std::vector<double> explore_cell_values() {
    std::vector<double> values;
    const chiplet::chiplet_spec base;
    for (const int split : {1, 2, 4, 8}) {
        for (int i = 0; i < 64; ++i) {
            chiplet::chiplet_spec spec =
                chiplet::scaled_to_total(base, 100.0 + 800.0 * i / 63.0);
            spec.chiplets = split;
            try {
                const chiplet::chiplet_breakdown b =
                    chiplet::evaluate_chiplet(spec);
                values.insert(
                    values.end(),
                    {static_cast<double>(b.chiplets), b.total_area_mm2,
                     b.chiplet_area_mm2, b.die_yield, b.gross_dies_per_wafer,
                     b.wafer_cost_usd, b.die_cost_usd, b.test_cost_per_die_usd,
                     b.defect_level, b.package_area_cm2, b.substrate_cost_usd,
                     b.substrate_yield, b.assembly_yield, b.module_yield,
                     b.bonding_cost_usd, b.cost_per_system_usd,
                     b.cost_per_good_system_usd});
            } catch (const std::exception&) {
                // An infeasible cell writes no result.
            }
        }
    }
    return values;
}

// Shortest round-trip number text over explore-cell results: arg 0 = 0
// for std::to_chars, 1 for the JSON writer (json::format_number_to),
// which must produce the same bytes.  Reported as seconds per number.
void bm_format_number(benchmark::State& state) {
    const std::vector<double> values = explore_cell_values();
    const bool writer = state.range(0) == 1;
    char buffer[serve::json::number_buffer_chars];
    for (auto _ : state) {
        for (const double v : values) {
            const char* end =
                writer ? serve::json::format_number_to(buffer, v)
                       : std::to_chars(buffer, buffer + sizeof buffer, v).ptr;
            benchmark::DoNotOptimize(end);
            benchmark::ClobberMemory();
        }
    }
    state.counters["s_per_number"] = benchmark::Counter(
        static_cast<double>(values.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(bm_format_number)->Arg(0)->Arg(1);

// The cost a grid lane adds by feeding the point cache: an engine
// with a full default-size cache (65536 entries) serves fresh grids.
// A cost_tr sweep's every lane misses, so each is keyed, probed,
// evaluated, written and stored, evicting another entry; the kernel
// grids (a scenario2 sweep, an explore) never touch the point cache,
// so for them only the line's own probe and put differ.  Arg 0 picks
// the grid (bench::feed_grid: 0 = a 256-lane scenario2 sweep, 1 = a 4x64
// partition_explore, 2 = a 256-lane cost_tr sweep), arg 1 the cache
// (1 = on, 0 = off: the same grid without the feed), arg 2 the
// serving (0 = one line at a time on a serial engine; 1 = four fresh
// lines per handle_batch at parallelism 0, so pool workers feed the
// cache at once; 2 = one line at a time at parallelism 0, as an
// open-loop client's line arrives alone — both timed in wall-clock
// time).  Reported as seconds per lane.
void bm_lane_cache_feed(benchmark::State& state) {
    const auto kind = static_cast<bench::feed_grid>(state.range(0));
    const std::int64_t serving = state.range(2);
    serve::engine_config config;
    config.parallelism = serving == 0 ? 1 : 0;
    config.cache_capacity = state.range(1) == 1 ? 65536 : 0;
    serve::engine engine{config};
    if (config.cache_capacity != 0) {
        bench::fill_point_cache(engine);
    }
    const std::int64_t lines = serving == 1 ? 4 : 1;
    const std::int64_t lanes = 256 * lines;
    std::uint64_t n = 0;
    std::vector<std::string> batch(static_cast<std::size_t>(lines));
    for (auto _ : state) {
        // A fresh grid every time, so no lane is ever a hit.
        if (serving == 1) {
            for (std::string& line : batch) {
                line = bench::lane_feed_line(kind, ++n);
            }
            benchmark::DoNotOptimize(engine.handle_batch(batch));
        } else {
            benchmark::DoNotOptimize(
                engine.handle_line(bench::lane_feed_line(kind, ++n)));
        }
    }
    state.counters["s_per_lane"] = benchmark::Counter(
        static_cast<double>(lanes),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(bm_lane_cache_feed)
    ->Args({0, 1, 0})
    ->Args({0, 0, 0})
    ->Args({1, 1, 0})
    ->Args({1, 0, 0})
    ->Args({2, 1, 0})
    ->Args({2, 0, 0});
BENCHMARK(bm_lane_cache_feed)
    ->Args({0, 1, 1})
    ->Args({0, 0, 1})
    ->Args({0, 1, 2})
    ->UseRealTime();

// A closed-loop grid_explore client's batch, served in process: four
// fresh grid lines (grid_batch.hpp) per handle_batch at parallelism 0.
// Every line is a pool task, and each fans its lanes, cells or
// Monte-Carlo shards out again from inside it.  Timed in wall-clock
// time, reported as lines/s.
void bm_grid_batch(benchmark::State& state) {
    serve::engine_config config;
    config.parallelism = 0;
    serve::engine engine{config};
    std::uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.handle_batch(bench::grid_batch(++n)));
    }
    state.counters["lines_per_s"] = benchmark::Counter(
        4.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_grid_batch)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
