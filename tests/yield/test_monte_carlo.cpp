// Tests for the Monte-Carlo defect-injection simulator.

#include "yield/monte_carlo.hpp"

#include "exec/thread_pool.hpp"
#include "yield/monte_carlo_draws.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace silicon::yield {
namespace {

wire_array_layout small_layout() {
    wire_array_layout layout;
    layout.line_width = 1.0;
    layout.line_spacing = 1.5;
    layout.line_length = 100.0;
    layout.line_count = 10;
    return layout;
}

TEST(DefectPredicate, ShortRequiresBridgingBothWires) {
    const wire_array_layout layout = small_layout();
    // Gap between wire 0 ([0,1]) and wire 1 ([2.5,3.5]); center of gap at
    // y = 1.75.  Diameter 1.5 exactly spans the gap boundary-to-boundary.
    EXPECT_FALSE(defect_causes_fault(layout, fault_kind::short_circuit,
                                     50.0, 1.75, 1.4));
    EXPECT_TRUE(defect_causes_fault(layout, fault_kind::short_circuit,
                                    50.0, 1.75, 1.8));
}

TEST(DefectPredicate, OpenRequiresCoveringFullWireWidth) {
    const wire_array_layout layout = small_layout();
    // Wire 0 spans y in [0, 1]; a defect centered at 0.5 must have
    // diameter >= 1 to sever it.
    EXPECT_FALSE(defect_causes_fault(layout, fault_kind::open_circuit,
                                     50.0, 0.5, 0.9));
    EXPECT_TRUE(defect_causes_fault(layout, fault_kind::open_circuit,
                                    50.0, 0.5, 1.1));
}

TEST(DefectPredicate, OutsideWireLengthIsBenign) {
    const wire_array_layout layout = small_layout();
    EXPECT_FALSE(defect_causes_fault(layout, fault_kind::short_circuit,
                                     -1.0, 1.75, 5.0));
    EXPECT_FALSE(defect_causes_fault(layout, fault_kind::short_circuit,
                                     101.0, 1.75, 5.0));
}

TEST(PoissonSample, MeanZeroAlwaysZero) {
    splitmix64 rng{1};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(poisson_sample(0.0, rng), 0u);
    }
}

TEST(PoissonSample, RejectsNegativeMean) {
    splitmix64 rng{1};
    EXPECT_THROW((void)poisson_sample(-1.0, rng), std::invalid_argument);
}

TEST(PoissonSample, RejectsNonFiniteMean) {
    splitmix64 rng{1};
    EXPECT_THROW(
        (void)poisson_sample(std::numeric_limits<double>::infinity(), rng),
        std::invalid_argument);
    EXPECT_THROW(
        (void)poisson_sample(std::numeric_limits<double>::quiet_NaN(), rng),
        std::invalid_argument);
    // Finite, but more halves than a count can index.
    EXPECT_THROW((void)poisson_sample(1e300, rng), std::domain_error);
}

TEST(PoissonSample, SampleMomentsMatchSmallMean) {
    splitmix64 rng{99};
    const double mu = 3.0;
    const int n = 200000;
    double sum = 0.0;
    double sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double k = static_cast<double>(poisson_sample(mu, rng));
        sum += k;
        sum2 += k * k;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, mu, 0.03);
    EXPECT_NEAR(var, mu, 0.06);
}

TEST(PoissonSample, SampleMomentsMatchLargeMean) {
    // Exercises the recursive halving path (mu > 30).
    splitmix64 rng{7};
    const double mu = 250.0;
    const int n = 20000;
    double sum = 0.0;
    double sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double k = static_cast<double>(poisson_sample(mu, rng));
        sum += k;
        sum2 += k * k;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, mu, 0.5);
    EXPECT_NEAR(var, mu, 8.0);
}

TEST(Simulation, RejectsBadConfig) {
    const wire_array_layout layout = small_layout();
    const defect_size_distribution sizes{0.5, 4.0};
    monte_carlo_config config;
    config.dies = 0;
    EXPECT_THROW((void)simulate_layout_yield(layout, sizes, config),
                 std::invalid_argument);
    config.dies = 10;
    config.defects_per_um2 = -1.0;
    EXPECT_THROW((void)simulate_layout_yield(layout, sizes, config),
                 std::invalid_argument);
    config.defects_per_um2 = 1e-6;
    config.extra_material_fraction = 1.5;
    EXPECT_THROW((void)simulate_layout_yield(layout, sizes, config),
                 std::invalid_argument);
}

TEST(Simulation, HeavyTailIsADomainErrorNotAnEndlessRun) {
    // p near 1 pushes the 1 - 1e-6 sampling margin to infinity (p = 1.01)
    // or to billions of defects per die (p = 1.5).
    const wire_array_layout layout = small_layout();
    monte_carlo_config config;
    config.dies = 1;
    config.defects_per_um2 = 1e-4;
    for (const double p : {1.01, 1.5}) {
        const defect_size_distribution sizes{0.6, p};
        EXPECT_THROW((void)simulate_layout_yield(layout, sizes, config),
                     std::domain_error)
            << "p = " << p;
    }
    // Infinite margin at zero density: 0 * inf is not a count either.
    config.defects_per_um2 = 0.0;
    EXPECT_THROW((void)simulate_layout_yield(
                     layout, defect_size_distribution{0.6, 1.01}, config),
                 std::domain_error);
}

TEST(Simulation, ZeroDensityYieldsEverything) {
    const wire_array_layout layout = small_layout();
    const defect_size_distribution sizes{0.5, 4.0};
    monte_carlo_config config;
    config.dies = 500;
    config.defects_per_um2 = 0.0;
    const monte_carlo_result result =
        simulate_layout_yield(layout, sizes, config);
    EXPECT_EQ(result.good_dies, result.dies);
    EXPECT_DOUBLE_EQ(result.yield, 1.0);
    EXPECT_EQ(result.defects_thrown, 0u);
}

TEST(Simulation, Deterministic) {
    const wire_array_layout layout = small_layout();
    const defect_size_distribution sizes{0.5, 4.0};
    monte_carlo_config config;
    config.dies = 2000;
    config.defects_per_um2 = 5e-5;
    const auto a = simulate_layout_yield(layout, sizes, config);
    const auto b = simulate_layout_yield(layout, sizes, config);
    EXPECT_EQ(a.good_dies, b.good_dies);
    EXPECT_EQ(a.defects_thrown, b.defects_thrown);
    config.seed = 777;
    const auto c = simulate_layout_yield(layout, sizes, config);
    EXPECT_NE(a.good_dies, c.good_dies);
}

TEST(Simulation, MatchesAnalyticYieldWithinError) {
    // The headline validation: MC yield agrees with exp(-D * A_crit_avg).
    const wire_array_layout layout = small_layout();
    const defect_size_distribution sizes{0.6, 4.07};
    monte_carlo_config config;
    config.dies = 40000;
    config.defects_per_um2 = 2e-4;
    config.extra_material_fraction = 0.5;
    config.seed = 2024;

    const monte_carlo_result mc =
        simulate_layout_yield(layout, sizes, config);
    const double analytic = layout_yield(
        layout, sizes, config.defects_per_um2,
        config.extra_material_fraction);
    EXPECT_NEAR(mc.yield, analytic, 3.0 * mc.std_error);
}

TEST(Simulation, ObservedFaultRateMatchesExpectedFaults) {
    const wire_array_layout layout = small_layout();
    const defect_size_distribution sizes{0.6, 4.07};
    monte_carlo_config config;
    config.dies = 40000;
    config.defects_per_um2 = 2e-4;
    config.seed = 5;

    const monte_carlo_result mc =
        simulate_layout_yield(layout, sizes, config);
    const double expected = expected_faults(
        layout, sizes, config.defects_per_um2,
        config.extra_material_fraction);
    EXPECT_NEAR(mc.observed_faults_per_die(), expected,
                0.08 * expected + 0.003);
}

TEST(Simulation, AllShortsConfigurationProducesNoOpens) {
    const wire_array_layout layout = small_layout();
    const defect_size_distribution sizes{0.6, 4.0};
    monte_carlo_config config;
    config.dies = 5000;
    config.defects_per_um2 = 1e-4;
    config.extra_material_fraction = 1.0;
    const monte_carlo_result mc =
        simulate_layout_yield(layout, sizes, config);
    EXPECT_EQ(mc.opens, 0u);
    EXPECT_GT(mc.shorts, 0u);
}

// ---------------------------------------------------------------------------
// Differential check against the scan-everything simulator: every defect
// draws its size and is tested against every wire pair and every wire.
// The library skips defects too narrow to fault and scans only the wires
// a defect can reach; the counters must not change by one.
// ---------------------------------------------------------------------------

std::size_t reference_poisson(double mean, splitmix64& rng) {
    if (mean > 30.0) {
        const std::size_t left = reference_poisson(mean * 0.5, rng);
        return left + reference_poisson(mean * 0.5, rng);
    }
    const double limit = std::exp(-mean);
    std::size_t count = 0;
    double product = rng.next_double();
    while (product > limit) {
        ++count;
        product *= rng.next_double();
    }
    return count;
}

int reference_bridged(const wire_array_layout& layout, double y, double d) {
    const double pitch = layout.pitch();
    const double lo = y - 0.5 * d;
    const double hi = y + 0.5 * d;
    int events = 0;
    for (int i = 0; i + 1 < layout.line_count; ++i) {
        if (lo < static_cast<double>(i) * pitch + layout.line_width &&
            hi > static_cast<double>(i + 1) * pitch) {
            ++events;
        }
    }
    return events;
}

int reference_severed(const wire_array_layout& layout, double y, double d) {
    const double pitch = layout.pitch();
    const double lo = y - 0.5 * d;
    const double hi = y + 0.5 * d;
    int events = 0;
    for (int i = 0; i < layout.line_count; ++i) {
        const double bottom = static_cast<double>(i) * pitch;
        if (lo <= bottom && hi >= bottom + layout.line_width) {
            ++events;
        }
    }
    return events;
}

/// The simulator as specified: same shards, seeds and draw order as
/// simulate_layout_yield, with none of its shortcuts.
monte_carlo_result reference_simulate(const wire_array_layout& layout,
                                      const defect_size_distribution& sizes,
                                      const monte_carlo_config& config) {
    const double height =
        static_cast<double>(layout.line_count) * layout.line_width +
        static_cast<double>(layout.line_count - 1) * layout.line_spacing;
    const double margin = 0.5 * sizes.quantile(1.0 - 1e-6);
    const double sample_height = height + 2.0 * margin;
    const double mean =
        config.defects_per_um2 * layout.line_length * sample_height;
    monte_carlo_result r;
    r.dies = config.dies;
    const std::size_t shards = exec::shard_count_for(config.dies);
    for (std::size_t s = 0; s < shards; ++s) {
        const exec::shard_range shard = exec::shard_of(config.dies, shards, s);
        splitmix64 rng{exec::shard_seed(config.seed, shard.index)};
        for (std::size_t die = shard.begin; die < shard.end; ++die) {
            const std::size_t n = reference_poisson(mean, rng);
            r.defects_thrown += n;
            bool good = true;
            for (std::size_t k = 0; k < n; ++k) {
                const double y = -margin + rng.next_double() * sample_height;
                const double d = sizes.quantile(rng.next_double());
                if (rng.next_double() < config.extra_material_fraction) {
                    const int events = reference_bridged(layout, y, d);
                    r.shorts += static_cast<std::size_t>(events);
                    good = good && events == 0;
                } else {
                    const int events = reference_severed(layout, y, d);
                    r.opens += static_cast<std::size_t>(events);
                    good = good && events == 0;
                }
            }
            r.good_dies += good ? 1 : 0;
        }
    }
    return r;
}

/// Uniform in [lo, hi) and log-uniform in [lo, hi) draws for generators.
double uniform(splitmix64& g, double lo, double hi) {
    return lo + g.next_double() * (hi - lo);
}
double log_uniform(splitmix64& g, double lo, double hi) {
    return lo * std::pow(hi / lo, g.next_double());
}
double nudge_ulps(double x, int ulps) {
    for (; ulps > 0; --ulps) {
        x = std::nextafter(x, std::numeric_limits<double>::infinity());
    }
    for (; ulps < 0; ++ulps) {
        x = std::nextafter(x, 0.0);
    }
    return x;
}

struct mc_case {
    wire_array_layout layout;
    double r0 = 0.6;
    double p = 4.07;
    double q = 1.0;
    monte_carlo_config config;
};

std::string describe(const mc_case& c) {
    return "w=" + std::to_string(c.layout.line_width) +
           " s=" + std::to_string(c.layout.line_spacing) +
           " L=" + std::to_string(c.layout.line_length) +
           " n=" + std::to_string(c.layout.line_count) +
           " r0=" + std::to_string(c.r0) + " p=" + std::to_string(c.p) +
           " q=" + std::to_string(c.q) +
           " D=" + std::to_string(c.config.defects_per_um2) +
           " dies=" + std::to_string(c.config.dies) +
           " seed=" + std::to_string(c.config.seed);
}

void expect_matches_reference(const mc_case& c) {
    const defect_size_distribution sizes{c.r0, c.p, c.q};
    const monte_carlo_result want =
        reference_simulate(c.layout, sizes, c.config);
    for (const unsigned parallelism : {1u, 0u}) {
        monte_carlo_config config = c.config;
        config.parallelism = parallelism;
        const monte_carlo_result got =
            simulate_layout_yield(c.layout, sizes, config);
        EXPECT_EQ(got.good_dies, want.good_dies) << describe(c);
        EXPECT_EQ(got.defects_thrown, want.defects_thrown) << describe(c);
        EXPECT_EQ(got.shorts, want.shorts) << describe(c);
        EXPECT_EQ(got.opens, want.opens) << describe(c);
    }
}

/// The density that gives `mean` expected defects per die on c's layout
/// and size distribution (the sampling margin included).
double density_for_mean(const mc_case& c, double mean) {
    const defect_size_distribution sizes{c.r0, c.p, c.q};
    const double sample_height =
        c.layout.area() / c.layout.line_length + sizes.quantile(1.0 - 1e-6);
    return mean / (c.layout.line_length * sample_height);
}

mc_case generated_case(splitmix64& g) {
    mc_case c;
    c.layout.line_width = log_uniform(g, 0.05, 5.0);
    c.layout.line_spacing = log_uniform(g, 0.05, 5.0);
    c.layout.line_length = log_uniform(g, 1.0, 500.0);
    c.layout.line_count = 1 + static_cast<int>(g.next() % 40);
    c.r0 = log_uniform(g, 0.05, 2.0);
    c.p = uniform(g, 3.0, 8.0);
    c.q = uniform(g, -0.999, 3.0);
    c.config.dies = 1 + g.next() % 200;
    c.config.extra_material_fraction =
        g.next() % 8 == 0 ? static_cast<double>(g.next() % 2)
                          : g.next_double();
    c.config.seed = g.next();
    // Expected defects per die spread over [0.01, 200): the top of the
    // range halves the Poisson mean (above 30) up to three times.
    c.config.defects_per_um2 =
        density_for_mean(c, log_uniform(g, 0.01, 200.0));
    return c;
}

TEST(SimulationDifferential, GeneratedConfigurationsMatchFullScan) {
    splitmix64 g{0xd1ffe7e57ULL};
    for (int i = 0; i < 300; ++i) {
        expect_matches_reference(generated_case(g));
    }
}

/// The mc_yield endpoint's layout and sizes (15 wires of 1 um by 150 um,
/// r0 = 0.6, p = 4.07) at the given spacing.
mc_case endpoint_case(double spacing) {
    mc_case c;
    c.layout.line_width = 1.0;
    c.layout.line_spacing = spacing;
    c.layout.line_length = 150.0;
    c.layout.line_count = 15;
    return c;
}

TEST(SimulationDifferential, EndpointScaleRunsMatchFullScan) {
    // Tens of thousands of dies put hundreds in a shard, so the walk
    // refills its draw buffer, dies cross the buffer's end, and dies
    // with four or more defects take the product loop.  The shapes are
    // the benchmark's mc_yield lines: spacing 0.8-1.6 um, 5e-5-2e-4
    // defects/um^2, 20k-40k dies; all-open and all-short runs included.
    splitmix64 g{0xe4d9017ULL};
    for (int i = 0; i < 6; ++i) {
        mc_case c = endpoint_case(uniform(g, 0.8, 1.6));
        c.config.defects_per_um2 = uniform(g, 5e-5, 2e-4);
        c.config.dies = 20000 + g.next() % 20001;
        c.config.seed = g.next();
        c.config.extra_material_fraction =
            i == 0 ? 0.0 : (i == 1 ? 1.0 : g.next_double());
        expect_matches_reference(c);
    }
    // The corners of that range.
    for (const double spacing : {0.8, 1.6}) {
        for (const double density : {5e-5, 2e-4}) {
            mc_case c = endpoint_case(spacing);
            c.config.defects_per_um2 = density;
            c.config.dies = 30000;
            c.config.seed = g.next();
            expect_matches_reference(c);
        }
    }
    // Wires and gaps of 0.1 um: nearly every defect is kept and its
    // fault count depends on its exact position and size, so a draw
    // read from the wrong place anywhere in the walk (at a buffer's end
    // above all) changes a counter.
    for (const double mean : {0.7, 2.5}) {
        mc_case c = endpoint_case(0.1);
        c.layout.line_width = 0.1;
        c.config.defects_per_um2 = density_for_mean(c, mean);
        c.config.dies = 40000;
        c.config.seed = g.next();
        expect_matches_reference(c);
    }
}

TEST(SimulationDifferential, DenseAndMultiLeafMeansMatchFullScan) {
    // Means of 5-30 defects per die make most dies take the product
    // loop past the four precomputed products; means above 30 split
    // into halves (multi-leaf plans), whose every die does.
    splitmix64 g{0xde45e};
    for (int i = 0; i < 8; ++i) {
        mc_case c = endpoint_case(uniform(g, 0.8, 1.6));
        const double mean =
            i < 5 ? uniform(g, 5.0, 30.0) : uniform(g, 30.5, 130.0);
        c.config.defects_per_um2 = density_for_mean(c, mean);
        c.config.dies = 2000 + g.next() % 3001;
        c.config.seed = g.next();
        c.config.extra_material_fraction =
            i % 4 == 0 ? 0.0 : (i % 4 == 1 ? 1.0 : g.next_double());
        expect_matches_reference(c);
    }
}

TEST(SimulationDraws, IndexedDrawIsTheKthNextDouble) {
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{0x5eed},
          exec::shard_seed(0x5eed, 17), ~std::uint64_t{0}}) {
        const splitmix64 fixed{seed};
        splitmix64 walked{seed};
        std::size_t mismatches = 0;
        for (std::uint64_t k = 0; k < 100000; ++k) {
            mismatches += std::bit_cast<std::uint64_t>(fixed.double_at(k)) !=
                                  std::bit_cast<std::uint64_t>(
                                      walked.next_double())
                              ? 1
                              : 0;
        }
        EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    }
}

TEST(SimulationDraws, FillMatchesIndexedDrawsAndCappedKnuthCounts) {
    // Whichever variant simd::active_target() picks (CI runs this under
    // SILICON_SIMD=scalar and avx2): every draw equals double_at, and
    // every count is the product loop's count capped at 4.
    splitmix64 g{0xf111};
    const std::vector<std::size_t> lengths = {0, 1, 3, 4, 5, 7, 8, 9,
                                              13, 64, 255, 2048, 2051};
    for (const std::size_t n : lengths) {
        for (const double mean : {0.0, 0.05, 1.075, 4.0, 12.0, 30.0}) {
            const std::uint64_t state = g.next();
            const std::uint64_t first = g.next() % 3 == 0 ? 0 : g.next();
            const double limit = std::exp(-mean);
            std::vector<double> draws(n);
            std::vector<std::uint32_t> counts(n, 99);
            mc::fill_draws(state, first, draws.data(), n, limit,
                           counts.data());
            const splitmix64 stream{state};
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(draws[i]),
                          std::bit_cast<std::uint64_t>(
                              stream.double_at(first + i)))
                    << "n " << n << " i " << i;
            }
            for (std::size_t i = 0; i + 3 < n; ++i) {
                std::uint32_t want = 0;
                double product = draws[i];
                while (product > limit && want < 4) {
                    ++want;
                    if (want < 4) {
                        product *= draws[i + want];
                    }
                }
                ASSERT_EQ(counts[i], want)
                    << "n " << n << " mean " << mean << " i " << i;
            }
            for (std::size_t i = n < 3 ? 0 : n - 3; i < n; ++i) {
                EXPECT_EQ(counts[i], 99u) << "written past n - 3";
            }
        }
    }
}

TEST(SimulationDifferential, GapsAndWidthsWithinUlpsOfADiameter) {
    // The skip thresholds sit at cdf(gap * (1 - 1e-6)); put the gap and
    // the width a few ulps off a size the distribution produces.
    splitmix64 g{0x5111c0};
    for (int i = 0; i < 60; ++i) {
        mc_case c = generated_case(g);
        const defect_size_distribution sizes{c.r0, c.p, c.q};
        const int ulps = static_cast<int>(g.next() % 9) - 4;
        const double diameter = sizes.quantile(uniform(g, 0.05, 0.999));
        if (i % 2 == 0) {
            c.layout.line_spacing = nudge_ulps(diameter, ulps);
        } else {
            c.layout.line_width = nudge_ulps(diameter, ulps);
        }
        expect_matches_reference(c);
    }
}

TEST(SimulationDifferential, EdgeLayouts) {
    mc_case c;
    c.config.dies = 300;
    c.config.defects_per_um2 = 2e-3;
    c.config.seed = 41;
    // One wire: nothing to bridge, only opens.
    c.layout.line_count = 1;
    expect_matches_reference(c);
    // Mean well above 30, so the Poisson draw splits into halves.
    c.layout.line_count = 15;
    c.layout.line_length = 2000.0;
    c.config.defects_per_um2 = 5e-3;
    expect_matches_reference(c);
    // Defects far wider than the pitch: each one bridges and severs many
    // wires, so the reach window spans most of the array.
    c = mc_case{};
    c.layout.line_width = 0.01;
    c.layout.line_spacing = 0.02;
    c.layout.line_count = 400;
    c.p = 3.0;
    c.config.dies = 100;
    c.config.defects_per_um2 = 1e-2;
    expect_matches_reference(c);
    // A layout about 2e9 gaps tall: the rounding bound forbids skipping
    // shorts, so every extra-material defect is classified.
    c = mc_case{};
    c.layout.line_width = 1e6;
    c.layout.line_spacing = 1e-3;
    c.layout.line_count = 2;
    c.config.dies = 200;
    c.config.defects_per_um2 = 1e-7;
    expect_matches_reference(c);
}

TEST(SimulationDifferential, SkippedSizesCannotFaultAtTheWorstPosition) {
    // The largest size the skip drops, centered on a gap (or a wire) at
    // the top of a million-wire stack, faults nothing; a size just above
    // the gap does.  The skip applies only where that largest size is
    // within half the 1e-6 slack of the gap: far in the tail, 1 - u
    // keeps few bits and quantile(cdf(x)) can land well above x, and
    // then the run classifies every defect instead.
    splitmix64 g{77};
    int skipping = 0;
    for (int i = 0; i < 200; ++i) {
        wire_array_layout layout;
        layout.line_width = log_uniform(g, 0.05, 5.0);
        layout.line_spacing = log_uniform(g, 0.05, 5.0);
        layout.line_count = 1'000'000;
        const defect_size_distribution sizes{log_uniform(g, 0.05, 2.0),
                                             uniform(g, 3.0, 8.0),
                                             uniform(g, -0.999, 3.0)};
        const double pitch = layout.pitch();
        const double top = static_cast<double>(layout.line_count - 2);
        for (const bool is_short : {true, false}) {
            const double gap =
                is_short ? layout.line_spacing : layout.line_width;
            const double u = sizes.cdf(gap * (1.0 - 1e-6));
            const double below = std::nextafter(u, 0.0);
            const double widest =
                std::max(sizes.quantile(below),
                         sizes.quantile(std::min(below, sizes.body_mass())));
            const double center =
                is_short ? top * pitch + layout.line_width + 0.5 * gap
                         : top * pitch + 0.5 * gap;
            const fault_kind kind = is_short ? fault_kind::short_circuit
                                             : fault_kind::open_circuit;
            if (widest <= gap * (1.0 - 0.5e-6)) {
                ++skipping;
                EXPECT_FALSE(defect_causes_fault(layout, kind, 1.0, center,
                                                 widest))
                    << "gap " << gap << " widest skipped " << widest;
            }
            EXPECT_TRUE(defect_causes_fault(layout, kind, 1.0, center,
                                            gap * (1.0 + 1e-6)));
        }
    }
    EXPECT_GT(skipping, 300);
}

TEST(DefectPredicate, ReachWindowMatchesFullScanAtEdges) {
    // Discs whose edges land within ulps of a wire edge, anywhere in the
    // stack and beyond it, agree with the scan over every wire.
    splitmix64 g{2718};
    for (int i = 0; i < 2000; ++i) {
        wire_array_layout layout;
        layout.line_width = log_uniform(g, 0.05, 5.0);
        layout.line_spacing = log_uniform(g, 0.05, 5.0);
        layout.line_count = 1 + static_cast<int>(g.next() % 60);
        const double pitch = layout.pitch();
        const int edge_wire =
            static_cast<int>(g.next() % (layout.line_count + 4)) - 2;
        const double edge =
            static_cast<double>(edge_wire) * pitch +
            (g.next() % 2 == 0 ? 0.0 : layout.line_width);
        const double d = g.next() % 4 == 0
                             ? log_uniform(g, 1e-3, 1e3)
                             : nudge_ulps(g.next() % 2 == 0
                                              ? layout.line_spacing
                                              : layout.line_width,
                                          static_cast<int>(g.next() % 9) - 4);
        const double lo = nudge_ulps(edge, static_cast<int>(g.next() % 9) - 4);
        const double y = g.next() % 2 == 0 ? lo + 0.5 * d : lo - 0.5 * d;
        EXPECT_EQ(defect_causes_fault(layout, fault_kind::short_circuit, 1.0,
                                      y, d),
                  reference_bridged(layout, y, d) > 0);
        EXPECT_EQ(defect_causes_fault(layout, fault_kind::open_circuit, 1.0,
                                      y, d),
                  reference_severed(layout, y, d) > 0);
    }
    // Non-finite sizes: an infinite disc covers every wire, a NaN one none.
    const wire_array_layout layout = small_layout();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(defect_causes_fault(layout, fault_kind::short_circuit, 1.0,
                                    3.0, inf));
    EXPECT_FALSE(defect_causes_fault(
        layout, fault_kind::open_circuit, 1.0, 3.0,
        std::numeric_limits<double>::quiet_NaN()));
}

}  // namespace
}  // namespace silicon::yield
