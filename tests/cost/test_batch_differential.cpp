// test_batch_differential.cpp — every SoA cost kernel against its
// scalar library call on generated columns (see tests/kernel_columns.hpp
// for the generator and the per-lane contract): the pure wafer cost
// against wafer_cost_model::pure_wafer_cost, and the Scenario #1/#2
// cost per transistor against core::scenario1/2 built through the serve
// endpoints' constructor chain.

#include "cost/batch.hpp"

#include "../kernel_columns.hpp"
#include "core/scenario.hpp"
#include "core/units.hpp"
#include "cost/wafer_cost.hpp"
#include "geometry/wafer.hpp"
#include "yield/scaled.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace batch = silicon::cost::batch;
namespace core = silicon::core;
namespace cost = silicon::cost;
namespace geometry = silicon::geometry;
namespace yield = silicon::yield;
using kernel_columns::expect_lanes;
using silicon::centimeters;
using silicon::dollars;
using silicon::microns;
using silicon::probability;

namespace {

void run(const kernel_columns::budget b) {
    constexpr double knan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kinf = std::numeric_limits<double>::infinity();
    for (std::uint64_t seed = 1; seed <= b.seeds; ++seed) {
        SCOPED_TRACE(seed);
        kernel_columns::generator g{0xc0570000u + seed};
        const std::size_t n = b.lanes;
        std::vector<double> exact(n);
        std::vector<double> fast(n);

        const std::vector<double> lambda = g.column(n, 0.05, 2.5, {0.0, 1.0});
        const std::vector<double> c0 = g.column(n, 50.0, 5000.0, {0.0});
        const std::vector<double> x = g.column(n, 1.0, 2.5, {1.0});

        for (const double step : {0.2, 0.1, 0.35, 0.0, -0.2, knan, kinf}) {
            SCOPED_TRACE(step);
            batch::pure_wafer_cost(c0.data(), x.data(), lambda.data(), step,
                                   exact.data(), n);
            batch::pure_wafer_cost_fast(c0.data(), x.data(), lambda.data(),
                                        step, fast.data(), n);
            expect_lanes("pure_wafer_cost", exact, fast, [&](std::size_t i) {
                const cost::wafer_cost_model model{dollars{c0[i]}, x[i],
                                                   microns{step}};
                return model.pure_wafer_cost(microns{lambda[i]}).value();
            });
        }

        const std::vector<double> radius = g.column(n, 2.0, 15.0, {0.0});
        const std::vector<double> density = g.column(n, 1.0, 400.0, {0.0});
        const std::vector<double> y0 = g.column(n, 0.0, 1.0, {0.0, 1.0});
        batch::scenario_columns cols;
        cols.lambda_um = lambda.data();
        cols.c0_usd = c0.data();
        cols.x = x.data();
        cols.wafer_radius_cm = radius.data();
        cols.design_density = density.data();
        cols.y0 = y0.data();

        batch::scenario1_cost_per_transistor(cols, exact.data(), n);
        batch::scenario1_cost_per_transistor_fast(cols, fast.data(), n);
        expect_lanes("scenario1_cost_per_transistor", exact, fast,
                     [&](std::size_t i) {
                         core::scenario1 scenario;
                         scenario.wafer_cost =
                             cost::wafer_cost_model{dollars{c0[i]}, x[i]};
                         scenario.wafer =
                             geometry::wafer{centimeters{radius[i]}};
                         scenario.design_density = density[i];
                         return scenario
                             .cost_per_transistor(microns{lambda[i]})
                             .value();
                     });

        batch::scenario2_cost_per_transistor(cols, exact.data(), n);
        batch::scenario2_cost_per_transistor_fast(cols, fast.data(), n);
        expect_lanes("scenario2_cost_per_transistor", exact, fast,
                     [&](std::size_t i) {
                         core::scenario2 scenario;
                         scenario.wafer_cost =
                             cost::wafer_cost_model{dollars{c0[i]}, x[i]};
                         scenario.wafer =
                             geometry::wafer{centimeters{radius[i]}};
                         scenario.design_density = density[i];
                         scenario.yield =
                             yield::reference_die_yield{probability{y0[i]}};
                         return scenario
                             .cost_per_transistor(microns{lambda[i]})
                             .value();
                     });
    }
}

TEST(CostBatchDifferential, GeneratedColumnsMatchScalarModels) {
    run(kernel_columns::quick);
}

TEST(CostBatchDifferential, DISABLED_GeneratedColumnsLongRun) {
    run(kernel_columns::long_run);
}

}  // namespace
