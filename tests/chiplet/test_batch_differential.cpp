// test_batch_differential.cpp — the SoA chiplet kernel against
// evaluate_chiplet on generated specs (see tests/kernel_columns.hpp for
// the column generator and the per-lane contract).  Specs cover all
// three substrates, splits 1–8 (and the out-of-range 0 and 17), every
// spec-level guard, and parameters that make lanes hit each throw: the
// die does not fit the wafer, the die yield or the module yield
// underflows to zero, the system cost overflows.

#include "chiplet/batch.hpp"

#include "../kernel_columns.hpp"
#include "chiplet/model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace batch = silicon::chiplet::batch;
namespace chiplet = silicon::chiplet;
using kernel_columns::expect_lanes;

namespace {

constexpr std::size_t kAreasPerSpec = 256;

chiplet::chiplet_spec generated_spec(kernel_columns::generator& g) {
    constexpr double knan = std::numeric_limits<double>::quiet_NaN();
    chiplet::chiplet_spec s;
    s.substrate = static_cast<chiplet::substrate_kind>(g.below(3));
    s.logic_area_mm2 = g.uniform(50.0, 500.0);
    s.memory_area_mm2 = g.below(8) == 0 ? 0.0 : g.uniform(0.0, 300.0);
    s.io_area_mm2 = g.uniform(0.0, 150.0);
    s.d2d_area_mm2 = g.uniform(0.0, 20.0);
    s.lambda_um = g.uniform(0.2, 1.0);
    s.c0_usd = g.uniform(1000.0, 10000.0);
    s.x = g.uniform(1.1, 2.5);
    s.wafer_radius_cm = g.uniform(5.0, 15.0);
    s.edge_exclusion_cm = g.uniform(0.0, 0.5);
    s.defects_per_cm2 = g.uniform(0.05, 2.0);
    s.memory_defect_factor = g.uniform(0.0, 1.0);
    s.io_defect_factor = g.uniform(0.0, 1.0);
    s.clustering_alpha = g.uniform(0.5, 5.0);
    s.test_coverage = g.uniform(0.8, 1.0);
    s.tester_rate_per_hour = g.uniform(600.0, 7200.0);
    s.test_seconds_fixed = g.uniform(0.0, 2.0);
    s.test_seconds_per_cm2 = g.uniform(0.0, 5.0);
    s.rdl_defects_per_cm2 = g.uniform(0.0, 0.2);
    s.interposer_defects_per_cm2 = g.uniform(0.0, 0.5);
    s.package_area_factor = g.uniform(1.0, 2.0);
    s.bond_yield = g.uniform(0.9, 1.0);
    s.bonding_cost_per_chiplet = g.uniform(0.0, 2.0);
    switch (g.below(12)) {
        case 0:  // the die yield underflows to zero
            s.defects_per_cm2 = g.uniform(1e5, 1e8);
            s.clustering_alpha = g.uniform(100.0, 400.0);
            break;
        case 1:  // the substrate, hence the module, yield underflows
            s.rdl_defects_per_cm2 = 1e4;
            s.interposer_defects_per_cm2 = 1e4;
            break;
        case 2:  // known-good^n underflows: no test coverage, tiny yield
            s.test_coverage = 0.0;
            s.defects_per_cm2 = g.uniform(50.0, 500.0);
            s.clustering_alpha = g.uniform(20.0, 60.0);
            break;
        case 3:  // the system cost overflows
            s.bonding_cost_per_chiplet = 1e308;
            break;
        case 4: {  // one spec-level guard fails (or sits on its bound)
            const double bad[] = {0.0, -1.0, knan, 1.5};
            const double v = bad[g.below(4)];
            switch (g.below(10)) {
                case 0: s.clustering_alpha = v; break;
                case 1: s.test_coverage = v; break;
                case 2: s.bond_yield = v; break;
                case 3: s.package_area_factor = v; break;
                case 4: s.d2d_area_mm2 = v; break;
                case 5: s.wafer_radius_cm = v; break;
                case 6: s.edge_exclusion_cm = 20.0; break;
                case 7: s.c0_usd = v; break;
                case 8: s.lambda_um = v; break;
                default: s.generation_step_um = v; break;
            }
            break;
        }
        default:
            break;
    }
    return s;
}

void run(const kernel_columns::budget b) {
    for (std::uint64_t seed = 1; seed <= b.seeds; ++seed) {
        SCOPED_TRACE(seed);
        kernel_columns::generator g{0xc41b0000u + seed};
        for (std::size_t s = 0; s < b.lanes / kAreasPerSpec; ++s) {
            const chiplet::chiplet_spec spec = generated_spec(g);
            const int chiplets =
                g.below(32) == 0 ? (g.below(2) == 0 ? 0 : 17)
                                 : 1 + static_cast<int>(g.below(8));
            SCOPED_TRACE(testing::Message()
                         << "spec " << s << " substrate "
                         << static_cast<int>(spec.substrate) << " chiplets "
                         << chiplets);
            const std::vector<double> area =
                g.column(kAreasPerSpec, 20.0, 3000.0, {0.0});
            std::vector<double> exact(kAreasPerSpec);
            std::vector<double> fast(kAreasPerSpec);
            batch::cost_per_good_system(spec, chiplets, area.data(),
                                        exact.data(), kAreasPerSpec);
            batch::cost_per_good_system_fast(spec, chiplets, area.data(),
                                             fast.data(), kAreasPerSpec);
            expect_lanes("cost_per_good_system", exact, fast,
                         [&](std::size_t i) {
                             chiplet::chiplet_spec lane =
                                 chiplet::scaled_to_total(spec, area[i]);
                             lane.chiplets = chiplets;
                             return chiplet::evaluate_chiplet(lane)
                                 .cost_per_good_system_usd;
                         });
        }
    }
}

TEST(ChipletBatchDifferential, GeneratedSpecsMatchEvaluateChiplet) {
    run(kernel_columns::quick);
}

TEST(ChipletBatchDifferential, DISABLED_GeneratedSpecsLongRun) {
    run(kernel_columns::long_run);
}

}  // namespace
