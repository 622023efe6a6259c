// test_batch_differential.cpp — every SoA yield kernel against its
// scalar model on generated columns (see tests/kernel_columns.hpp for
// the generator and the per-lane contract).  The exact kernels must
// carry the model's bits and NaN exactly where it throws; the fast
// kernels must NaN the same lanes.

#include "yield/batch.hpp"

#include "../kernel_columns.hpp"
#include "core/units.hpp"
#include "yield/models.hpp"
#include "yield/scaled.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace batch = silicon::yield::batch;
namespace yield = silicon::yield;
using kernel_columns::expect_lanes;
using silicon::microns;
using silicon::probability;
using silicon::square_centimeters;

namespace {

/// The columns every single-column model reads: fault counts around
/// Murphy's 1e-9 knee, the exp underflow near 745 and the range a sweep
/// uses.
std::vector<double> fault_column(kernel_columns::generator& g,
                                 std::size_t n) {
    return g.column(n, 0.0, 20.0, {1e-9, 0.0, 745.0});
}

void run(const kernel_columns::budget b) {
    for (std::uint64_t seed = 1; seed <= b.seeds; ++seed) {
        SCOPED_TRACE(seed);
        kernel_columns::generator g{0x7e1d0000u + seed};
        const std::size_t n = b.lanes;
        std::vector<double> exact(n);
        std::vector<double> fast(n);

        const std::vector<double> f = fault_column(g, n);
        batch::poisson_yield(f.data(), exact.data(), n);
        batch::poisson_yield_fast(f.data(), fast.data(), n);
        expect_lanes("poisson_yield", exact, fast, [&](std::size_t i) {
            return yield::poisson_model{}.yield(f[i]).value();
        });

        batch::murphy_yield(f.data(), exact.data(), n);
        batch::murphy_yield_fast(f.data(), fast.data(), n);
        expect_lanes("murphy_yield", exact, fast, [&](std::size_t i) {
            return yield::murphy_model{}.yield(f[i]).value();
        });

        batch::seeds_yield(f.data(), exact.data(), n);
        batch::seeds_yield_fast(f.data(), fast.data(), n);
        expect_lanes("seeds_yield", exact, fast, [&](std::size_t i) {
            return yield::seeds_model{}.yield(f[i]).value();
        });

        for (const int steps : {-1, 0, 1, 2, 10, 37, 1000}) {
            SCOPED_TRACE(steps);
            batch::bose_einstein_yield(f.data(), steps, exact.data(), n);
            batch::bose_einstein_yield_fast(f.data(), steps, fast.data(), n);
            expect_lanes("bose_einstein_yield", exact, fast,
                         [&](std::size_t i) {
                             return yield::bose_einstein_model{steps}
                                 .yield(f[i])
                                 .value();
                         });
        }

        const std::vector<double> alpha = g.column(n, 0.05, 8.0, {0.0});
        batch::negative_binomial_yield(f.data(), alpha.data(), exact.data(),
                                       n);
        batch::negative_binomial_yield_fast(f.data(), alpha.data(),
                                            fast.data(), n);
        expect_lanes("negative_binomial_yield", exact, fast,
                     [&](std::size_t i) {
                         return yield::negative_binomial_model{alpha[i]}
                             .yield(f[i])
                             .value();
                     });

        const std::vector<double> area = g.column(n, 0.0, 6.0, {0.0});
        const std::vector<double> lambda = g.column(n, 0.05, 2.0, {0.0});
        const std::vector<double> d = g.column(n, 0.0, 5.0, {0.0});
        const std::vector<double> p = g.column(n, 2.0, 6.0, {2.0});
        batch::scaled_poisson_yield(area.data(), lambda.data(), d.data(),
                                    p.data(), exact.data(), n);
        batch::scaled_poisson_yield_fast(area.data(), lambda.data(),
                                         d.data(), p.data(), fast.data(), n);
        expect_lanes("scaled_poisson_yield", exact, fast,
                     [&](std::size_t i) {
                         const yield::scaled_poisson_model model{d[i], p[i]};
                         return model
                             .yield(square_centimeters{area[i]},
                                    microns{lambda[i]})
                             .value();
                     });

        const std::vector<double> y0 = g.column(n, 0.0, 1.0, {0.0, 1.0});
        const std::vector<double> a0 = g.column(n, 0.1, 3.0, {0.0});
        batch::reference_yield(area.data(), y0.data(), a0.data(),
                               exact.data(), n);
        batch::reference_yield_fast(area.data(), y0.data(), a0.data(),
                                    fast.data(), n);
        expect_lanes("reference_yield", exact, fast, [&](std::size_t i) {
            const yield::reference_die_yield model{
                probability{y0[i]}, square_centimeters{a0[i]}};
            return model.yield(square_centimeters{area[i]}).value();
        });
    }
}

TEST(YieldBatchDifferential, GeneratedColumnsMatchScalarModels) {
    run(kernel_columns::quick);
}

TEST(YieldBatchDifferential, DISABLED_GeneratedColumnsLongRun) {
    run(kernel_columns::long_run);
}

}  // namespace
