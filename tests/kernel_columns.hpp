// kernel_columns.hpp — generated input columns and lane checks for the
// SoA kernel differentials (tests/{yield,cost,chiplet}/
// test_batch_differential.cpp).
//
// A splitmix64 stream picks each lane either from the column's working
// range or, one lane in four, from the edges: NaN, +-inf, +-0, the
// smallest and a random subnormal, DBL_MIN, negatives, 1e300, DBL_MAX,
// and the column's own boundaries (Murphy's 1e-9 knee, y0 at 0 and 1,
// p at 2, ...) together with the doubles on either side of each.
//
// The exact kernels' contract per lane: NaN exactly where the scalar
// library call throws, otherwise the library's bits.  The fast
// kernels': NaN exactly where the exact kernel is NaN.

#pragma once

#include "yield/defect.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace kernel_columns {

/// Seeds and lanes per kernel: ctest runs `quick`, the DISABLED_
/// long-run tests (and CI's "Kernel differential (long)" step) `long_run`.
struct budget {
    std::uint64_t seeds;
    std::size_t lanes;
};
inline constexpr budget quick{4, 2048};
inline constexpr budget long_run{128, 16384};

class generator {
public:
    explicit generator(std::uint64_t seed) : rng_{seed} {}

    double uniform(double lo, double hi) {
        return lo + (hi - lo) * rng_.next_double();
    }

    std::uint64_t below(std::uint64_t n) { return rng_.next() % n; }

    /// One lane: an edge value one time in four, else uniform in
    /// [lo, hi).
    double lane(double lo, double hi, std::initializer_list<double> bounds) {
        if (below(4) != 0) {
            return uniform(lo, hi);
        }
        const std::size_t pick = below(14 + 3 * bounds.size());
        if (pick >= 14) {
            const double b = bounds.begin()[(pick - 14) / 3];
            switch ((pick - 14) % 3) {
                case 0:
                    return b;
                case 1:
                    return std::nextafter(b, -kinf);
                default:
                    return std::nextafter(b, kinf);
            }
        }
        constexpr double edges[] = {
            std::numeric_limits<double>::quiet_NaN(),
            kinf,
            -kinf,
            0.0,
            -0.0,
            std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::min(),
            -1.0,
            1e300,
            std::numeric_limits<double>::max(),
        };
        if (pick < std::size(edges)) {
            return edges[pick];
        }
        switch (pick) {
            case 10: {  // a random positive subnormal
                const std::uint64_t bits = 1 + below((1ull << 52) - 1);
                double v = 0.0;
                std::memcpy(&v, &bits, sizeof v);
                return v;
            }
            case 11:
                return -uniform(lo, hi);
            case 12:
                return hi * 1e6;
            default:
                return lo * 1e-6;
        }
    }

    std::vector<double> column(std::size_t n, double lo, double hi,
                               std::initializer_list<double> bounds = {}) {
        std::vector<double> xs(n);
        for (double& x : xs) {
            x = lane(lo, hi, bounds);
        }
        return xs;
    }

private:
    static constexpr double kinf = std::numeric_limits<double>::infinity();
    silicon::yield::splitmix64 rng_;
};

/// The scalar library's result, or nullopt where it throws.
template <typename Fn>
auto scalar_call(Fn&& fn) -> std::optional<decltype(fn())> {
    try {
        return fn();
    } catch (...) {
        return std::nullopt;
    }
}

inline std::uint64_t bits_of(double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/// Checks every lane of one kernel pair against `scalar(i)` (the
/// library call for lane i): the exact lane is NaN exactly where the
/// library throws and carries its bits elsewhere; the fast lane is NaN
/// exactly where the exact one is.  Stops reporting after a few
/// failures so a broken kernel does not flood the log.
template <typename Scalar>
void expect_lanes(const char* kernel, const std::vector<double>& exact,
                  const std::vector<double>& fast, Scalar&& scalar) {
    int failures = 0;
    for (std::size_t i = 0; i < exact.size() && failures < 8; ++i) {
        const std::optional<double> want =
            scalar_call([&] { return scalar(i); });
        const bool exact_ok = want.has_value()
                                  ? bits_of(*want) == bits_of(exact[i])
                                  : std::isnan(exact[i]);
        if (!exact_ok) {
            ++failures;
            ADD_FAILURE() << kernel << " lane " << i << ": library "
                          << (want ? std::to_string(*want) : "throws")
                          << " (0x" << std::hex
                          << (want ? bits_of(*want) : 0) << "), kernel "
                          << exact[i] << " (0x" << bits_of(exact[i])
                          << ")" << std::dec;
        }
        if (std::isnan(fast[i]) != std::isnan(exact[i])) {
            ++failures;
            ADD_FAILURE() << kernel << "_fast lane " << i << ": exact "
                          << exact[i] << ", fast " << fast[i];
        }
    }
}

}  // namespace kernel_columns
