// batch_impl.hpp — the SoA cost kernel bodies, one per model, each a
// template over the block transcendentals it calls (simd::libm_lanes
// for the bit-exact kernels, simd::vector_lanes for the `*_fast`
// ones).  Same scheme as yield/batch_impl.hpp: classify lanes with the
// scalar guard chain, mask invalid lanes to benign arguments before
// the transcendental, apply the post-guards; compiled into namespace
// `baseline` by batch.cpp and, on x86-64, into namespace `avx2` by
// batch_avx2.cpp with -mavx2 -mfma -ffp-contract=off, bit-identically.
//
// Define SILICON_KERNEL_NS to the variant namespace before including.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "cost/batch.hpp"
#include "simd/math.hpp"

namespace silicon::cost::batch {
namespace SILICON_KERNEL_NS {

constexpr double nan_lane = std::numeric_limits<double>::quiet_NaN();
constexpr double pi = 3.14159265358979323846;  // core/units.hpp disc_area
constexpr std::size_t block = 256;

/// Flattened (no short-circuit control flow, `&` on bools) so the
/// per-lane classification loops that inline this if-convert and
/// vectorize.  NaN fails every ordered comparison, so the explicit
/// isnan checks of the scalar kernels are subsumed.
inline bool scenario_inputs_valid(double c0, double x, double r, double l) {
    return (c0 > 0.0) & !std::isinf(c0) & (x >= 1.0) & (r > 0.0) &
           !std::isinf(r) & (l > 0.0) & !std::isinf(l);
}

template <class Math>
void pure_wafer_cost(const double* c0_usd, const double* x,
                     const double* lambda_um, double generation_step_um,
                     double* out, std::size_t n) {
    if (!(generation_step_um > 0.0) || std::isinf(generation_step_um)) {
        // microns{step} or wafer_cost_model throws: every lane invalid.
        std::fill(out, out + n, nan_lane);
        return;
    }
    double pb[block];
    double pe[block];
    double xp[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double c0 = c0_usd[base + j];
            const double xi = x[base + j];
            const double l = lambda_um[base + j];
            const bool valid = (c0 > 0.0) & !std::isinf(c0) &
                               (xi >= 1.0) & (l > 0.0) & !std::isinf(l);
            // Unconditional division so the loop if-converts.
            const double expo = (1.0 - l) / generation_step_um;
            pb[j] = valid ? xi : 1.0;
            pe[j] = valid ? expo : 0.0;
        }
        Math::pow(pb, pe, xp, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double c0 = c0_usd[base + j];
            const double xi = x[base + j];
            const double l = lambda_um[base + j];
            const bool valid = (c0 > 0.0) & !std::isinf(c0) &
                               (xi >= 1.0) & (l > 0.0) & !std::isinf(l);
            const double cw = c0 * xp[j];
            out[base + j] =
                (!valid | std::isnan(cw) | std::isinf(cw)) ? nan_lane
                                                           : cw;
        }
    }
}

template <class Math>
void scenario1_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n) {
    // Hoisted column pointers: re-reading them from the struct inside
    // the lane loops makes the vectorizer treat them as loop-variant
    // and give up.
    const double* const col_l = in.lambda_um;
    const double* const col_c0 = in.c0_usd;
    const double* const col_x = in.x;
    const double* const col_r = in.wafer_radius_cm;
    const double* const col_dd = in.design_density;
    double pb[block];
    double pe[block];
    double xp[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double l = col_l[base + j];
            const double c0 = col_c0[base + j];
            const double x = col_x[base + j];
            const double r = col_r[base + j];
            const bool valid = scenario_inputs_valid(c0, x, r, l);
            const double expo = (1.0 - l) / 0.2;
            pb[j] = valid ? x : 1.0;
            pe[j] = valid ? expo : 0.0;
        }
        Math::pow(pb, pe, xp, len);
        // Branchless guard chain (every intermediate runs on every
        // lane; invalid lanes are discarded by the final select) so
        // the compiler can if-convert and vectorize the pass.
        for (std::size_t j = 0; j < len; ++j) {
            const double l = col_l[base + j];
            const double c0 = col_c0[base + j];
            const double x = col_x[base + j];
            const double r = col_r[base + j];
            const double dd = col_dd[base + j];
            const double cw = c0 * xp[j];
            const double wafer_area_cm2 = pi * r * r;
            const double wafer_um2 = wafer_area_cm2 * 1e8;
            const double area_per_transistor_um2 = dd * l * l;
            const double ctr = cw * area_per_transistor_um2 / wafer_um2;
            const bool invalid =
                !scenario_inputs_valid(c0, x, r, l) | std::isnan(cw) |
                std::isinf(cw) | !(wafer_area_cm2 >= 0.0) |
                std::isinf(wafer_area_cm2) | std::isnan(ctr) |
                std::isinf(ctr);
            out[base + j] = invalid ? nan_lane : ctr;
        }
    }
}

template <class Math>
void scenario2_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n) {
    // Hoisted column pointers, as in scenario1.
    const double* const col_l = in.lambda_um;
    const double* const col_c0 = in.c0_usd;
    const double* const col_x = in.x;
    const double* const col_r = in.wafer_radius_cm;
    const double* const col_dd = in.design_density;
    const double* const col_y0 = in.y0;
    double pb[block];
    double pe[block];
    double xp[block];
    double arg[block];
    double ea[block];
    double yv[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double l = col_l[base + j];
            const double c0 = col_c0[base + j];
            const double x = col_x[base + j];
            const double r = col_r[base + j];
            const double y0 = col_y0[base + j];
            const bool valid = (y0 > 0.0) & (y0 <= 1.0) &
                               scenario_inputs_valid(c0, x, r, l);
            const double expo = (1.0 - l) / 0.2;
            pb[j] = valid ? x : 1.0;
            pe[j] = valid ? expo : 0.0;
            arg[j] = valid ? -5.3 * l : 0.0;
        }
        Math::pow(pb, pe, xp, len);
        Math::exp(arg, ea, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double l = col_l[base + j];
            const double c0 = col_c0[base + j];
            const double x = col_x[base + j];
            const double r = col_r[base + j];
            const double y0 = col_y0[base + j];
            const bool valid = (y0 > 0.0) & (y0 <= 1.0) &
                               scenario_inputs_valid(c0, x, r, l);
            const double die_area_cm2 = 16.5 * ea[j];
            pb[j] = valid ? y0 : 1.0;
            pe[j] = valid ? die_area_cm2 / 1.0 : 0.0;
        }
        Math::pow(pb, pe, yv, len);
        // Branchless guard chain, same shape as scenario1's.
        for (std::size_t j = 0; j < len; ++j) {
            const double l = col_l[base + j];
            const double c0 = col_c0[base + j];
            const double x = col_x[base + j];
            const double r = col_r[base + j];
            const double dd = col_dd[base + j];
            const double y0 = col_y0[base + j];
            const double cw = c0 * xp[j];
            const double wafer_area_cm2 = pi * r * r;
            const double wafer_um2 = wafer_area_cm2 * 1e8;
            const double area_per_transistor_um2 = dd * l * l;
            const double die_area_cm2 = 16.5 * ea[j];
            const double y = yv[j];
            const double ctr =
                cw * area_per_transistor_um2 / (wafer_um2 * y);
            const bool invalid =
                !((y0 > 0.0) & (y0 <= 1.0)) |
                !scenario_inputs_valid(c0, x, r, l) | std::isnan(cw) |
                std::isinf(cw) | !(wafer_area_cm2 >= 0.0) |
                std::isinf(wafer_area_cm2) | !(die_area_cm2 >= 0.0) |
                std::isinf(die_area_cm2) | !((y > 0.0) & (y <= 1.0)) |
                std::isnan(ctr) | std::isinf(ctr);
            out[base + j] = invalid ? nan_lane : ctr;
        }
    }
}

// The fast_math kernels of this compilation, for batch.cpp's dispatch.

void pure_wafer_cost_fast(const double* c0_usd, const double* x,
                          const double* lambda_um, double step_um,
                          double* out, std::size_t n) {
    pure_wafer_cost<simd::vector_lanes>(c0_usd, x, lambda_um, step_um, out,
                                        n);
}

void scenario1_cost_per_transistor_fast(const scenario_columns& in,
                                        double* out, std::size_t n) {
    scenario1_cost_per_transistor<simd::vector_lanes>(in, out, n);
}

void scenario2_cost_per_transistor_fast(const scenario_columns& in,
                                        double* out, std::size_t n) {
    scenario2_cost_per_transistor<simd::vector_lanes>(in, out, n);
}

}  // namespace SILICON_KERNEL_NS
}  // namespace silicon::cost::batch
