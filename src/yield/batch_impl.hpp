// batch_impl.hpp — the SoA yield kernel bodies, one per model.
//
// Every body works in fixed-size blocks of lanes through small stack
// buffers.  Phase one is plain elementwise code that classifies each
// lane with the scalar model's guard chain and writes a *masked*
// argument: invalid lanes get a benign value (0 for exp, base 1 and
// exponent 0 for pow), so the transcendental never sees them.  Phase
// two is one block transcendental, Math::exp / Math::expm1 /
// Math::pow.  Phase three applies the scalar post-guards and
// overwrites masked lanes with quiet NaN.
//
// `Math` is one of the two policies in simd/math.hpp:
//
//   * simd::libm_lanes (std::exp / std::pow per lane) gives the
//     bit-exact kernels: every other operation of a body is the
//     scalar model's, in the scalar association order;
//   * simd::vector_lanes (the dispatched vector math) gives the
//     `*_fast` kernels, which agree to the ULP bounds of DESIGN.md §15
//     and NaN exactly the same lanes.
//
// Masking before the transcendental is what makes guard lanes
// serialize as the same JSON nulls under both policies.
//
// The header is compiled once per instruction-set variant: batch.cpp
// includes it into namespace `baseline` with the portable flags, and
// on x86-64 batch_avx2.cpp includes it into namespace `avx2` with
// -mavx2 -mfma -ffp-contract=off, so the classification and guard
// passes of the fast kernels run at the width of the AVX2
// transcendentals.  -ffp-contract=off keeps the two variants
// bit-identical: the passes are plain IEEE adds/muls/divides/compares,
// and without FMA contraction -mfma cannot change a rounding.  The
// exact kernels use the `baseline` variant only.
//
// Define SILICON_KERNEL_NS to the variant namespace before including.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "simd/math.hpp"

namespace silicon::yield::batch {
namespace SILICON_KERNEL_NS {

constexpr double nan_lane = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t block = 256;

/// The scalar models' shared post-guard: a computed yield outside
/// [0, 1] (or NaN) maps to the NaN lane.
inline double yield_guard(double y) {
    return !((y >= 0.0) & (y <= 1.0)) ? nan_lane : y;
}

template <class Math>
void poisson_yield(const double* expected_faults, double* out,
                   std::size_t n) {
    double arg[block];
    double e[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            arg[j] = !(f >= 0.0) ? 0.0 : -f;
        }
        Math::exp(arg, e, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            out[base + j] = !(f >= 0.0) ? nan_lane : e[j];
        }
    }
}

template <class Math>
void murphy_yield(const double* expected_faults, double* out,
                  std::size_t n) {
    double arg[block];
    double em[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            // Only the main branch reaches the transcendental; guard
            // and linearized lanes are masked to 0.
            arg[j] = ((f >= 0.0) & !(f < 1e-9)) ? -f : 0.0;
        }
        Math::expm1(arg, em, len);
        // Branchless select chain (the division runs on every lane —
        // f = 0 lanes produce a NaN the linearization select discards)
        // so the compiler can if-convert and vectorize the pass.
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            // murphy_model::yield linearizes below 1e-9: same ops, same
            // association, no transcendental.
            const double lin = 1.0 - 0.5 * f;
            const double t = -em[j] / f;
            const double y = (f < 1e-9) ? lin * lin : t * t;
            out[base + j] = !(f >= 0.0) ? nan_lane : yield_guard(y);
        }
    }
}

/// 1/(1 + f) has no transcendental, so one body serves both kernels.
inline void seeds_yield(const double* expected_faults, double* out,
                        std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        const double f = expected_faults[i];
        out[i] = !(f >= 0.0) ? nan_lane : 1.0 / (1.0 + f);
    }
}

template <class Math>
void bose_einstein_yield(const double* expected_faults, int critical_steps,
                         double* out, std::size_t n) {
    if (critical_steps < 1) {
        // bose_einstein_model's constructor throw: every lane invalid.
        std::fill(out, out + n, nan_lane);
        return;
    }
    const double steps = static_cast<double>(critical_steps);
    double pb[block];
    double pe[block];
    double y[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            const bool valid = f >= 0.0;
            const double per_step = f / steps;
            pb[j] = valid ? 1.0 + per_step : 1.0;
            pe[j] = valid ? -steps : 0.0;
        }
        Math::pow(pb, pe, y, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            out[base + j] = !(f >= 0.0) ? nan_lane : yield_guard(y[j]);
        }
    }
}

template <class Math>
void negative_binomial_yield(const double* expected_faults,
                             const double* alpha, double* out,
                             std::size_t n) {
    double pb[block];
    double pe[block];
    double y[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            const double a = alpha[base + j];
            const bool valid = (a > 0.0) & (f >= 0.0);
            // Unconditional division (masked denominator) so the loop
            // if-converts; f/a only reaches pb on valid lanes.
            const double fa = f / (valid ? a : 1.0);
            pb[j] = valid ? 1.0 + fa : 1.0;
            pe[j] = valid ? -a : 0.0;
        }
        Math::pow(pb, pe, y, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double f = expected_faults[base + j];
            const double a = alpha[base + j];
            out[base + j] = (!(a > 0.0) | !(f >= 0.0))
                                ? nan_lane
                                : yield_guard(y[j]);
        }
    }
}

template <class Math>
void scaled_poisson_yield(const double* die_area_cm2,
                          const double* lambda_um, const double* d,
                          const double* p, double* out, std::size_t n) {
    double pb[block];
    double pe[block];
    double lp[block];
    double arg[block];
    double e[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double a = die_area_cm2[base + j];
            const double l = lambda_um[base + j];
            const double di = d[base + j];
            const double pi = p[base + j];
            // Constructor guards: scaled_poisson_model{d, p},
            // square_centimeters{area}, microns{lambda}, then the
            // model's own lambda > 0 requirement.
            const bool valid = (di >= 0.0) & (pi > 2.0) & (a >= 0.0) &
                               !std::isinf(a) & (l > 0.0) &
                               !std::isinf(l);
            pb[j] = valid ? l : 1.0;
            pe[j] = valid ? pi : 0.0;
        }
        Math::pow(pb, pe, lp, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double a = die_area_cm2[base + j];
            const double di = d[base + j];
            // Same association as the scalar model: A * (D / l^p);
            // masked lanes evaluate a benign exp(-0) they never read.
            const double expected = a * (di / lp[j]);
            arg[j] = ((pe[j] == 0.0) & (pb[j] == 1.0)) ? 0.0 : -expected;
        }
        Math::exp(arg, e, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double a = die_area_cm2[base + j];
            const double l = lambda_um[base + j];
            const double di = d[base + j];
            const double pi = p[base + j];
            const bool invalid =
                !((di >= 0.0) & (pi > 2.0) & (a >= 0.0) &
                  !std::isinf(a) & (l > 0.0) & !std::isinf(l));
            out[base + j] = invalid ? nan_lane : yield_guard(e[j]);
        }
    }
}

template <class Math>
void reference_yield(const double* die_area_cm2, const double* y0,
                     const double* a0_cm2, double* out, std::size_t n) {
    double pb[block];
    double pe[block];
    double y[block];
    for (std::size_t base = 0; base < n; base += block) {
        const std::size_t len = (n - base < block) ? (n - base) : block;
        for (std::size_t j = 0; j < len; ++j) {
            const double a = die_area_cm2[base + j];
            const double y0i = y0[base + j];
            const double a0i = a0_cm2[base + j];
            // Constructor guards: probability{y0},
            // square_centimeters{a0}, reference_die_yield{y0, a0}
            // (y0 > 0, a0 > 0), then the area argument's own check.
            const bool valid = (y0i > 0.0) & (y0i <= 1.0) &
                               (a0i > 0.0) & !std::isinf(a0i) &
                               (a >= 0.0) & !std::isinf(a);
            // Unconditional division (masked denominator) so the loop
            // if-converts; a/a0 only reaches pe on valid lanes.
            const double ratio = a / (valid ? a0i : 1.0);
            pb[j] = valid ? y0i : 1.0;
            pe[j] = valid ? ratio : 0.0;
        }
        Math::pow(pb, pe, y, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double a = die_area_cm2[base + j];
            const double y0i = y0[base + j];
            const double a0i = a0_cm2[base + j];
            const bool invalid =
                !((y0i > 0.0) & (y0i <= 1.0) & (a0i > 0.0) &
                  !std::isinf(a0i) & (a >= 0.0) & !std::isinf(a));
            out[base + j] = invalid ? nan_lane : yield_guard(y[j]);
        }
    }
}

// The fast_math kernels of this compilation, for batch.cpp's dispatch.

void poisson_yield_fast(const double* f, double* out, std::size_t n) {
    poisson_yield<simd::vector_lanes>(f, out, n);
}

void murphy_yield_fast(const double* f, double* out, std::size_t n) {
    murphy_yield<simd::vector_lanes>(f, out, n);
}

void bose_einstein_yield_fast(const double* f, int steps, double* out,
                              std::size_t n) {
    bose_einstein_yield<simd::vector_lanes>(f, steps, out, n);
}

void negative_binomial_yield_fast(const double* f, const double* a,
                                  double* out, std::size_t n) {
    negative_binomial_yield<simd::vector_lanes>(f, a, out, n);
}

void scaled_poisson_yield_fast(const double* area, const double* l,
                               const double* d, const double* p,
                               double* out, std::size_t n) {
    scaled_poisson_yield<simd::vector_lanes>(area, l, d, p, out, n);
}

void reference_yield_fast(const double* area, const double* y0,
                          const double* a0, double* out, std::size_t n) {
    reference_yield<simd::vector_lanes>(area, y0, a0, out, n);
}

}  // namespace SILICON_KERNEL_NS
}  // namespace silicon::yield::batch
