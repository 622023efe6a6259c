// math.hpp — dispatched array transcendentals for the fast_math path.
//
// These are the only vectorized primitives the `*_fast` batch kernels
// use: everything else in those kernels is plain elementwise
// arithmetic.  Each call processes a contiguous lane range with the
// backend picked once by simd::active_target() (see dispatch.hpp).
//
// Numerics contract (vector backends):
//
//   * exp_lanes    — |error| <= ~1.5 ULP over the full double range,
//                    with IEEE specials (NaN -> NaN, +-inf, overflow
//                    to inf, gradual underflow to 0/subnormals).
//   * expm1_lanes  — |error| <= ~2 ULP; NaN/inf specials as libm,
//                    expm1(+-0) = +-0.
//   * pow_lanes    — base >= 0 domain (negative bases return NaN, like
//                    libm for non-integer exponents); |error| <= ~3
//                    ULP via a double-double log, so accuracy holds
//                    even for results near the underflow/overflow
//                    boundary; specials: pow(x,0)=pow(1,y)=1 (any x/y,
//                    NaN included), pow(0,y>0)=0, pow(0,y<0)=inf,
//                    pow(inf,y>0)=inf, pow(inf,y<0)=0; an infinite
//                    exponent on a finite positive base grows iff
//                    (b > 1) agrees with the sign of y, as libm; NaN
//                    otherwise propagates.
//
// The scalar backend implements the same entry points with std::exp /
// std::expm1 / std::pow per lane, so a kernel written against these
// primitives runs everywhere; only the rounding of each lane differs
// between targets (bounded by the ULP harness in tests/simd).
//
// Determinism: every backend computes each lane independently and a
// sub-range call [i, j) produces bytes identical to the same lanes of
// a full-range call — tails are evaluated with the *same* vector math
// through a padded register, never demoted to libm.  This is what
// makes fast_math sweeps byte-stable across thread counts and shard
// boundaries (pinned by tests/simd/test_vec_math.cpp).

#pragma once

#include <cmath>
#include <cstddef>

namespace silicon::simd {

/// out[i] = exp(x[i]) for i in [0, n).
void exp_lanes(const double* x, double* out, std::size_t n);

/// out[i] = expm1(x[i]) for i in [0, n).
void expm1_lanes(const double* x, double* out, std::size_t n);

/// out[i] = pow(base[i], expo[i]) for i in [0, n); base[i] >= 0.
void pow_lanes(const double* base, const double* expo, double* out,
               std::size_t n);

/// The two block-transcendental policies the SoA batch kernels are
/// written against: each kernel body is one template over `Math`, and
/// calls only Math::exp, Math::expm1 and Math::pow on whole blocks.
///
/// vector_lanes is the dispatched vector math above: the `*_fast`
/// kernels.
struct vector_lanes {
    static void exp(const double* x, double* out, std::size_t n) {
        exp_lanes(x, out, n);
    }
    static void expm1(const double* x, double* out, std::size_t n) {
        expm1_lanes(x, out, n);
    }
    static void pow(const double* base, const double* expo, double* out,
                    std::size_t n) {
        pow_lanes(base, expo, out, n);
    }
};

/// libm_lanes is one std::exp / std::pow call per lane, the calls the
/// scalar models make: the bit-exact kernels.  It never depends on
/// active_target().  Its expm1 is std::exp(x) - 1, not std::expm1: the
/// scalar Murphy model evaluates (1 - e^-f)/f, and IEEE subtraction is
/// exactly antisymmetric, so a body's -(e^-f - 1)/f has the same bits.
struct libm_lanes {
    static void exp(const double* x, double* out, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = std::exp(x[i]);
        }
    }
    static void expm1(const double* x, double* out, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = std::exp(x[i]) - 1.0;
        }
    }
    static void pow(const double* base, const double* expo, double* out,
                    std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = std::pow(base[i], expo[i]);
        }
    }
};

namespace detail {

/// Function table one backend exports; resolved once in math.cpp.
struct math_table {
    void (*exp_)(const double*, double*, std::size_t);
    void (*expm1_)(const double*, double*, std::size_t);
    void (*pow_)(const double*, const double*, double*, std::size_t);
};

/// Scalar libm backend (always available).
const math_table& scalar_table();

#if defined(__x86_64__) || defined(_M_X64)
/// AVX2+FMA backend, defined in math_avx2.cpp (x86-64 builds only).
/// Callers must have checked host_supports(target::avx2).
const math_table& avx2_table();
#endif

#if defined(__aarch64__)
/// NEON backend, defined in math_neon.cpp (aarch64 builds only).
const math_table& neon_table();
#endif

}  // namespace detail

}  // namespace silicon::simd
