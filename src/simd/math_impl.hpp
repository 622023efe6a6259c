// math_impl.hpp — ISA-generic bodies of the vector transcendentals.
//
// Included only by the per-ISA translation units (math_avx2.cpp,
// math_neon.cpp), each of which supplies a traits struct V wrapping
// its intrinsics.  Keeping one algorithm shared between backends means
// the NEON path is the *same numerics* as the AVX2 path that CI
// exercises on x86 — only the register wrappers differ.
//
// Algorithms (see math.hpp for the resulting error bounds):
//
//   exp   — Cody-Waite reduction r = x - k*ln2 with a 2-term split
//           constant (k*ln2hi exact for |k| <= 2^31 because ln2hi
//           carries 20 trailing zero bits), degree-17 Taylor kernel
//           for expm1(r) on |r| <= ln2/2, and a two-step 2^k scaling
//           so overflow saturates to inf and underflow degrades
//           gradually through the subnormals with a single rounding.
//   expm1 — the same Taylor kernel applied directly on |x| <= ln2
//           (no cancellation), exp(x)-1 outside (where |exp(x)-1| is
//           bounded away from 0 so the subtraction is benign).
//   pow   — exp(y * log(x)) with log returned as a double-double
//           (hi, lo) pair: the leading 2s term of the atanh series is
//           compensated for both the division rounding *and* the
//           rounding of the 1+m denominator, which keeps the relative
//           error of y*log(x) near 2^-60 and therefore the final
//           error at a few ULP even when |y*log(x)| is several
//           hundred (results close to the overflow/underflow edge).
//
// Per-lane independence: nothing here mixes lanes, so the value of a
// lane never depends on its position inside a register.  The array
// drivers exploit that by computing ragged tails through a padded
// register — a sub-range call is bytewise a slice of the full-range
// call, which is what makes fast_math byte-stable across
// parallel_for shard boundaries and thread counts.

#pragma once

#include <cstddef>
#include <limits>

#include "simd/math.hpp"

// The drivers below unroll four independent kernel evaluations per
// iteration to hide FMA latency; that only works if the kernels are
// actually inlined there (an out-of-line call makes every vector
// register caller-saved, spilling the interleaved chains to the
// stack).  gcc declines to inline v_pow at -O2 on its own, so force
// it.
#if defined(__GNUC__)
#define SILICON_SIMD_INLINE inline __attribute__((always_inline))
#else
#define SILICON_SIMD_INLINE inline
#endif

namespace silicon::simd::detail {

// exp reduction constants (fdlibm split: ln2hi has 20 trailing zero
// mantissa bits, so k*ln2hi is exact for the |k| <= 1077 we produce).
inline constexpr double k_log2e = 1.44269504088896338700;   // 0x1.71547652b82fep+0
inline constexpr double k_ln2hi = 6.93147180369123816490e-01;  // 0x1.62e42fee00000p-1
inline constexpr double k_ln2lo = 1.90821492927058770002e-10;  // 0x1.a39ef35793c76p-33
inline constexpr double k_exp_hi_clamp = 710.0;   // > ln(DBL_MAX) = 709.78
inline constexpr double k_exp_lo_clamp = -746.0;  // < ln(0x1p-1075) = -745.2
inline constexpr double k_sqrt_half = 0.70710678118654752440;

// Taylor coefficients of (exp(r) - 1 - r) / r^2 = sum r^(n-2)/n!,
// n = 2..17.  Degree 17 keeps the truncation below 1e-17 relative up
// to |r| = ln2, which covers both the exp kernel (|r| <= ln2/2) and
// the direct expm1 window (|x| <= ln2).
inline constexpr double k_expm1_q[] = {
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
    1.0 / 87178291200.0,
    1.0 / 1307674368000.0,
    1.0 / 20922789888000.0,
    1.0 / 355687428096000.0,
};

// atanh series for log: log(m) = 2s * (1 + sum z^j / (2j+1)),
// z = s^2, s = (m-1)/(m+1), |s| <= sqrt(2)-1 / sqrt(2)+1 = 0.1716.
// The leading 1/3 term is carried as a two-double split (the 0.5-ULP
// rounding of 1/3 alone would cost ~1e-18 absolute in the tail, the
// single biggest error term of a naive evaluation); the remaining
// exact-rational terms put the truncation near 1e-20 relative.
inline constexpr double k_third_hi = 1.0 / 3.0;
inline constexpr double k_third_lo = 1.850371707708594e-17;  // 1/3 - k_third_hi
inline constexpr double k_log_q[] = {
    1.0 / 5.0,  1.0 / 7.0,  1.0 / 9.0,  1.0 / 11.0,
    1.0 / 13.0, 1.0 / 15.0, 1.0 / 17.0, 1.0 / 19.0,
    1.0 / 21.0, 1.0 / 23.0, 1.0 / 25.0,
};

/// Q(r) such that expm1(r) = r + r^2 * Q(r) (Horner, highest first).
template <class V>
SILICON_SIMD_INLINE typename V::reg expm1_q(typename V::reg r) {
    constexpr std::size_t terms = sizeof(k_expm1_q) / sizeof(k_expm1_q[0]);
    typename V::reg q = V::set1(k_expm1_q[terms - 1]);
    for (std::size_t i = terms - 1; i-- > 0;) {
        q = V::fma(q, r, V::set1(k_expm1_q[i]));
    }
    return q;
}

/// exp(hi + lo) for hi in [-746, 710], |lo| <~ 2^-50 * |hi|.
template <class V>
SILICON_SIMD_INLINE typename V::reg exp_core(typename V::reg hi, typename V::reg lo) {
    using R = typename V::reg;
    const R k = V::round_nearest(V::mul(hi, V::set1(k_log2e)));
    R r = V::fma(k, V::set1(-k_ln2hi), hi);  // exact
    r = V::fma(k, V::set1(-k_ln2lo), r);
    r = V::add(r, lo);
    const R p = V::fma(V::mul(r, r), expm1_q<V>(r), r);  // expm1(r)
    // 2^k in two exact halves so |k| up to 1077 neither overflows the
    // exponent field nor double-rounds the subnormal result.
    const R k1 = V::round_nearest(V::mul(k, V::set1(0.5)));
    const R k2 = V::sub(k, k1);
    const R scaled = V::mul(V::add(p, V::set1(1.0)), V::pow2i(k1));
    return V::mul(scaled, V::pow2i(k2));
}

/// exp(x) over the full double range with IEEE specials.
template <class V>
SILICON_SIMD_INLINE typename V::reg v_exp(typename V::reg x) {
    using R = typename V::reg;
    const R xc = V::min(V::max(x, V::set1(k_exp_lo_clamp)),
                        V::set1(k_exp_hi_clamp));
    R res = exp_core<V>(xc, V::set1(0.0));
    // Propagate (quieted) NaN inputs; the clamp above may have eaten
    // them depending on the ISA's min/max semantics.
    return V::select(V::unordered(x), V::add(x, x), res);
}

/// expm1(x) over the full double range with IEEE specials.
///
/// The two branches (direct polynomial on |x| <= ln2, exp(x)-1
/// outside) cost about the same, so computing both for every register
/// doubles the work.  A movemask test skips the unused branch when the
/// register is uniform — the common case for sweep grids, which are
/// monotone — without changing any lane's bits: each lane's value is
/// the same expression the mixed path's selects would have picked.
template <class V>
SILICON_SIMD_INLINE typename V::reg v_expm1(typename V::reg x) {
    using R = typename V::reg;
    const R small = V::le(V::abs(x), V::set1(6.93147180559945286227e-01));
    const int mm = V::movemask(small);
    if (mm == V::all_mask) {
        // All lanes small.  NaN lanes cannot be here (unordered le is
        // false), so only the signed-zero fixup applies: the
        // polynomial turns -0 into +0 (x + x^2 Q rounds -0 + 0 up);
        // hand zeros back verbatim so expm1(+-0) = +-0 like libm.
        const R direct = V::fma(V::mul(x, x), expm1_q<V>(x), x);
        return V::select(V::eq(x, V::set1(0.0)), x, direct);
    }
    if (mm == 0) {
        // No small lanes, so no zeros; NaN propagation still applies.
        const R via_exp = V::sub(v_exp<V>(x), V::set1(1.0));
        return V::select(V::unordered(x), V::add(x, x), via_exp);
    }
    const R direct = V::fma(V::mul(x, x), expm1_q<V>(x), x);
    const R via_exp = V::sub(v_exp<V>(x), V::set1(1.0));
    R res = V::select(small, direct, via_exp);
    res = V::select(V::eq(x, V::set1(0.0)), x, res);
    return V::select(V::unordered(x), V::add(x, x), res);
}

/// log(x) as a double-double (hi + lo), for x > 0 finite; x = +inf
/// yields a large finite hi (callers special-case inf bases).
template <class V>
SILICON_SIMD_INLINE void v_log_dd(typename V::reg x, typename V::reg& hi, typename V::reg& lo) {
    using R = typename V::reg;
    const R one = V::set1(1.0);
    // Subnormal bases: renormalize by 2^54 so the exponent field is
    // meaningful, then fold the 54 back into e.
    const R tiny = V::lt(x, V::set1(std::numeric_limits<double>::min()));
    const R xs = V::select(tiny, V::mul(x, V::set1(0x1p54)), x);
    const R eadj = V::select(tiny, V::set1(54.0), V::set1(0.0));
    R m = V::mant_half(xs);  // mantissa of xs placed in [0.5, 1)
    R e = V::sub(V::sub(V::exp_biased(xs), V::set1(1022.0)), eadj);
    // Center m in [sqrt(1/2), sqrt(2)) so f = m-1 is small and exact.
    const R low_m = V::lt(m, V::set1(k_sqrt_half));
    m = V::select(low_m, V::add(m, m), m);
    e = V::select(low_m, V::sub(e, one), e);
    const R f = V::sub(m, one);  // exact (Sterbenz)
    // s = f / (1+m), with the leading term compensated for both the
    // division rounding and the rounding of den = 1+m itself.
    const R den = V::add(one, m);
    const R bb = V::sub(den, one);
    const R den_err = V::add(V::sub(one, V::sub(den, bb)), V::sub(m, bb));
    const R s = V::div(f, den);
    const R sres = V::fma(V::sub(V::set1(0.0), s), den, f);  // exact residual
    const R slo = V::div(V::fma(V::sub(V::set1(0.0), s), den_err, sres), den);
    // atanh tail: log(m) = 2s + w/3 + w*z*Q2(z), w = 2s*z, z = s^2.
    // w/3 (the whole tail is ~1% of 2s) is computed as a dd so its
    // rounding does not cap the final accuracy; the z^2-and-up rest is
    // small enough for a plain double chain.
    const R z = V::mul(s, s);
    const R slo2 = V::add(slo, slo);
    // First-order corrections: z_true ~ z + zcorr (z rounding plus the
    // 2*s*slo cross term), w_true ~ w + wcorr likewise.
    const R zcorr = V::fma(s, slo2, V::fma(s, s, V::sub(V::set1(0.0), z)));
    const R two_s = V::add(s, s);
    const R w = V::mul(two_s, z);
    R wcorr = V::fma(two_s, z, V::sub(V::set1(0.0), w));
    wcorr = V::fma(two_s, zcorr, wcorr);
    wcorr = V::fma(slo2, z, wcorr);
    constexpr std::size_t terms = sizeof(k_log_q) / sizeof(k_log_q[0]);
    R q2 = V::set1(k_log_q[terms - 1]);
    for (std::size_t i = terms - 1; i-- > 0;) {
        q2 = V::fma(q2, z, V::set1(k_log_q[i]));
    }
    const R tail_hi = V::mul(w, V::set1(k_third_hi));
    R tail_lo = V::fma(w, V::set1(k_third_hi),
                       V::sub(V::set1(0.0), tail_hi));  // exact residual
    tail_lo = V::fma(w, V::set1(k_third_lo), tail_lo);
    tail_lo = V::fma(wcorr, V::set1(k_third_hi), tail_lo);
    tail_lo = V::fma(V::mul(w, z), q2, tail_lo);
    // Assemble e*ln2 + 2s + tail as a renormalized dd.
    const R t1 = V::mul(e, V::set1(k_ln2hi));  // exact
    const R h = V::add(t1, two_s);
    const R hbb = V::sub(h, t1);
    const R c1 = V::add(V::sub(t1, V::sub(h, hbb)), V::sub(two_s, hbb));
    const R small_sum = V::fma(e, V::set1(k_ln2lo),
                               V::fma(V::set1(2.0), slo, tail_lo));
    const R lo_total = V::add(V::add(c1, small_sum), tail_hi);
    hi = V::add(h, lo_total);
    lo = V::add(V::sub(h, hi), lo_total);  // fast_two_sum renormalize
}

/// The log phase of pow(b, y): thc/tl such that the result (before
/// special-case selects) is exp_core(thc, tl).  Split from the exp
/// phase so pow_array can run the two (each register-hungry) phases
/// as separate passes over a small stack block — a whole v_pow keeps
/// too many values live to interleave on a 16-register file.
template <class V>
SILICON_SIMD_INLINE void v_pow_log_phase(typename V::reg b,
                                         typename V::reg y,
                                         typename V::reg& thc,
                                         typename V::reg& tl) {
    using R = typename V::reg;
    R lh, ll;
    v_log_dd<V>(b, lh, ll);
    const R th = V::mul(y, lh);
    const R terr = V::fma(y, lh, V::sub(V::set1(0.0), th));
    thc = V::min(V::max(th, V::set1(k_exp_lo_clamp)),
                 V::set1(k_exp_hi_clamp));
    // A clamped product is past overflow or underflow either way, and
    // its compensation term is no longer small next to it (an
    // exponent of 1e20 leaves a rounding error in the thousands; an
    // infinite product leaves inf - inf): drop it, so the result
    // saturates to inf or 0 as libm's does.
    tl = V::select(V::eq(th, thc), V::fma(y, ll, terr), V::set1(0.0));
}

/// The special-case selects of pow applied to a raw exp_core result.
template <class V>
SILICON_SIMD_INLINE typename V::reg v_pow_specials(typename V::reg b,
                                                   typename V::reg y,
                                                   typename V::reg res) {
    using R = typename V::reg;
    const R zero = V::set1(0.0);
    const R one = V::set1(1.0);
    const R inf = V::set1(std::numeric_limits<double>::infinity());
    const R qnan = V::set1(std::numeric_limits<double>::quiet_NaN());
    // Infinite exponent with a finite base: y*log(b) is an inf*finite
    // product whose compensation term is inf - inf = NaN, so decide
    // directly — the result grows iff |b| > 1 agrees with the sign of
    // y (b == 1 and NaN/negative bases are overridden below).
    const R y_inf = V::eq(V::abs(y), inf);
    const R grows = V::or_m(V::and_m(V::gt(b, one), V::gt(y, zero)),
                            V::and_m(V::lt(b, one), V::lt(y, zero)));
    res = V::select(y_inf, V::select(grows, inf, zero), res);
    const R b_inf = V::eq(b, inf);
    const R b_zero = V::eq(b, zero);
    res = V::select(V::and_m(b_inf, V::gt(y, zero)), inf, res);
    res = V::select(V::and_m(b_inf, V::lt(y, zero)), zero, res);
    res = V::select(V::and_m(b_zero, V::gt(y, zero)), zero, res);
    res = V::select(V::and_m(b_zero, V::lt(y, zero)), inf, res);
    res = V::select(V::or_m(V::lt(b, zero), V::unordered(b)), qnan, res);
    res = V::select(V::unordered(y), qnan, res);
    // pow(x, +-0) and pow(1, y) are 1 for *every* x and y, NaN included.
    res = V::select(V::or_m(V::eq(y, zero), V::eq(b, one)), one, res);
    return res;
}

/// pow(b, y) for b >= 0 (plus IEEE specials; negative bases -> NaN).
template <class V>
SILICON_SIMD_INLINE typename V::reg v_pow(typename V::reg b, typename V::reg y) {
    typename V::reg thc, tl;
    v_pow_log_phase<V>(b, y, thc, tl);
    return v_pow_specials<V>(b, y, exp_core<V>(thc, tl));
}

// ---- array drivers (padded deterministic tails) --------------------
//
// The kernels above are long serial FMA chains (degree-17 Horner for
// exp/expm1, the double-double log for pow), so one vector in flight
// leaves the FMA pipes mostly idle — throughput is latency-bound.  The
// drivers therefore process four independent vectors per iteration;
// the out-of-order core interleaves the four chains and the same code
// runs ~3x faster.  Per-lane numerics are untouched (each lane still
// sees the identical op sequence), so bit-stability across sub-range
// splits is preserved.

template <class V>
void exp_array(const double* x, double* out, std::size_t n) {
    constexpr std::size_t w = V::width;
    std::size_t i = 0;
    for (; i + 4 * w <= n; i += 4 * w) {
        const typename V::reg r0 = v_exp<V>(V::load(x + i));
        const typename V::reg r1 = v_exp<V>(V::load(x + i + w));
        const typename V::reg r2 = v_exp<V>(V::load(x + i + 2 * w));
        const typename V::reg r3 = v_exp<V>(V::load(x + i + 3 * w));
        V::store(out + i, r0);
        V::store(out + i + w, r1);
        V::store(out + i + 2 * w, r2);
        V::store(out + i + 3 * w, r3);
    }
    for (; i + w <= n; i += w) {
        V::store(out + i, v_exp<V>(V::load(x + i)));
    }
    if (i < n) {
        double in[w];
        double res[w];
        for (std::size_t j = 0; j < w; ++j) {
            in[j] = (i + j < n) ? x[i + j] : 0.0;
        }
        V::store(res, v_exp<V>(V::load(in)));
        for (std::size_t j = 0; i + j < n; ++j) {
            out[i + j] = res[j];
        }
    }
}

template <class V>
void expm1_array(const double* x, double* out, std::size_t n) {
    constexpr std::size_t w = V::width;
    std::size_t i = 0;
    for (; i + 4 * w <= n; i += 4 * w) {
        const typename V::reg r0 = v_expm1<V>(V::load(x + i));
        const typename V::reg r1 = v_expm1<V>(V::load(x + i + w));
        const typename V::reg r2 = v_expm1<V>(V::load(x + i + 2 * w));
        const typename V::reg r3 = v_expm1<V>(V::load(x + i + 3 * w));
        V::store(out + i, r0);
        V::store(out + i + w, r1);
        V::store(out + i + 2 * w, r2);
        V::store(out + i + 3 * w, r3);
    }
    for (; i + w <= n; i += w) {
        V::store(out + i, v_expm1<V>(V::load(x + i)));
    }
    if (i < n) {
        double in[w];
        double res[w];
        for (std::size_t j = 0; j < w; ++j) {
            in[j] = (i + j < n) ? x[i + j] : 0.0;
        }
        V::store(res, v_expm1<V>(V::load(in)));
        for (std::size_t j = 0; i + j < n; ++j) {
            out[i + j] = res[j];
        }
    }
}

template <class V>
void pow_array(const double* base, const double* expo, double* out,
               std::size_t n) {
    constexpr std::size_t w = V::width;
    std::size_t i = 0;
    // Two passes over a 4-vector block through stack buffers: the log
    // phase and the exp phase each fit the register file, so their
    // four chains interleave instead of spilling (numerically this is
    // the exact v_pow op sequence — only the schedule differs, and
    // per-lane results are bitwise the same).
    for (; i + 2 * w <= n; i += 2 * w) {
        alignas(64) double thc[2 * w];
        alignas(64) double tl[2 * w];
        for (std::size_t j = 0; j < 2; ++j) {
            typename V::reg h, l;
            v_pow_log_phase<V>(V::load(base + i + j * w),
                               V::load(expo + i + j * w), h, l);
            V::store(thc + j * w, h);
            V::store(tl + j * w, l);
        }
        for (std::size_t j = 0; j < 2; ++j) {
            const typename V::reg res = v_pow_specials<V>(
                V::load(base + i + j * w), V::load(expo + i + j * w),
                exp_core<V>(V::load(thc + j * w), V::load(tl + j * w)));
            V::store(out + i + j * w, res);
        }
    }
    for (; i + w <= n; i += w) {
        V::store(out + i, v_pow<V>(V::load(base + i), V::load(expo + i)));
    }
    if (i < n) {
        double b[w];
        double y[w];
        double res[w];
        for (std::size_t j = 0; j < w; ++j) {
            b[j] = (i + j < n) ? base[i + j] : 1.0;
            y[j] = (i + j < n) ? expo[i + j] : 0.0;
        }
        V::store(res, v_pow<V>(V::load(b), V::load(y)));
        for (std::size_t j = 0; i + j < n; ++j) {
            out[i + j] = res[j];
        }
    }
}

}  // namespace silicon::simd::detail
