// monte_carlo_draws_impl.hpp — the Monte-Carlo count pass, compiled once
// per instruction-set variant.
//
// fill_draws writes a stretch of a splitmix64 stream as doubles and, for
// every position of it, the Knuth count capped at 4 that a Poisson draw
// starting there would reach.  Both loops are lane-independent: draw k
// of a stream is mix(state + (k+1)·gamma), and each position's count
// reads only the four draws from it.  So, as with batch_fast_impl.hpp,
// the same body is compiled twice:
//
//   * monte_carlo_draws.cpp includes this header into namespace
//     `baseline` with the portable flags (on x86-64 the count runs two
//     positions at a time with SSE2, the baseline instruction set), and
//   * monte_carlo_draws_avx2.cpp (x86-64 only) includes it into
//     namespace `avx2` with -mavx2 -mfma -ffp-contract=off, where the
//     stream is produced four lanes at a time with intrinsics (AVX2 has
//     no 64-bit multiply and no 64-bit integer to double conversion,
//     so the compiler does not vectorize the scalar form).
//
// The variants are bit-identical: the integer mixing is exact, the
// conversion of a 53-bit integer to double is exact in both, and the
// count's products are plain IEEE multiplies in the scalar loop's
// order, which -ffp-contract=off keeps from fusing into anything else.
//
// Define SILICON_DRAWS_IMPL_NS to the variant namespace before
// including.

#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "yield/defect.hpp"

namespace silicon::yield::mc {
namespace SILICON_DRAWS_IMPL_NS {

#if defined(__AVX2__)

/// a * c mod 2^64 per 64-bit lane, from 32x32->64 multiplies.
inline __m256i mul64(__m256i a, __m256i c_lo, __m256i c_hi) {
    const __m256i low = _mm256_mul_epu32(a, c_lo);
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), c_lo),
                         _mm256_mul_epu32(a, c_hi));
    return _mm256_add_epi64(low, _mm256_slli_epi64(cross, 32));
}

/// splitmix64::to_unit(splitmix64::mix(z)) per lane.  The 53-bit
/// integer is converted exactly as a high and a low half joined through
/// the 2^84 and 2^52 exponent patterns.
inline __m256d unit_draws(__m256i z) {
    const __m256i c1 = _mm256_set1_epi64x(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m256i c1_hi = _mm256_srli_epi64(c1, 32);
    const __m256i c2 = _mm256_set1_epi64x(
        static_cast<long long>(0x94d049bb133111ebULL));
    const __m256i c2_hi = _mm256_srli_epi64(c2, 32);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), c1, c1_hi);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), c2, c2_hi);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    const __m256i v = _mm256_srli_epi64(z, 11);
    const __m256i hi = _mm256_or_si256(
        _mm256_srli_epi64(v, 32),
        _mm256_set1_epi64x(0x4530000000000000LL));  // 2^84 + hi·2^32
    const __m256i lo = _mm256_blend_epi32(
        v, _mm256_set1_epi64x(0x4330000000000000LL), 0xaa);  // 2^52 + lo
    const __m256d joined = _mm256_add_pd(
        _mm256_sub_pd(_mm256_castsi256_pd(hi),
                      _mm256_set1_pd(0x1.00000001p84)),  // 2^84 + 2^52
        _mm256_castsi256_pd(lo));
    return _mm256_mul_pd(joined, _mm256_set1_pd(0x1.0p-53));
}

#endif

void fill_draws(std::uint64_t state, std::uint64_t first,
                double* draws, std::size_t n, double limit,
                std::uint32_t* counts) {
    std::uint64_t z = state + (first + 1) * splitmix64::gamma;
    std::size_t i = 0;
#if defined(__AVX2__)
    __m256i lanes = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(z)),
        _mm256_set_epi64x(static_cast<long long>(3 * splitmix64::gamma),
                          static_cast<long long>(2 * splitmix64::gamma),
                          static_cast<long long>(splitmix64::gamma), 0));
    const __m256i step =
        _mm256_set1_epi64x(static_cast<long long>(4 * splitmix64::gamma));
    for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(draws + i, unit_draws(lanes));
        lanes = _mm256_add_epi64(lanes, step);
    }
    z += i * splitmix64::gamma;
#endif
    for (; i < n; ++i, z += splitmix64::gamma) {
        draws[i] = splitmix64::to_unit(splitmix64::mix(z));
    }
    if (counts == nullptr || n < 4) {
        return;
    }
    // counts[i] = how many of the prefix products d[i], d[i]·d[i+1], ...
    // (four of them, multiplied left to right) exceed the limit.
    const std::size_t positions = n - 3;
    i = 0;
#if defined(__AVX2__)
    const __m256d lim = _mm256_set1_pd(limit);
    const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    for (; i + 4 <= positions; i += 4) {
        const __m256d p0 = _mm256_loadu_pd(draws + i);
        const __m256d p1 = _mm256_mul_pd(p0, _mm256_loadu_pd(draws + i + 1));
        const __m256d p2 = _mm256_mul_pd(p1, _mm256_loadu_pd(draws + i + 2));
        const __m256d p3 = _mm256_mul_pd(p2, _mm256_loadu_pd(draws + i + 3));
        // Each compare is all ones (-1) where the product exceeds the
        // limit; the negated sum of the four is the count.
        const __m256i sum = _mm256_add_epi64(
            _mm256_add_epi64(
                _mm256_castpd_si256(_mm256_cmp_pd(p0, lim, _CMP_GT_OQ)),
                _mm256_castpd_si256(_mm256_cmp_pd(p1, lim, _CMP_GT_OQ))),
            _mm256_add_epi64(
                _mm256_castpd_si256(_mm256_cmp_pd(p2, lim, _CMP_GT_OQ)),
                _mm256_castpd_si256(_mm256_cmp_pd(p3, lim, _CMP_GT_OQ))));
        const __m256i count =
            _mm256_sub_epi64(_mm256_setzero_si256(), sum);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(counts + i),
                         _mm256_castsi256_si128(
                             _mm256_permutevar8x32_epi32(count, pack)));
    }
#elif defined(__SSE2__)
    // Two positions at a time: SSE2 is the x86-64 baseline, and the
    // compiler does not vectorize the scalar form for it.
    const __m128d lim = _mm_set1_pd(limit);
    for (; i + 2 <= positions; i += 2) {
        const __m128d p0 = _mm_loadu_pd(draws + i);
        const __m128d p1 = _mm_mul_pd(p0, _mm_loadu_pd(draws + i + 1));
        const __m128d p2 = _mm_mul_pd(p1, _mm_loadu_pd(draws + i + 2));
        const __m128d p3 = _mm_mul_pd(p2, _mm_loadu_pd(draws + i + 3));
        const __m128i sum = _mm_add_epi64(
            _mm_add_epi64(_mm_castpd_si128(_mm_cmpgt_pd(p0, lim)),
                          _mm_castpd_si128(_mm_cmpgt_pd(p1, lim))),
            _mm_add_epi64(_mm_castpd_si128(_mm_cmpgt_pd(p2, lim)),
                          _mm_castpd_si128(_mm_cmpgt_pd(p3, lim))));
        const __m128i count = _mm_sub_epi64(_mm_setzero_si128(), sum);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(counts + i),
                         _mm_shuffle_epi32(count, _MM_SHUFFLE(3, 1, 2, 0)));
    }
#endif
    for (; i < positions; ++i) {
        const double p0 = draws[i];
        const double p1 = p0 * draws[i + 1];
        const double p2 = p1 * draws[i + 2];
        const double p3 = p2 * draws[i + 3];
        counts[i] = static_cast<std::uint32_t>(p0 > limit) +
                    static_cast<std::uint32_t>(p1 > limit) +
                    static_cast<std::uint32_t>(p2 > limit) +
                    static_cast<std::uint32_t>(p3 > limit);
    }
}

}  // namespace SILICON_DRAWS_IMPL_NS
}  // namespace silicon::yield::mc
