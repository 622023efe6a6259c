// batch.cpp — the public SoA yield kernels.  Each model's body lives
// once in batch_impl.hpp: the exact kernels run it on simd::libm_lanes
// in the baseline compilation, whatever the host's SIMD target; the
// `*_fast` kernels run it on simd::vector_lanes in the AVX2 compilation
// (batch_avx2.cpp) when simd::active_target() is avx2, else in the
// baseline one.  The two compilations are bit-identical, so that
// choice is a speed dispatch only.

#include "yield/batch.hpp"

#include <cstddef>

#include "simd/dispatch.hpp"

#define SILICON_KERNEL_NS baseline
#include "yield/batch_impl.hpp"
#undef SILICON_KERNEL_NS

namespace silicon::yield::batch {

#if defined(__x86_64__) || defined(_M_X64)
// Defined in batch_avx2.cpp from the same impl header.
namespace avx2 {
void poisson_yield_fast(const double*, double*, std::size_t);
void murphy_yield_fast(const double*, double*, std::size_t);
void bose_einstein_yield_fast(const double*, int, double*, std::size_t);
void negative_binomial_yield_fast(const double*, const double*, double*,
                                  std::size_t);
void scaled_poisson_yield_fast(const double*, const double*, const double*,
                               const double*, double*, std::size_t);
void reference_yield_fast(const double*, const double*, const double*,
                          double*, std::size_t);
}  // namespace avx2
#else
namespace avx2 = baseline;
#endif

namespace {

using exact = simd::libm_lanes;

inline bool wide_passes() {
#if defined(__x86_64__) || defined(_M_X64)
    return simd::active_target() == simd::target::avx2;
#else
    return false;
#endif
}

}  // namespace

void poisson_yield(const double* expected_faults, double* out,
                   std::size_t n) {
    baseline::poisson_yield<exact>(expected_faults, out, n);
}

void murphy_yield(const double* expected_faults, double* out,
                  std::size_t n) {
    baseline::murphy_yield<exact>(expected_faults, out, n);
}

void seeds_yield(const double* expected_faults, double* out,
                 std::size_t n) {
    baseline::seeds_yield(expected_faults, out, n);
}

void bose_einstein_yield(const double* expected_faults, int critical_steps,
                         double* out, std::size_t n) {
    baseline::bose_einstein_yield<exact>(expected_faults, critical_steps,
                                         out, n);
}

void negative_binomial_yield(const double* expected_faults,
                             const double* alpha, double* out,
                             std::size_t n) {
    baseline::negative_binomial_yield<exact>(expected_faults, alpha, out, n);
}

void scaled_poisson_yield(const double* die_area_cm2,
                          const double* lambda_um, const double* d,
                          const double* p, double* out, std::size_t n) {
    baseline::scaled_poisson_yield<exact>(die_area_cm2, lambda_um, d, p, out,
                                          n);
}

void reference_yield(const double* die_area_cm2, const double* y0,
                     const double* a0_cm2, double* out, std::size_t n) {
    baseline::reference_yield<exact>(die_area_cm2, y0, a0_cm2, out, n);
}

void poisson_yield_fast(const double* expected_faults, double* out,
                        std::size_t n) {
    (wide_passes() ? avx2::poisson_yield_fast
                   : baseline::poisson_yield_fast)(expected_faults, out, n);
}

void murphy_yield_fast(const double* expected_faults, double* out,
                       std::size_t n) {
    (wide_passes() ? avx2::murphy_yield_fast
                   : baseline::murphy_yield_fast)(expected_faults, out, n);
}

void seeds_yield_fast(const double* expected_faults, double* out,
                      std::size_t n) {
    baseline::seeds_yield(expected_faults, out, n);
}

void bose_einstein_yield_fast(const double* expected_faults,
                              int critical_steps, double* out,
                              std::size_t n) {
    (wide_passes() ? avx2::bose_einstein_yield_fast
                   : baseline::bose_einstein_yield_fast)(
        expected_faults, critical_steps, out, n);
}

void negative_binomial_yield_fast(const double* expected_faults,
                                  const double* alpha, double* out,
                                  std::size_t n) {
    (wide_passes() ? avx2::negative_binomial_yield_fast
                   : baseline::negative_binomial_yield_fast)(
        expected_faults, alpha, out, n);
}

void scaled_poisson_yield_fast(const double* die_area_cm2,
                               const double* lambda_um, const double* d,
                               const double* p, double* out, std::size_t n) {
    (wide_passes() ? avx2::scaled_poisson_yield_fast
                   : baseline::scaled_poisson_yield_fast)(
        die_area_cm2, lambda_um, d, p, out, n);
}

void reference_yield_fast(const double* die_area_cm2, const double* y0,
                          const double* a0_cm2, double* out, std::size_t n) {
    (wide_passes() ? avx2::reference_yield_fast
                   : baseline::reference_yield_fast)(die_area_cm2, y0,
                                                      a0_cm2, out, n);
}

}  // namespace silicon::yield::batch
