// batch.cpp — the public SoA cost kernels.  Each model's body lives
// once in batch_impl.hpp: the exact kernels run it on simd::libm_lanes
// in the baseline compilation, whatever the host's SIMD target; the
// `*_fast` kernels run it on simd::vector_lanes in the AVX2 compilation
// (batch_avx2.cpp) when simd::active_target() is avx2, else in the
// baseline one (see yield/batch.cpp, which follows the same scheme).

#include "cost/batch.hpp"

#include <cstddef>

#include "simd/dispatch.hpp"

#define SILICON_KERNEL_NS baseline
#include "cost/batch_impl.hpp"
#undef SILICON_KERNEL_NS

namespace silicon::cost::batch {

#if defined(__x86_64__) || defined(_M_X64)
// Defined in batch_avx2.cpp from the same impl header.
namespace avx2 {
void pure_wafer_cost_fast(const double*, const double*, const double*,
                          double, double*, std::size_t);
void scenario1_cost_per_transistor_fast(const scenario_columns&, double*,
                                        std::size_t);
void scenario2_cost_per_transistor_fast(const scenario_columns&, double*,
                                        std::size_t);
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

void pure_wafer_cost(const double* c0_usd, const double* x,
                     const double* lambda_um, double generation_step_um,
                     double* out, std::size_t n) {
    baseline::pure_wafer_cost<exact>(c0_usd, x, lambda_um,
                                     generation_step_um, out, n);
}

void scenario1_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n) {
    baseline::scenario1_cost_per_transistor<exact>(in, out, n);
}

void scenario2_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n) {
    baseline::scenario2_cost_per_transistor<exact>(in, out, n);
}

void pure_wafer_cost_fast(const double* c0_usd, const double* x,
                          const double* lambda_um,
                          double generation_step_um, double* out,
                          std::size_t n) {
    (wide_passes() ? avx2::pure_wafer_cost_fast
                   : baseline::pure_wafer_cost_fast)(
        c0_usd, x, lambda_um, generation_step_um, out, n);
}

void scenario1_cost_per_transistor_fast(const scenario_columns& in,
                                        double* out, std::size_t n) {
    (wide_passes() ? avx2::scenario1_cost_per_transistor_fast
                   : baseline::scenario1_cost_per_transistor_fast)(in, out,
                                                                   n);
}

void scenario2_cost_per_transistor_fast(const scenario_columns& in,
                                        double* out, std::size_t n) {
    (wide_passes() ? avx2::scenario2_cost_per_transistor_fast
                   : baseline::scenario2_cost_per_transistor_fast)(in, out,
                                                                   n);
}

}  // namespace silicon::cost::batch
