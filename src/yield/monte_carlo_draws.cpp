// monte_carlo_draws.cpp — baseline variant of the Monte-Carlo count pass
// and its dispatch (see monte_carlo_draws_impl.hpp).

#include "yield/monte_carlo_draws.hpp"

#include "simd/dispatch.hpp"

#define SILICON_DRAWS_IMPL_NS baseline
#include "yield/monte_carlo_draws_impl.hpp"
#undef SILICON_DRAWS_IMPL_NS

namespace silicon::yield::mc {

#if defined(__x86_64__) || defined(_M_X64)
// Defined in monte_carlo_draws_avx2.cpp from the same impl header.
namespace avx2 {
void fill_draws(std::uint64_t, std::uint64_t, double*, std::size_t, double,
                std::uint32_t*);
}  // namespace avx2
#endif

void fill_draws(std::uint64_t state, std::uint64_t first, double* draws,
                std::size_t n, double limit, std::uint32_t* counts) {
#if defined(__x86_64__) || defined(_M_X64)
    if (simd::active_target() == simd::target::avx2) {
        avx2::fill_draws(state, first, draws, n, limit, counts);
        return;
    }
#endif
    baseline::fill_draws(state, first, draws, n, limit, counts);
}

}  // namespace silicon::yield::mc
