// monte_carlo_draws_avx2.cpp — AVX2 compilation of the Monte-Carlo count
// pass (see monte_carlo_draws_impl.hpp for why it is bit-identical to
// the baseline variant).  Compiled with -mavx2 -mfma -ffp-contract=off
// on x86-64 only; nothing here runs unless simd::active_target()
// resolved to avx2, which implies the host supports these instructions.

#if defined(__x86_64__) || defined(_M_X64)

#define SILICON_DRAWS_IMPL_NS avx2
#include "yield/monte_carlo_draws_impl.hpp"
#undef SILICON_DRAWS_IMPL_NS

#endif  // x86-64
