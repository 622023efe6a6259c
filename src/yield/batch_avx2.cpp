// batch_avx2.cpp — AVX2 compilation of the yield kernel bodies, for
// the fast_math kernels (see batch_impl.hpp for why the passes are
// compiled per ISA and why -ffp-contract=off keeps this variant
// bit-identical to the baseline one).  Compiled with -mavx2 -mfma
// -ffp-contract=off on x86-64 only; nothing here runs unless
// simd::active_target() resolved to avx2, which implies the host
// supports these instructions.

#if defined(__x86_64__) || defined(_M_X64)

#define SILICON_KERNEL_NS avx2
#include "yield/batch_impl.hpp"
#undef SILICON_KERNEL_NS

#endif  // x86-64
