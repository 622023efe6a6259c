// batch_avx2.cpp — AVX2 compilation of the cost kernel bodies, for the
// fast_math kernels (see cost/batch_impl.hpp and yield/batch_impl.hpp
// for the per-ISA compilation scheme and the bit-identity argument).
// Compiled with -mavx2 -mfma -ffp-contract=off on x86-64 only; nothing
// here runs unless simd::active_target() resolved to avx2.

#if defined(__x86_64__) || defined(_M_X64)

#define SILICON_KERNEL_NS avx2
#include "cost/batch_impl.hpp"
#undef SILICON_KERNEL_NS

#endif  // x86-64
