// batch.hpp — structure-of-arrays yield kernels for sweep evaluation.
//
// The serve engine's sweep endpoint evaluates the same yield model at
// hundreds of grid points; going through the scalar API costs a JSON
// round trip, a cache probe and an exception frame per point.  These
// kernels take contiguous parameter arrays and write one output lane
// per point.  Each model's kernel body is written once
// (yield/batch_impl.hpp): blocks of lanes are classified by branchless
// guard chains, invalid lanes are masked before one block
// transcendental, and the post-guards NaN what the scalar model would
// throw on.  The body is a template over its block transcendentals and
// has two instantiations, the exact kernels and the `*_fast` ones.
//
// Bit-exactness contract (pinned by tests/yield/test_batch.cpp, the
// generated differential tests/yield/test_batch_differential.cpp and
// the serve sweep equivalence tests): the exact kernels call std::exp
// and std::pow per lane, and every other operation is the scalar
// path's, in its association order — poisson_model::yield,
// scaled_poisson_model::yield, reference_die_yield::yield — including
// the serve layer's constructor validation.  Murphy's expm1 is
// exp(x) - 1 there, and -(e - 1)/f has the bits of the scalar
// (1 - e)/f because IEEE subtraction is exactly antisymmetric.  A lane
// whose inputs would make the scalar path throw (negative fault count,
// lambda <= 0, Y_0 outside (0,1], ...) produces quiet NaN instead,
// which the engine serializes as JSON null — the same bytes the
// per-point error path yields.  Kernels never throw, and their results
// never depend on simd::active_target().
//
// All kernels are lane-independent: splitting [0, n) into sub-ranges
// and calling the kernel per range produces bit-identical output, which
// is what lets the engine shard them over exec::parallel_for while
// keeping the serve determinism contract.

#pragma once

#include <cstddef>

namespace silicon::yield::batch {

/// Poisson yield exp(-faults) per lane (Eq. (5) family).  Lane i is
/// NaN when !(expected_faults[i] >= 0) — the scalar model's
/// require_nonnegative guard (NaN inputs propagate).
void poisson_yield(const double* expected_faults, double* out,
                   std::size_t n);

/// Murphy yield ((1 - e^-l)/l)^2 per lane, including the scalar
/// model's small-l linearization (l < 1e-9 evaluates (1 - l/2)^2).
/// Lane i is NaN when !(expected_faults[i] >= 0).
void murphy_yield(const double* expected_faults, double* out,
                  std::size_t n);

/// Seeds yield 1/(1 + l) per lane.  Lane i is NaN when
/// !(expected_faults[i] >= 0).
void seeds_yield(const double* expected_faults, double* out,
                 std::size_t n);

/// Bose-Einstein yield (1 + l/n)^-n per lane for a constant critical
/// step count (integer-typed, so never a swept column).  Every lane is
/// NaN when critical_steps < 1 — the scalar constructor's throw.
void bose_einstein_yield(const double* expected_faults, int critical_steps,
                         double* out, std::size_t n);

/// Negative-binomial yield (1 + l/a)^-a per lane with a per-lane
/// clustering parameter.  Lane i is NaN when !(alpha[i] > 0) — the
/// scalar constructor's throw — or !(expected_faults[i] >= 0).
void negative_binomial_yield(const double* expected_faults,
                             const double* alpha, double* out,
                             std::size_t n);

/// Lambda-scaled Poisson yield (Eq. (7)): exp(-A * D / lambda^p) per
/// lane, mirroring scaled_poisson_model{d,p}.yield(area, lambda) plus
/// the unit-type constructor guards: lane NaN when !(d >= 0), !(p > 2),
/// area is negative/infinite/NaN, or lambda is not strictly positive
/// and finite.
void scaled_poisson_yield(const double* die_area_cm2,
                          const double* lambda_um, const double* d,
                          const double* p, double* out, std::size_t n);

/// Reference-die yield (Eq. (9)): Y_0^(A/A_0) per lane, mirroring
/// reference_die_yield{y0, a0}.yield(area).  Lane NaN when y0 is not
/// in (0, 1], a0 is not strictly positive and finite, or area is
/// negative/infinite/NaN.
void reference_yield(const double* die_area_cm2, const double* y0,
                     const double* a0_cm2, double* out, std::size_t n);

// ---- fast_math variants --------------------------------------------
//
// Same signatures and the same kernel bodies, but the transcendentals
// go through the dispatched vector math in simd/math.hpp instead of
// libm, so the results are NOT bit-identical to the exact kernels:
// they agree to within the ULP bounds in DESIGN.md §15 (<= 4 ULP drift
// on well-conditioned lanes, <= 4 ULP against a long-double
// reference).  A lane is NaN for exactly the inputs that NaN the exact
// kernel (pinned by tests/yield/test_batch_ulp.cpp and the generated
// differential): invalid lanes are masked to benign arguments *before*
// the transcendental, so they cannot perturb neighbours and always
// serialize as the same JSON null bytes.
//
// Like the exact kernels, every lane is computed independently (tails
// use the same vector math through a padded register), so sub-range
// calls compose bit-identically — fast_math sweeps stay deterministic
// across thread counts.  The engine only selects these when
// engine_config::fast_math is set.

/// Vector-path poisson_yield (same NaN classification).
void poisson_yield_fast(const double* expected_faults, double* out,
                        std::size_t n);

/// Vector-path murphy_yield.  The f < 1e-9 linearization branch is
/// bit-identical to the exact kernel (no transcendental there); the
/// main branch evaluates ((-expm1(-f))/f)^2 with a true expm1, which is
/// better conditioned than the scalar (1 - exp(-f))/f form.
void murphy_yield_fast(const double* expected_faults, double* out,
                       std::size_t n);

/// seeds_yield has no transcendental: the "fast" path is the exact
/// kernel itself (bit-identical on every target).
void seeds_yield_fast(const double* expected_faults, double* out,
                      std::size_t n);

/// Vector-path bose_einstein_yield (same NaN classification).
void bose_einstein_yield_fast(const double* expected_faults,
                              int critical_steps, double* out,
                              std::size_t n);

/// Vector-path negative_binomial_yield (same NaN classification).
void negative_binomial_yield_fast(const double* expected_faults,
                                  const double* alpha, double* out,
                                  std::size_t n);

/// Vector-path scaled_poisson_yield (same NaN classification).
void scaled_poisson_yield_fast(const double* die_area_cm2,
                               const double* lambda_um, const double* d,
                               const double* p, double* out, std::size_t n);

/// Vector-path reference_yield (same NaN classification).
void reference_yield_fast(const double* die_area_cm2, const double* y0,
                          const double* a0_cm2, double* out, std::size_t n);

}  // namespace silicon::yield::batch
