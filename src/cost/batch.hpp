// batch.hpp — structure-of-arrays cost kernels for sweep evaluation.
//
// Companions to yield/batch.hpp on the money side: contiguous-array
// kernels for the pure wafer cost C_w(lambda) = C_0 X^((1-lambda)/step)
// and the paper's Scenario #1 / Scenario #2 cost-per-transistor curves
// (Eqs. (8) and (9)), which are what the serve engine's `sweep`
// endpoint spends its time on (Figs. 6 and 7 are exactly these curves).
// As there, each kernel body is written once (cost/batch_impl.hpp), as
// a template over its block transcendentals: std::exp / std::pow per
// lane for the exact kernels, the dispatched vector math for `*_fast`.
//
// Bit-exactness contract (pinned by tests/cost/test_batch.cpp, the
// generated differential tests/cost/test_batch_differential.cpp and
// the serve sweep equivalence tests): each exact lane performs exactly
// the floating-point operations, in the same association order, as
// wafer_cost_model::pure_wafer_cost / scenario1::cost_per_transistor /
// scenario2::cost_per_transistor through the serve endpoint's
// constructor chain.  Lanes whose inputs would make the scalar path
// throw (C_0 <= 0, X < 1, radius <= 0, lambda <= 0, Y_0 outside (0,1],
// overflow to infinity, yield underflow to zero, ...) produce quiet
// NaN, which the engine serializes as JSON null — the bytes the
// per-point error path yields.  Kernels never throw, exact results
// never depend on simd::active_target(), and lanes are independent
// (sub-range calls compose bit-identically).

#pragma once

#include <cstddef>

namespace silicon::cost::batch {

/// Pure wafer cost C_0 * X^((1 - lambda)/step) per lane, mirroring
/// wafer_cost_model{c0, x, step}.pure_wafer_cost(lambda).  Lane NaN
/// when the model constructor would reject (c0 non-positive or
/// non-finite, x < 1, step not strictly positive and finite), lambda
/// is not strictly positive and finite, or the cost overflows.
void pure_wafer_cost(const double* c0_usd, const double* x,
                     const double* lambda_um, double generation_step_um,
                     double* out, std::size_t n);

/// Parameter columns for the scenario kernels; every pointer spans n
/// lanes.  `y0` is only read by scenario #2.
struct scenario_columns {
    const double* lambda_um = nullptr;
    const double* c0_usd = nullptr;
    const double* x = nullptr;
    const double* wafer_radius_cm = nullptr;
    const double* design_density = nullptr;
    const double* y0 = nullptr;
};

/// Scenario #1 (Eq. (8)): C_tr = C_w(lambda) d_d lambda^2 / A_w in
/// dollars per lane, the serve `scenario1` endpoint's
/// cost_per_transistor_usd.
void scenario1_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n);

/// Scenario #2 (Eq. (9)): Scenario #1 divided by the reference-die
/// yield Y_0^A(lambda) of the roadmap microprocessor die area
/// A(lambda) = 16.5 exp(-5.3 lambda) cm^2 (A_0 = 1 cm^2), the serve
/// `scenario2` endpoint's cost_per_transistor_usd.
void scenario2_cost_per_transistor(const scenario_columns& in, double* out,
                                   std::size_t n);

// ---- fast_math variants --------------------------------------------
//
// The same kernel bodies as the exact kernels above, but
// X^((1-lambda)/step), exp(-5.3 lambda) and Y_0^A go through the
// dispatched vector math in simd/math.hpp, so results agree with the
// exact kernels only to the ULP bounds in DESIGN.md §15 — not
// bitwise.  Invalid lanes are masked to benign arguments before the
// transcendental and serialize as the same JSON nulls; lanes stay
// independent, so sub-range calls compose bit-identically and
// fast_math sweeps are deterministic across thread counts.  Selected
// by the engine only when engine_config::fast_math is set.

/// Vector-path pure_wafer_cost (same NaN classification).
void pure_wafer_cost_fast(const double* c0_usd, const double* x,
                          const double* lambda_um,
                          double generation_step_um, double* out,
                          std::size_t n);

/// Vector-path scenario1_cost_per_transistor.
void scenario1_cost_per_transistor_fast(const scenario_columns& in,
                                        double* out, std::size_t n);

/// Vector-path scenario2_cost_per_transistor.
void scenario2_cost_per_transistor_fast(const scenario_columns& in,
                                        double* out, std::size_t n);

}  // namespace silicon::cost::batch
