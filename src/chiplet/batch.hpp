// batch.hpp — SoA kernel for partition_explore grids.
//
// Same contract as cost/batch.hpp and yield/batch.hpp: each lane of the
// exact kernel performs exactly the floating-point operations of the
// scalar path (`evaluate_chiplet` on `scaled_to_total`) in the same
// association order; inputs the scalar path would throw on become
// quiet NaN lanes; kernels never throw; lanes are independent, so
// evaluating any sub-range produces bit-identical results (which is
// what lets the engine shard a grid across threads and stay
// deterministic at any thread count).
//
// One blocked body (chiplet/batch.cpp) serves the exact and the
// fast_math kernel, as a template over its block transcendentals.
// Work that does not depend on the swept area (spec guards, the wafer
// cost, pow(bond_yield, n)) is done once per call; the per-lane
// Maly-row gross-die scan, guard chain and cost composition run as
// scalar code; the die-yield, escape, substrate and module-yield
// transcendentals run in blocked passes.

#pragma once

#include "chiplet/model.hpp"

#include <cstddef>

namespace silicon::chiplet::batch {

/// For each lane i: rescale `base` so its logic+memory+IO budget sums
/// to total_area_mm2[i] (ratios preserved), split it across `chiplets`
/// dies, and write cost_per_good_system_usd to out[i].  Lanes where
/// the scalar path throws become quiet NaN.
void cost_per_good_system(const chiplet_spec& base, int chiplets,
                          const double* total_area_mm2, double* out,
                          std::size_t n);

/// fast_math variant: the same body and lane classification (a lane
/// is NaN for exactly the inputs that make evaluate_chiplet throw), but
/// the transcendental tail — negative-binomial die yield,
/// Williams-Brown escape, RDL/interposer substrate yield, module-yield
/// pow — runs through the dispatched vector math in simd/math.hpp, so
/// results agree with the exact kernel only to the ULP bounds in
/// DESIGN.md §15.  Lanes remain
/// independent (sub-range calls compose bit-identically); selected by
/// the engine only when engine_config::fast_math is set.
void cost_per_good_system_fast(const chiplet_spec& base, int chiplets,
                               const double* total_area_mm2, double* out,
                               std::size_t n);

}  // namespace silicon::chiplet::batch
