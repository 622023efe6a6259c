// monte_carlo.hpp — Monte-Carlo defect-injection yield simulation.
//
// Validates the analytical critical-area / Eq. (7) chain end-to-end:
// defects are thrown onto the wire-array layout with Poisson-distributed
// counts, uniform positions and Fig. 5-distributed sizes, each defect is
// classified geometrically as benign / short / open, and the surviving die
// fraction estimates the yield.  Agreement with the closed form (within
// binomial error) is asserted by tests and reported by
// bench_ablate_mc_yield.
//
// The simulator alternates extra-material and missing-material defect
// populations with a configurable split (real lines see both kinds).
//
// Cost per defect.  Every defect draws its position, size quantile u and
// kind, in that order, so the RNG stream never depends on what follows.
// A disc narrower than the gap cannot bridge it, and one narrower than a
// wire cannot cut it; at the endpoint's defaults that is over nine
// defects in ten.  So a run precomputes cdf(spacing·(1-1e-6)) and
// cdf(width·(1-1e-6)) and drops a defect whose u falls below the one for
// its kind without computing its size or testing a wire.  The 1e-6 slack
// must cover the rounding of the disc's edges and of the wire edges,
// which grows with the largest coordinate of the run: a run checks that
// it does (and that quantile inverts cdf that closely) and classifies
// every defect of that kind where it does not, as for a layout some 5e8
// gaps tall.
// A defect that is kept is tested only against the few wires its extent
// can reach, not the whole array.
//
// Cost per die.  A shard's stream is read by index (splitmix64 is
// counter-based), in blocks: a count pass (AVX2 or baseline, picked by
// simd::active_target(), bit-identical) fills a buffer of draws and the
// Knuth count, capped at 4, a die starting at each position would draw.
// A die with fewer than four defects is then one buffered count and a
// jump of 4n + 1 draws; other dies run the product loop on indexed
// draws.  A flat pass over the block's defects then keeps those that
// the skip above does not drop, and only they get a size and a wire
// scan.  At the endpoint's defaults a die costs about 22 ns serially on
// a 2.1 GHz Xeon (AVX2), against about 54 ns for the per-die loop it
// replaced.
// Counters are bit-identical to that loop testing every defect against
// every wire (tests/yield/test_monte_carlo.cpp).

#pragma once

#include "exec/cancel.hpp"
#include "yield/critical_area.hpp"
#include "yield/defect.hpp"

#include <cstdint>

namespace silicon::yield {

/// Outcome of a Monte-Carlo yield run.
struct monte_carlo_result {
    std::size_t dies = 0;          ///< simulated dies
    std::size_t good_dies = 0;     ///< dies with no fault
    std::size_t defects_thrown = 0;///< total defects generated
    std::size_t shorts = 0;        ///< defects classified as shorts
    std::size_t opens = 0;         ///< defects classified as opens
    double yield = 0.0;            ///< good_dies / dies
    double std_error = 0.0;        ///< binomial standard error of `yield`

    /// Expected faults per die implied by the observed fault count.
    [[nodiscard]] double observed_faults_per_die() const {
        return dies == 0 ? 0.0
                         : static_cast<double>(shorts + opens) /
                               static_cast<double>(dies);
    }
};

/// Simulation parameters.
///
/// Determinism contract: dies are split into `exec::shard_count_for(dies)`
/// chunks, each with its own `exec::shard_seed(seed, chunk)`-seeded RNG
/// stream, and the per-chunk counters are merged in chunk order.  The
/// decomposition depends only on `dies`, so the result is bit-identical
/// for every `parallelism` value (including 1, which runs the same
/// chunks serially).
struct monte_carlo_config {
    std::size_t dies = 10000;            ///< number of dies to simulate
    double defects_per_um2 = 0.0;        ///< all-size defect density
    double extra_material_fraction = 0.5;///< share of defects that are
                                         ///< extra-material (short-causing)
    std::uint64_t seed = 0x5eedu;        ///< RNG seed
    unsigned parallelism = 0;            ///< threads; 0 = hardware
                                         ///< concurrency, 1 = serial
    /// Optional cooperative cancellation (deadline) token.  Checked at
    /// shard boundaries only: a run either completes every shard
    /// bit-identically or throws exec::cancelled_error — never a
    /// partial result.
    const exec::cancel_token* cancel = nullptr;
};

/// Classify a single defect: does a disc of the given diameter centered at
/// (x, y) — coordinates in microns, origin at the layout's lower-left
/// corner, wires running along +x — cause the given fault kind?
/// Exposed for direct testing of the geometry predicate.
[[nodiscard]] bool defect_causes_fault(const wire_array_layout& layout,
                                       fault_kind kind, double x, double y,
                                       double diameter);

/// Run the simulation.  Throws std::invalid_argument on a non-positive die
/// count, negative density, or a material fraction outside [0, 1], and
/// std::domain_error when the expected defects per die is non-finite or
/// above 1e6 (a size tail near p = 1 widens the sampling margin without
/// bound).
[[nodiscard]] monte_carlo_result simulate_layout_yield(
    const wire_array_layout& layout, const defect_size_distribution& sizes,
    const monte_carlo_config& config);

/// Draw from Poisson(mean) using the given generator.  Deterministic,
/// exact (Knuth with recursive halving for large means).  Throws
/// std::invalid_argument on a negative or non-finite mean, and
/// std::domain_error on a mean above about 2.8e20 (30 · 2^63), whose
/// halves no longer fit a count.
[[nodiscard]] std::size_t poisson_sample(double mean, splitmix64& rng);

}  // namespace silicon::yield
