// defect.hpp — spot defect size distribution (paper Fig. 5).
//
// Contamination-generated spot defects are modeled as discs whose radius R
// follows the standard two-branch density used throughout the yield
// literature (Stapper, Ferris-Prabhu, Maly):
//
//     f(R) = k * R^q               for 0 < R <= R0      (rising branch)
//     f(R) = k * R0^(q+p) / R^p    for R  > R0          (1/R^p tail)
//
// The density is continuous at R0 and normalized over (0, inf), which
// requires p > 1.  The paper reports p in the 4-5 range for real lines and
// uses q = 1 implicitly (the conventional value); both are parameters here.
//
// The class provides the pdf, cdf, survival function, raw moments, the
// mean, and inverse-cdf sampling — everything the critical-area and
// Monte-Carlo yield modules need.

#pragma once

#include <cstdint>
#include <vector>

namespace silicon::yield {

/// Two-branch power-law defect size distribution of Fig. 5.
///
/// Radii are in the same length unit as r0 (the model is scale-free; the
/// critical-area code uses microns throughout).
class defect_size_distribution {
public:
    /// @param r0 peak radius (microns); must be > 0.
    /// @param p  tail exponent; must be > 1 for normalizability.
    /// @param q  rising-branch exponent; must be > -1.
    defect_size_distribution(double r0, double p, double q = 1.0);

    [[nodiscard]] double r0() const noexcept { return r0_; }
    [[nodiscard]] double p() const noexcept { return p_; }
    [[nodiscard]] double q() const noexcept { return q_; }

    /// Probability density at radius r (0 for r <= 0).
    [[nodiscard]] double pdf(double r) const;

    /// P(R <= r).
    [[nodiscard]] double cdf(double r) const;

    /// P(R > r) = 1 - cdf(r), computed without cancellation for large r.
    [[nodiscard]] double survival(double r) const;

    /// Raw moment E[R^n]; requires p > n + 1, throws std::domain_error
    /// otherwise (the tail makes the moment infinite).
    [[nodiscard]] double moment(int n) const;

    /// Mean defect radius E[R] (requires p > 2).
    [[nodiscard]] double mean() const { return moment(1); }

    /// Inverse cdf: the radius r with cdf(r) = u, for u in [0, 1).
    [[nodiscard]] double quantile(double u) const;

    /// Draw `count` radii by inverse-cdf sampling of a SplitMix64 stream
    /// seeded with `seed` (deterministic across platforms).
    [[nodiscard]] std::vector<double> sample(std::size_t count,
                                             std::uint64_t seed) const;

    /// Fraction of the distribution's mass on the tail branch (r > r0).
    [[nodiscard]] double tail_mass() const noexcept { return tail_mass_; }

    /// Fraction of the mass on the rising branch (r <= r0): the largest u
    /// that quantile() inverts on that branch.
    [[nodiscard]] double body_mass() const noexcept { return body_mass_; }

private:
    double r0_;
    double p_;
    double q_;
    double k_;          // normalization constant
    double tail_scale_; // k * r0^(q+p), the tail branch's coefficient
    double tail_mass_;  // P(R > r0)
    double body_mass_;  // P(R <= r0)
};

/// Deterministic 64-bit SplitMix64 generator used for all stochastic
/// substrates in this library (stable results across platforms, unlike
/// std::default_random_engine distributions).
///
/// The generator is counter-based: the k-th value after a state s
/// (k = 0 is the next one) is mix(s + (k+1)·gamma), so any draw of a
/// stream can be computed without the ones before it (double_at).
class splitmix64 {
public:
    static constexpr std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;

    explicit constexpr splitmix64(std::uint64_t seed) noexcept
        : state_{seed} {}

    /// The output function applied to each counter value.
    static constexpr std::uint64_t mix(std::uint64_t z) noexcept {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// A raw value's top 53 bits as a uniform double in [0, 1).
    static constexpr double to_unit(std::uint64_t x) noexcept {
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    /// Next raw 64-bit value.
    constexpr std::uint64_t next() noexcept { return mix(state_ += gamma); }

    /// Uniform double in [0, 1).
    double next_double() noexcept { return to_unit(next()); }

    /// The double the k-th next_double() from now would return (k = 0
    /// is the next one), without advancing the generator.
    [[nodiscard]] constexpr double double_at(std::uint64_t k) const noexcept {
        return to_unit(mix(state_ + (k + 1) * gamma));
    }

    /// The current counter value (the state double_at counts from).
    [[nodiscard]] constexpr std::uint64_t state() const noexcept {
        return state_;
    }

private:
    std::uint64_t state_;
};

}  // namespace silicon::yield
