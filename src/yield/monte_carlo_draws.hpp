// monte_carlo_draws.hpp — the count pass behind simulate_layout_yield's
// block walk (private to the yield library; see monte_carlo.cpp).

#pragma once

#include <cstddef>
#include <cstdint>

namespace silicon::yield::mc {

/// Fill draws[0, n) with draws first, first+1, ... of the splitmix64
/// stream whose state is `state` (draws[i] equals
/// splitmix64{state}.double_at(first + i)).  Unless `counts` is null,
/// also set counts[i], for i < n - 3, to the number of the products
/// draws[i], draws[i]·draws[i+1], draws[i]·draws[i+1]·draws[i+2] and
/// that times draws[i+3] (multiplied in that order) that exceed
/// `limit`: the Knuth Poisson count of a draw starting at i, capped at
/// 4.  The products never increase, so where counts[i] < 4 it is the
/// count itself.  Runs the AVX2 variant when simd::active_target() is
/// avx2; the variants are bit-identical.
void fill_draws(std::uint64_t state, std::uint64_t first, double* draws,
                std::size_t n, double limit, std::uint32_t* counts);

}  // namespace silicon::yield::mc
