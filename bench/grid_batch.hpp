// grid_batch.hpp — the grid batch both serving benches time: the four
// kinds of line silibench's grid_explore generator sends, in its order
// (sweep, sweep, partition_explore, mc_yield), served together in one
// handle_batch as a closed-loop client with a window of four does.  Also
// the lane feed both benches time: fresh grids into a full point cache,
// against the same grids with the cache off.

#pragma once

#include "serve/engine.hpp"
#include "serve/json.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace silicon::bench {

/// Batch `n`'s numbers move by this factor, so each batch is fresh.
inline double grid_shift(std::uint64_t n) {
    return 1.0 + 1e-9 * static_cast<double>(n);
}

inline std::string grid_number(double x) {
    return serve::json::format_number(x);
}

/// Batch `n`'s 256-lane scenario2 kernel sweep.
inline std::string scenario2_sweep_line(std::uint64_t n) {
    const double shift = grid_shift(n);
    return R"({"op":"sweep","param":"lambda_um","from":)" +
           grid_number(0.4 * shift) + R"(,"to":)" + grid_number(1.4 * shift) +
           R"(,"count":256,"target":{"op":"scenario2"}})";
}

/// Batch `n`'s 4x64 partition_explore (256 chiplet cells).
inline std::string explore_line(std::uint64_t n) {
    const double shift = grid_shift(n);
    return R"({"op":"partition_explore","splits":"1,2,4,8","area_from_mm2":)" +
           grid_number(100.0 * shift) + R"(,"area_to_mm2":)" +
           grid_number(900.0 * shift) + R"(,"count":64})";
}

/// Batch `n` of the grid workload: a 256-lane scenario2 kernel sweep, a
/// 256-lane murphy yield kernel sweep, a 4x64 partition_explore and a
/// 20,000-die mc_yield.  Every number moves with `n`, so each batch is
/// fresh: no line and no lane is a cache hit.
inline std::vector<std::string> grid_batch(std::uint64_t n) {
    const double shift = grid_shift(n);
    return {
        scenario2_sweep_line(n),
        R"({"op":"sweep","param":"die_area_cm2","from":)" +
            grid_number(0.05 * shift) + R"(,"to":)" +
            grid_number(4.0 * shift) +
            R"(,"count":256,"target":{"op":"yield","model":"murphy"}})",
        explore_line(n),
        R"({"op":"mc_yield","dies":20000,"seed":)" + std::to_string(n) + "}",
    };
}

/// Batch `n`'s 256-lane cost_tr sweep over a nested parameter: a
/// sweep with no batch kernel, whose lanes the lane planner keys, probes,
/// evaluates one by one and caches.
inline std::string cost_tr_sweep_line(std::uint64_t n) {
    const double shift = grid_shift(n);
    return R"({"op":"sweep","param":"product.transistors","from":)" +
           grid_number(1e6 * shift) + R"(,"to":)" + grid_number(8e6 * shift) +
           R"(,"count":256,"target":{"op":"cost_tr"}})";
}

/// Fills `engine`'s default-size (65,536-entry) point cache: 17 sweeps
/// of 4,096 distinct gross_die lanes (lanes the point cache holds), so
/// every later put evicts.
inline void fill_point_cache(serve::engine& engine) {
    for (int i = 0; i < 17; ++i) {
        (void)engine.handle_line(
            R"({"op":"sweep","param":"die_width_mm","from":)" +
            std::to_string(i + 1) + R"(.3,"to":)" + std::to_string(i + 1) +
            R"(.9,"count":4096,"target":{"op":"gross_die"}})");
    }
}

/// The grids the lane feed times: two that run on a batch kernel and
/// one whose lanes feed the point cache.
enum class feed_grid : int { scenario2_sweep = 0, explore = 1, cost_tr_sweep = 2 };

/// Lane-feed grid `n` of `kind`: batch n's scenario2 sweep, its explore,
/// or its cost_tr sweep.
inline std::string lane_feed_line(feed_grid kind, std::uint64_t n) {
    switch (kind) {
        case feed_grid::explore:
            return explore_line(n);
        case feed_grid::cost_tr_sweep:
            return cost_tr_sweep_line(n);
        default:
            return scenario2_sweep_line(n);
    }
}

}  // namespace silicon::bench
