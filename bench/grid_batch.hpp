// grid_batch.hpp — the grid batch both serving benches time: the four
// kinds of line silibench's grid_explore generator sends, in its order
// (sweep, sweep, partition_explore, mc_yield), served together in one
// handle_batch as a closed-loop client with a window of four does.

#pragma once

#include "serve/json.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace silicon::bench {

/// Batch `n` of the grid workload: a 256-lane scenario2 kernel sweep, a
/// 256-lane murphy yield kernel sweep, a 4x64 partition_explore and a
/// 20,000-die mc_yield.  Every number moves with `n`, so each batch is
/// fresh: no line and no lane is a cache hit.
inline std::vector<std::string> grid_batch(std::uint64_t n) {
    const double shift = 1.0 + 1e-9 * static_cast<double>(n);
    const auto num = [](double x) { return serve::json::format_number(x); };
    return {
        R"({"op":"sweep","param":"lambda_um","from":)" + num(0.4 * shift) +
            R"(,"to":)" + num(1.4 * shift) +
            R"(,"count":256,"target":{"op":"scenario2"}})",
        R"({"op":"sweep","param":"die_area_cm2","from":)" +
            num(0.05 * shift) + R"(,"to":)" + num(4.0 * shift) +
            R"(,"count":256,"target":{"op":"yield","model":"murphy"}})",
        R"({"op":"partition_explore","splits":"1,2,4,8","area_from_mm2":)" +
            num(100.0 * shift) + R"(,"area_to_mm2":)" + num(900.0 * shift) +
            R"(,"count":64})",
        R"({"op":"mc_yield","dies":20000,"seed":)" + std::to_string(n) + "}",
    };
}

}  // namespace silicon::bench
