// workload.hpp — seeded request generators for the three workloads.
//
// A workload is a list of distinct request lines plus three index
// sequences into it: the lines sent during set-up (warm-up), the
// open-phase sequence and the closed-phase sequence.  Everything is a
// pure function of (workload, seed, sizes), so the same seed always
// gives the same bytes; silicond only ever sees the generated lines.
//
//   warm_point    a fixed working set of point requests over the seven
//                 closed-form ops, all sent once in set-up, so the timed
//                 phases are cache hits.
//   cold_point    the same ops with continuous parameters; no line ever
//                 repeats, and set-up inserts more unique keys than the
//                 default cache holds, so the timed phases miss against
//                 a full, evicting cache.
//   grid_explore  unique sweep / partition_explore / mc_yield requests; a
//                 fixed share of the sweeps refine an earlier grid
//                 (count' = 2*count - 1 over the same bounds), so exactly
//                 `count` of their lanes are already cached.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace silibench {

enum class workload_kind { warm_point, cold_point, grid_explore };

/// Parses a workload name; false for an unknown one.
bool parse_workload(std::string_view name, workload_kind& out);
[[nodiscard]] const char* workload_name(workload_kind k);

/// Knobs recorded next to the workload in BENCHMARK.json.
struct workload_knobs {
    double open_rate = 0.0;  ///< open-phase Poisson rate, requests/s
    double overlap = 0.0;    ///< grid_explore: share of sweeps that refine
};

/// Sizes of the generated sequences.  Each sequence is made of `slices`
/// equal parts, one per round; grid refinements never cross a slice.
struct workload_sizes {
    std::size_t open = 0;    ///< open-phase requests per slice
    std::size_t closed = 0;  ///< closed-phase requests available per slice
    std::size_t slices = 1;
};

/// Per-request facts the benchmark needs after the reply arrives.
struct line_info {
    std::uint32_t sweep_lanes = 0;    ///< lanes of a sweep request
    std::uint32_t cached_lanes = 0;   ///< of those, designed cache hits
    std::uint32_t explore_cells = 0;  ///< partition_explore grid cells
    std::uint32_t dies = 0;           ///< mc_yield dies
    std::int32_t parent = -1;         ///< refined grid's line, or -1
};

struct workload {
    workload_kind kind = workload_kind::warm_point;
    /// Distinct request lines, each terminated by '\n'.
    std::vector<std::string> lines;
    std::vector<line_info> info;
    std::vector<std::uint32_t> warmup;
    std::vector<std::uint32_t> open;
    std::vector<std::uint32_t> closed;
    /// Equal slices of `open` and `closed`, one per round.
    std::size_t slices = 1;
    /// Lines the generator dropped before use (see `drop_rejected`).
    std::size_t rejected = 0;
};

/// Generates the workload for `seed`.  A grid refinement points at a
/// parent earlier in the same slice (see drop_rejected for what happens
/// when the gate drops the parent).
[[nodiscard]] workload generate(workload_kind kind, std::uint64_t seed,
                                const workload_knobs& knobs,
                                const workload_sizes& sizes);

/// Removes the lines whose `ok[i]` is false from every sequence (the
/// validity gate's verdict) and counts them in `rejected`.  Each slice
/// keeps its place: a dropped line is replaced by the slice's next kept
/// line, so slices stay equal in length (shorter by the worst slice's
/// losses).
void drop_rejected(workload& w, const std::vector<bool>& ok);

/// Designed workload properties, recorded with every traced result (the
/// designed lane-overlap share depends on what was sent, so the client
/// counts it: phase_stats::cached_lanes).
struct workload_properties {
    double distinct_keys = 0;        ///< distinct lines over all phases
    double expected_hit_share = 0;   ///< timed-phase top-level hit share
    double lanes_per_req = 0;        ///< sweep + explore lanes per request
    double dies_per_req = 0;         ///< dies per mc_yield request
};
[[nodiscard]] workload_properties properties(const workload& w);

}  // namespace silibench
