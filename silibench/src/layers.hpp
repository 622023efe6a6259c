// layers.hpp — the traced run's per-layer numbers.
//
// Two sources: deltas of the counters silicond exports on GET /metrics,
// scraped before and after each timed phase, and timings of calls into
// each layer's public functions made from this harness, on the
// workload's own lines, after the server has stopped (so they never
// perturb the timed phases).

#pragma once

#include "client.hpp"
#include "common.hpp"
#include "server.hpp"
#include "workload.hpp"

#include <vector>

namespace silibench {

struct trace_inputs {
    const workload& w;
    /// Every round's open / closed phase, pooled.
    const phase_stats& open;
    const phase_stats& closed;
    /// /metrics counter deltas over the open and the closed phases,
    /// summed over rounds.
    const scrape& open_delta;
    const scrape& closed_delta;
    /// Depth-1 round trips of one line, measured on the live server.
    const std::vector<double>& rtt_us;
    std::uint32_t rtt_line;
    std::uint64_t seed;
};

/// Every per-layer metric of the traced run (see NOTES.md for the map
/// from each to the end-to-end metric it should move).
[[nodiscard]] std::vector<metric> measure_layers(const trace_inputs& in);

}  // namespace silibench
