#include "yield/monte_carlo.hpp"

#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace silicon::yield {

namespace {

/// The index window [first, last] that holds every index i with i*pitch
/// in [from, to], widened by one index on each side and clamped
/// to [0, last_index] (first > last when empty; a NaN bound leaves that
/// side at the array's end).  The callers re-check their exact predicate
/// at every index in the window, so it only has to be a superset.  The
/// widening covers the rounding of the quotients: where an exact
/// predicate holds at index i, the coordinates it compares lie within
/// line_count pitches of the origin, and there the quotients are exact
/// to far less than one index.
struct wire_window {
    int first;
    int last;
};

wire_window reach_window(double from, double to, double pitch,
                         int last_index) {
    const double first = std::floor(from / pitch) - 1.0;
    const double last = std::ceil(to / pitch) + 1.0;
    const double end = static_cast<double>(last_index);
    return {first > 0.0 ? static_cast<int>(std::min(first, end + 1.0)) : 0,
            last < end ? static_cast<int>(std::max(last, -1.0))
                       : last_index};
}

/// Number of adjacent wire pairs bridged by an extra-material disc of the
/// given diameter centered at height y (wires along +x, wire i spans
/// y in [i*pitch, i*pitch + w]).  Uses the vertical-extent criterion that
/// also underlies the analytic band model, so MC validates the statistics
/// rather than disc-versus-band geometry (see header).
int bridged_pairs(const wire_array_layout& layout, double y,
                  double diameter) {
    const double pitch = layout.pitch();
    const double w = layout.line_width;
    const double lo = y - 0.5 * diameter;
    const double hi = y + 0.5 * diameter;
    // lo < i*pitch + w and (i+1)*pitch < hi.
    const wire_window reach =
        reach_window(lo - w, hi - pitch, pitch, layout.line_count - 2);
    int events = 0;
    for (int i = reach.first; i <= reach.last; ++i) {
        const double top_of_lower = static_cast<double>(i) * pitch + w;
        const double bottom_of_upper = static_cast<double>(i + 1) * pitch;
        // Bridge: the defect must reach into wire i (below the gap) and
        // wire i+1 (above the gap).
        if (lo < top_of_lower && hi > bottom_of_upper) {
            ++events;
        }
    }
    return events;
}

/// Number of wires fully severed by a missing-material disc.
int severed_wires(const wire_array_layout& layout, double y,
                  double diameter) {
    const double pitch = layout.pitch();
    const double w = layout.line_width;
    const double lo = y - 0.5 * diameter;
    const double hi = y + 0.5 * diameter;
    // lo <= i*pitch and i*pitch + w <= hi.
    const wire_window reach =
        reach_window(lo, hi - w, pitch, layout.line_count - 1);
    int events = 0;
    for (int i = reach.first; i <= reach.last; ++i) {
        const double bottom = static_cast<double>(i) * pitch;
        if (lo <= bottom && hi >= bottom + w) {
            ++events;
        }
    }
    return events;
}

/// Poisson(mean) as the sum of `leaves` draws of Poisson(mean / leaves).
/// Halving a mean above 30 until it is not gives 2^k leaves of one equal
/// mean (halving is exact), so the plan is made once per mean and
/// exp(-leaf mean) is not recomputed per draw.
struct poisson_plan {
    std::size_t leaves = 1;
    double limit = 1.0;  ///< exp(-leaf mean), Knuth's stopping product
};

poisson_plan plan_poisson(double mean) {
    if (!(mean >= 0.0) || !std::isfinite(mean)) {
        throw std::invalid_argument(
            "poisson_sample: mean must be finite and >= 0");
    }
    poisson_plan plan;
    // Knuth's product method is numerically safe up to a mean of about 30;
    // Poisson additivity splits larger means into equal halves.
    while (mean > 30.0) {
        if (plan.leaves > std::numeric_limits<std::size_t>::max() / 2) {
            throw std::domain_error("poisson_sample: mean too large");
        }
        mean *= 0.5;
        plan.leaves *= 2;
    }
    plan.limit = std::exp(-mean);
    return plan;
}

/// One draw from a plan.  The leaves run left to right, the order the
/// halving recursion visits them, so the RNG stream is the recursion's.
std::size_t draw_poisson(const poisson_plan& plan, splitmix64& rng) {
    std::size_t count = 0;
    for (std::size_t leaf = 0; leaf < plan.leaves; ++leaf) {
        double product = rng.next_double();
        while (product > plan.limit) {
            ++count;
            product *= rng.next_double();
        }
    }
    return count;
}

/// Largest expected defect count per die a run accepts: past it one die
/// takes seconds, and a deadline is only checked between shards.
constexpr double max_mean_defects_per_die = 1e6;

/// Relative slack of the skip thresholds below a wire gap or width.
constexpr double skip_slack = 1e-6;

/// The size draw u below which a defect cannot fault: cdf(gap·(1-slack))
/// for a short (gap = spacing) or an open (gap = width), or 0 (never
/// skip) where the argument below does not hold.
///
/// Why skipping is exact.  A disc of diameter d spans [lo, hi] with
/// lo = y - d/2 and hi = y + d/2.  It bridges pair i only if
/// hi - lo > bottom(i+1) - top(i), and severs wire i only if
/// hi - lo >= top(i) - bottom(i); in exact arithmetic those right-hand
/// sides are the spacing s and the width w.  Every operand is computed
/// in double: with unit roundoff e = 2^-53 and M the largest coordinate
/// (|y| + d/2 and every wire edge are below M = sample height + pitch),
/// lo and hi are each off by at most e·M, fl(i·pitch) by 2e·M and
/// fl(fl(i·pitch) + w) by 3e·M.  So a fault needs d > gap - 7e·M.
/// Skipping u < cdf(gap·(1-slack)) is safe when every such u gives
/// d = quantile(u) <= gap·(1 - slack/2) and gap·slack/2 >= 8e·M:
/// - The first is checked directly.  quantile is nondecreasing on each
///   branch of Fig. 5 (up to one ulp of std::pow, far inside the slack),
///   so its largest value below the threshold is at the threshold's
///   predecessor or at the body's end.  This also covers the round trip
///   cdf -> quantile, whose error grows as q -> -1 or p -> 1.
/// - The second fails only for a layout (or sampling margin) taller than
///   about 5e8 gaps; such a run does not skip.
double skip_below(const defect_size_distribution& sizes, double gap,
                  double largest_coordinate) {
    const double u = sizes.cdf(gap * (1.0 - skip_slack));
    const double below = std::nextafter(u, 0.0);  // largest draw < u
    const double d_max =
        std::max(sizes.quantile(below),
                 sizes.quantile(std::min(below, sizes.body_mass())));
    const double roundoff = 0.5 * std::numeric_limits<double>::epsilon();
    const bool safe = d_max <= gap * (1.0 - 0.5 * skip_slack) &&
                      8.0 * roundoff * largest_coordinate <=
                          0.5 * skip_slack * gap;
    return safe ? u : 0.0;
}

}  // namespace

bool defect_causes_fault(const wire_array_layout& layout, fault_kind kind,
                         double x, double y, double diameter) {
    layout.validate();
    if (x < 0.0 || x > layout.line_length) {
        return false;
    }
    switch (kind) {
        case fault_kind::short_circuit:
            return bridged_pairs(layout, y, diameter) > 0;
        case fault_kind::open_circuit:
            return severed_wires(layout, y, diameter) > 0;
    }
    throw std::invalid_argument("defect_causes_fault: unknown fault kind");
}

std::size_t poisson_sample(double mean, splitmix64& rng) {
    return draw_poisson(plan_poisson(mean), rng);
}

monte_carlo_result simulate_layout_yield(const wire_array_layout& layout,
                                         const defect_size_distribution& sizes,
                                         const monte_carlo_config& config) {
    layout.validate();
    if (config.dies == 0) {
        throw std::invalid_argument(
            "simulate_layout_yield: need at least one die");
    }
    if (!(config.defects_per_um2 >= 0.0)) {
        throw std::invalid_argument(
            "simulate_layout_yield: defect density must be >= 0");
    }
    if (!(config.extra_material_fraction >= 0.0 &&
          config.extra_material_fraction <= 1.0)) {
        throw std::invalid_argument(
            "simulate_layout_yield: extra-material fraction must be in "
            "[0,1]");
    }

    // Vertical sampling margin: centers outside the wire stack can still
    // cause events when the defect is large.  Cover all but 1e-6 of the
    // size distribution.
    const double height =
        static_cast<double>(layout.line_count) * layout.line_width +
        static_cast<double>(layout.line_count - 1) * layout.line_spacing;
    const double margin = 0.5 * sizes.quantile(1.0 - 1e-6);
    const double sample_height = height + 2.0 * margin;
    const double mean_defects =
        config.defects_per_um2 * layout.line_length * sample_height;
    // A heavy tail (p near 1) makes the margin, and so the mean, infinite
    // or huge; refuse it rather than sample for ever.
    if (!(mean_defects <= max_mean_defects_per_die)) {
        throw std::domain_error(
            "simulate_layout_yield: expected defects per die must be finite "
            "and at most 1e6");
    }
    const poisson_plan defects_per_die = plan_poisson(mean_defects);
    const double largest_coordinate = sample_height + layout.pitch();
    const double skip_short =
        skip_below(sizes, layout.line_spacing, largest_coordinate);
    const double skip_open =
        skip_below(sizes, layout.line_width, largest_coordinate);

    // Shard the dies; each shard draws from its own shard_seed-ed stream
    // and the integer counters merge in shard order, so the result is
    // bit-identical at every parallelism level (see monte_carlo_config).
    struct counters {
        std::size_t good = 0;
        std::size_t thrown = 0;
        std::size_t shorts = 0;
        std::size_t opens = 0;
    };
    const counters merged = exec::parallel_reduce(
        config.dies, config.parallelism, counters{},
        [&](const exec::shard_range& shard) {
            counters c;
            // Cooperative cancellation at shard granularity: a skipped
            // shard contributes nothing and the throw below discards
            // the merge, so no partial result ever escapes.
            if (config.cancel != nullptr && config.cancel->expired()) {
                return c;
            }
            splitmix64 rng{exec::shard_seed(config.seed, shard.index)};
            for (std::size_t die = shard.begin; die < shard.end; ++die) {
                const std::size_t n = draw_poisson(defects_per_die, rng);
                c.thrown += n;
                bool good = true;
                for (std::size_t k = 0; k < n; ++k) {
                    // Every defect draws its three numbers, skipped or
                    // not, so the stream does not depend on the skip.
                    const double y =
                        -margin + rng.next_double() * sample_height;
                    const double u = rng.next_double();
                    const bool extra = rng.next_double() <
                                       config.extra_material_fraction;
                    // Too narrow to bridge the gap or cut the wire (see
                    // skip_below): no event, so no size and no scan.
                    if (u < (extra ? skip_short : skip_open)) {
                        continue;
                    }
                    const double diameter = sizes.quantile(u);
                    // x is uniform over the wire length; the band
                    // criterion does not depend on it, so it is not
                    // drawn explicitly.
                    if (extra) {
                        const int events =
                            bridged_pairs(layout, y, diameter);
                        c.shorts += static_cast<std::size_t>(events);
                        good = good && events == 0;
                    } else {
                        const int events =
                            severed_wires(layout, y, diameter);
                        c.opens += static_cast<std::size_t>(events);
                        good = good && events == 0;
                    }
                }
                if (good) {
                    ++c.good;
                }
            }
            return c;
        },
        [](counters a, counters b) {
            a.good += b.good;
            a.thrown += b.thrown;
            a.shorts += b.shorts;
            a.opens += b.opens;
            return a;
        },
        // The grain: about 15 ns per die plus 27 ns per defect drawn
        // (about 45 ns a die at the serve endpoint's defaults, measured
        // serially), so small runs stay on the caller instead of waking
        // the pool (DESIGN.md §7).
        15.0 + 27.0 * mean_defects);

    if (config.cancel != nullptr && config.cancel->expired()) {
        throw exec::cancelled_error{};
    }

    monte_carlo_result result;
    result.dies = config.dies;
    result.good_dies = merged.good;
    result.defects_thrown = merged.thrown;
    result.shorts = merged.shorts;
    result.opens = merged.opens;

    result.yield = static_cast<double>(result.good_dies) /
                   static_cast<double>(result.dies);
    result.std_error = std::sqrt(result.yield * (1.0 - result.yield) /
                                 static_cast<double>(result.dies));
    return result;
}

}  // namespace silicon::yield
