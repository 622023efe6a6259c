#include "yield/monte_carlo.hpp"

#include "exec/thread_pool.hpp"

#include <cmath>
#include <stdexcept>

namespace silicon::yield {

namespace {

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
    int events = 0;
    for (int i = 0; i + 1 < layout.line_count; ++i) {
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
    int events = 0;
    for (int i = 0; i < layout.line_count; ++i) {
        const double bottom = static_cast<double>(i) * pitch;
        if (lo <= bottom && hi >= bottom + w) {
            ++events;
        }
    }
    return events;
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
    if (!(mean >= 0.0)) {
        throw std::invalid_argument("poisson_sample: mean must be >= 0");
    }
    // Poisson additivity: halve large means until Knuth's product method is
    // numerically safe, then sum the parts.
    if (mean > 30.0) {
        return poisson_sample(mean * 0.5, rng) +
               poisson_sample(mean * 0.5, rng);
    }
    const double limit = std::exp(-mean);
    std::size_t count = 0;
    double product = rng.next_double();
    while (product > limit) {
        ++count;
        product *= rng.next_double();
    }
    return count;
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
                const std::size_t n = poisson_sample(mean_defects, rng);
                c.thrown += n;
                bool good = true;
                for (std::size_t k = 0; k < n; ++k) {
                    const double y =
                        -margin + rng.next_double() * sample_height;
                    const double diameter =
                        sizes.quantile(rng.next_double());
                    const bool extra = rng.next_double() <
                                       config.extra_material_fraction;
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
        // The grain: about 40 ns per die plus as much per defect drawn
        // (about 65 ns a die at the serve endpoint's defaults, as
        // measured), so small runs stay on the caller instead of waking
        // the pool (DESIGN.md §7).
        40.0 * (1.0 + mean_defects));

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
