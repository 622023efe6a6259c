#include "yield/monte_carlo.hpp"

#include "exec/thread_pool.hpp"
#include "yield/monte_carlo_draws.hpp"

#include <algorithm>
#include <array>
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

/// Knuth's product loop from a running count and product: multiply in
/// uniforms from `draw` until the product is at or below `limit`.
template <class Draw>
std::size_t knuth_tail(double limit, std::size_t count, double product,
                       Draw& draw) {
    while (product > limit) {
        ++count;
        product *= draw();
    }
    return count;
}

/// One draw from a plan, taking its uniforms from `draw`.  The leaves run
/// left to right, the order the halving recursion visits them, so the
/// stream is the recursion's.
template <class Draw>
std::size_t knuth_count(const poisson_plan& plan, Draw& draw) {
    std::size_t count = 0;
    for (std::size_t leaf = 0; leaf < plan.leaves; ++leaf) {
        count = knuth_tail(plan.limit, count, draw(), draw);
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

/// What every shard of a run shares.
struct run_shape {
    const wire_array_layout& layout;
    const defect_size_distribution& sizes;
    poisson_plan defects_per_die;
    double margin = 0.0;
    double sample_height = 0.0;
    double extra_fraction = 0.0;
    /// skip_below for an open ([0]) and for a short ([1]), indexed by
    /// the kind test so the skip pass does not branch on it.
    std::array<double, 2> skip{};
    double draws_per_die = 0.0;  ///< expected draws: leaves + 4·mean
    double draws_var_per_die = 0.0;  ///< their variance: 16·mean
};

struct counters {
    std::size_t good = 0;
    std::size_t thrown = 0;
    std::size_t shorts = 0;
    std::size_t opens = 0;
};

/// Draws per buffer fill, defects per skip pass, and the most draws a
/// die with fewer than four defects reads (its count's n + 1 and three
/// per defect: at most 4·3 + 1).
constexpr std::size_t draw_block = 2048;
constexpr std::size_t defect_block = 256;
constexpr std::size_t small_die_draws = 13;

/// One shard's dies, walked in blocks (see simulate_layout_yield).
///
/// The shard's stream is read by index: draw k is rng.double_at(k),
/// served from a buffer of consecutive draws.  A block is what the walk
/// covers between two classifications: at most one buffer fill (the
/// buffer is only refilled after the block is classified) and at most
/// defect_block defects.  Each defect of the block is recorded as one
/// word: the buffer offset of its three draws (y, u, kind) in the low
/// 16 bits and its die's index within the block in the high 16.  Every
/// die of a block starts inside its buffer and reads at least one draw,
/// so a block holds at most draw_block + 1 dies and both fit.
///
/// The scratch arrays are written before they are read, so they are
/// left uninitialized; the walk lives on the shard's stack.
class shard_walk {
public:
    shard_walk(const run_shape& run, std::uint64_t seed)
        : run_{run}, rng_{seed} {}

    counters run(std::size_t dies) {
        const bool single_leaf = run_.defects_per_die.leaves == 1;
        std::size_t die = 0;
        while (die < dies) {
            if (pos_ - base_ + small_die_draws > filled_) {
                classify(die);
                refill(pos_, dies - die, 0);
            } else if (defects_ + 3 > defect_block) {
                classify(die);
            }
            if (single_leaf && counts_[pos_ - base_] < 4) {
                die = small_dies(die, dies);
            } else {
                large_die(die, dies);
                ++die;
            }
        }
        classify(dies);
        c_.good = dies - faulted_;
        return c_;
    }

private:
    /// Walk dies from `die` on while each has fewer than four defects
    /// (its buffered count says so), fits the buffer, and the block has
    /// room for three more defects; return the first die not walked.
    /// Three defect words are written whatever the die's count n, and n
    /// of them kept, so nothing branches on n and nothing multiplies on
    /// the path from one die's position to the next.
    std::size_t small_dies(std::size_t die, std::size_t dies) {
        std::size_t at = static_cast<std::size_t>(pos_ - base_);
        std::size_t defects = defects_;
        std::size_t thrown = 0;
        std::uint32_t word = static_cast<std::uint32_t>(die - block_die_)
                             << 16;
        const std::size_t last_at = filled_ - small_die_draws;
        do {
            const std::uint32_t n = counts_[at];
            const auto first = static_cast<std::uint32_t>(at + n + 1);
            defect_[defects] = word | first;
            defect_[defects + 1] = word | (first + 3);
            defect_[defects + 2] = word | (first + 6);
            defects += n;
            thrown += n;
            at += 4 * std::size_t{n} + 1;
            word += std::uint32_t{1} << 16;
            ++die;
        } while (die < dies && at <= last_at && defects + 3 <= defect_block &&
                 counts_[at] < 4);
        pos_ = base_ + at;
        defects_ = defects;
        c_.thrown += thrown;
        return die;
    }

    /// A die with four defects or more, or any die of a multi-leaf plan:
    /// the product loop on indexed draws, then its defects from the
    /// buffer, refilled at the defects' position when they run past it.
    /// A single-leaf count goes on from the fourth product, which the
    /// count pass found above the limit: the loop's state after three
    /// steps (count 3, product d0·d1·d2·d3, next draw d4).
    void large_die(std::size_t die, std::size_t dies) {
        std::uint64_t k = pos_;
        auto draw = [&] {
            const std::uint64_t at = k - base_;
            const double u = at < filled_ ? draws_[at] : rng_.double_at(k);
            ++k;
            return u;
        };
        std::size_t n = 0;
        if (run_.defects_per_die.leaves == 1) {
            const double* d = draws_ + (k - base_);
            k += 4;
            n = knuth_tail(run_.defects_per_die.limit, 3,
                           d[0] * d[1] * d[2] * d[3], draw);
        } else {
            n = knuth_count(run_.defects_per_die, draw);
        }
        c_.thrown += n;
        for (std::size_t j = 0; j < n; ++j, k += 3) {
            if (k + 3 > base_ + filled_) {
                classify(die);
                refill(k, dies - die - 1, 3 * (n - j));
            } else if (defects_ == defect_block) {
                classify(die);
            }
            defect_[defects_++] =
                (static_cast<std::uint32_t>(die - block_die_) << 16) |
                static_cast<std::uint32_t>(k - base_);
        }
        pos_ = k;
    }

    /// Buffer the draws from stream index `from` on: the `defect_draws`
    /// a die still needs plus what `dies_left` more dies are expected to
    /// read (two standard deviations over the mean), at most draw_block.
    /// Only a single-leaf plan reads the counts, so only it makes them.
    void refill(std::uint64_t from, std::size_t dies_left,
                std::size_t defect_draws) {
        const double dies_d = static_cast<double>(dies_left);
        const double want =
            static_cast<double>(defect_draws) +
            dies_d * run_.draws_per_die +
            2.0 * std::sqrt(dies_d * run_.draws_var_per_die) +
            static_cast<double>(small_die_draws);
        base_ = from;
        filled_ = want < static_cast<double>(draw_block)
                      ? static_cast<std::size_t>(want)
                      : draw_block;
        mc::fill_draws(rng_.state(), base_, draws_, filled_,
                       run_.defects_per_die.limit,
                       run_.defects_per_die.leaves == 1 ? counts_ : nullptr);
    }

    /// Classify the block's defects, then start a new block at die
    /// `next_die`.  A flat pass keeps the defects whose size draw can
    /// fault (see skip_below); only they get a size and a scan of the
    /// wires they reach.  Dies come in order, so a die's faults are
    /// adjacent and each faulted die is counted once.
    void classify(std::size_t next_die) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < defects_; ++i) {
            const std::size_t at = defect_[i] & 0xffffu;
            const bool extra = draws_[at + 2] < run_.extra_fraction;
            kept_[kept] = defect_[i];
            kept += draws_[at + 1] >= run_.skip[extra] ? 1 : 0;
        }
        for (std::size_t j = 0; j < kept; ++j) {
            const std::size_t at = kept_[j] & 0xffffu;
            // x is uniform over the wire length; the band criterion does
            // not depend on it, so it is not drawn explicitly.
            const double y = -run_.margin + draws_[at] * run_.sample_height;
            const double diameter = run_.sizes.quantile(draws_[at + 1]);
            int events = 0;
            if (draws_[at + 2] < run_.extra_fraction) {
                events = bridged_pairs(run_.layout, y, diameter);
                c_.shorts += static_cast<std::size_t>(events);
            } else {
                events = severed_wires(run_.layout, y, diameter);
                c_.opens += static_cast<std::size_t>(events);
            }
            const std::size_t die = block_die_ + (kept_[j] >> 16);
            if (events > 0 && die != last_faulted_) {
                ++faulted_;
                last_faulted_ = die;
            }
        }
        defects_ = 0;
        block_die_ = next_die;
    }

    const run_shape& run_;
    splitmix64 rng_;
    counters c_;
    std::uint64_t pos_ = 0;    ///< stream index of the next die's first draw
    std::uint64_t base_ = 0;   ///< stream index of draws_[0]
    std::size_t filled_ = 0;   ///< draws buffered
    std::size_t defects_ = 0;  ///< defects in the block
    std::size_t block_die_ = 0;  ///< the block's first die
    std::size_t faulted_ = 0;
    std::size_t last_faulted_ = std::numeric_limits<std::size_t>::max();
    double draws_[draw_block];
    std::uint32_t counts_[draw_block];  ///< Knuth counts capped at 4
    std::uint32_t defect_[defect_block];  ///< die << 16 | buffer offset
    std::uint32_t kept_[defect_block];
};

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
    auto draw = [&rng] { return rng.next_double(); };
    return knuth_count(plan_poisson(mean), draw);
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
    const run_shape run{
        layout,
        sizes,
        defects_per_die,
        margin,
        sample_height,
        config.extra_material_fraction,
        {skip_below(sizes, layout.line_width, largest_coordinate),
         skip_below(sizes, layout.line_spacing, largest_coordinate)},
        static_cast<double>(defects_per_die.leaves) + 4.0 * mean_defects,
        16.0 * mean_defects};

    // Shard the dies; each shard draws from its own shard_seed-ed stream
    // and the integer counters merge in shard order, so the result is
    // bit-identical at every parallelism level (see monte_carlo_config).
    const counters merged = exec::parallel_reduce(
        config.dies, config.parallelism, counters{},
        [&](const exec::shard_range& shard) {
            // Cooperative cancellation at shard granularity: a skipped
            // shard contributes nothing and the throw below discards
            // the merge, so no partial result ever escapes.
            if (config.cancel != nullptr && config.cancel->expired()) {
                return counters{};
            }
            shard_walk walk{run, exec::shard_seed(config.seed, shard.index)};
            return walk.run(shard.end - shard.begin);
        },
        [](counters a, counters b) {
            a.good += b.good;
            a.thrown += b.thrown;
            a.shorts += b.shorts;
            a.opens += b.opens;
            return a;
        },
        // The grain: about 4 ns per die plus 19 ns per defect drawn
        // (about 22 ns a die at the serve endpoint's defaults, measured
        // serially), so small runs stay on the caller instead of waking
        // the pool (DESIGN.md §7).
        4.0 + 19.0 * mean_defects);

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
