#include "workload.hpp"

#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace silibench {

namespace {

// Purposes of the independent random streams of one seed.
constexpr std::uint64_t kWorkingSet = 1;
constexpr std::uint64_t kWarmup = 2;
constexpr std::uint64_t kOpen = 3;
constexpr std::uint64_t kClosed = 4;

// warm_point: working-set size (fits the default 65,536-entry cache).
constexpr std::size_t kWarmKeys = 16384;
// cold_point: unique keys inserted in set-up, more than the cache holds,
// so that every shard is full and evicting before the timed phases.
constexpr std::size_t kColdWarmup = 81920;
// grid_explore: requests sent in set-up.
constexpr std::size_t kGridWarmup = 240;
// grid_explore: a refinement's parent is 16..47 sweeps (about 32..94
// requests) back: far enough to have completed under the closed phase's
// 16 outstanding requests, near enough that its lanes are still resident.
constexpr std::size_t kParentMin = 16;
constexpr std::size_t kParentSpan = 32;

/// Appends `"key":value` with the given significant digits.
void num(std::string& s, const char* key, double v, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\":%.*g", key, digits, v);
    s += buf;
}

void integer(std::string& s, const char* key, long long v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\":%lld", key, v);
    s += buf;
}

void text(std::string& s, const char* key, const char* v) {
    s += '"';
    s += key;
    s += "\":\"";
    s += v;
    s += '"';
}

template <std::size_t N>
const char* pick(rng& r, const char* const (&names)[N]) {
    return names[r.below(N)];
}

constexpr const char* kYieldModels[] = {
    "poisson",      "murphy",         "seeds",    "bose_einstein",
    "neg_binomial", "scaled_poisson", "reference"};
constexpr const char* kGrossDieMethods[] = {
    "maly_rows",    "maly_rows_best_orient", "area_ratio",
    "circumference", "ferris_prabhu",        "exact"};
constexpr const char* kSubstrates[] = {"organic", "rdl", "interposer"};

/// Parameters of the `yield` op for `model` (no braces).
void yield_params(std::string& s, rng& r, const char* model, int d) {
    text(s, "model", model);
    const std::string m = model;
    if (m == "scaled_poisson") {
        s += ',';
        num(s, "die_area_cm2", r.uniform(0.1, 3.0), d);
        s += ',';
        num(s, "lambda_um", r.uniform(0.3, 1.5), d);
        s += ',';
        num(s, "d", r.uniform(1.0, 2.5), d);
    } else if (m == "reference") {
        s += ',';
        num(s, "die_area_cm2", r.uniform(0.1, 3.0), d);
        s += ',';
        num(s, "y0", r.uniform(0.5, 0.95), d);
        s += ',';
        num(s, "a0_cm2", r.uniform(0.5, 2.0), d);
    } else {
        s += ',';
        num(s, "die_area_cm2", r.uniform(0.1, 3.0), d);
        s += ',';
        num(s, "defects_per_cm2", r.uniform(0.05, 2.0), d);
        if (m == "bose_einstein") {
            s += ',';
            integer(s, "critical_steps", 5 + static_cast<long long>(r.below(16)));
        } else if (m == "neg_binomial") {
            s += ',';
            num(s, "alpha", r.uniform(0.5, 4.0), d);
        }
    }
}

void chiplet_params(std::string& s, rng& r, int d) {
    num(s, "logic_area_mm2", r.uniform(100.0, 500.0), d);
    s += ',';
    num(s, "memory_area_mm2", r.uniform(50.0, 250.0), d);
    s += ',';
    num(s, "io_area_mm2", r.uniform(20.0, 150.0), d);
    s += ',';
    num(s, "defects_per_cm2", r.uniform(0.1, 1.0), d);
    s += ',';
    text(s, "substrate", pick(r, kSubstrates));
}

/// One point request over the seven closed-form ops, `d` significant
/// digits per parameter.  `table3` is drawn only when `with_table3`:
/// it has 18 keys in all, so it cannot be part of a cold stream.
std::string point_line(rng& r, int d, bool with_table3) {
    std::string s = "{\"op\":";
    const unsigned ops = with_table3 ? 7 : 6;
    switch (r.below(ops)) {
        case 0: {
            const char* const models[] = {"reference", "scaled", "fixed"};
            const std::string model = pick(r, models);
            s += "\"cost_tr\",\"product\":{";
            num(s, "transistors", r.log_uniform(2e5, 5e6), d);
            s += ',';
            num(s, "design_density", r.uniform(100.0, 200.0), d);
            s += ',';
            num(s, "feature_size_um", r.uniform(0.5, 1.0), d);
            s += "},\"process\":{";
            num(s, "c0_usd", r.uniform(300.0, 800.0), d);
            s += ',';
            num(s, "x", r.uniform(1.2, 1.8), d);
            s += ',';
            num(s, "wafer_radius_cm", r.uniform(6.0, 10.0), d);
            s += ",\"yield\":{";
            text(s, "model", model.c_str());
            if (model == "reference") {
                s += ',';
                num(s, "y0", r.uniform(0.5, 0.9), d);
            } else if (model == "scaled") {
                s += ',';
                num(s, "d", r.uniform(1.0, 2.5), d);
            } else {
                s += ',';
                num(s, "fixed", r.uniform(0.3, 1.0), d);
            }
            s += "}}";
            break;
        }
        case 1:
            s += "\"gross_die\",";
            num(s, "wafer_radius_cm", r.uniform(5.0, 15.0), d);
            s += ',';
            num(s, "die_width_mm", r.uniform(3.0, 25.0), d);
            s += ',';
            num(s, "die_height_mm", r.uniform(3.0, 25.0), d);
            s += ',';
            text(s, "method", pick(r, kGrossDieMethods));
            break;
        case 2:
            s += "\"yield\",";
            yield_params(s, r, pick(r, kYieldModels), d);
            break;
        case 3:
            s += "\"scenario1\",";
            num(s, "lambda_um", r.uniform(0.25, 1.5), d);
            s += ',';
            num(s, "c0_usd", r.uniform(300.0, 800.0), d);
            s += ',';
            num(s, "x", r.uniform(1.1, 1.5), d);
            s += ',';
            num(s, "design_density", r.uniform(20.0, 40.0), d);
            break;
        case 4:
            s += "\"scenario2\",";
            num(s, "lambda_um", r.uniform(0.3, 1.5), d);
            s += ',';
            num(s, "c0_usd", r.uniform(300.0, 800.0), d);
            s += ',';
            num(s, "x", r.uniform(1.5, 2.0), d);
            s += ',';
            num(s, "design_density", r.uniform(150.0, 250.0), d);
            s += ',';
            num(s, "y0", r.uniform(0.5, 0.9), d);
            break;
        case 5:
            s += "\"chiplet\",";
            integer(s, "chiplets", 1 + static_cast<long long>(r.below(8)));
            s += ',';
            chiplet_params(s, r, d);
            break;
        default:
            s += "\"table3\",";
            integer(s, "row", static_cast<long long>(r.below(18)));
            break;
    }
    s += "}\n";
    return s;
}

/// A sweep's bounds, kept so a later request can refine the same grid.
struct sweep_spec {
    std::string head;  ///< `{"op":"sweep","target":{...},"param":"..."`
    double from = 0;
    double to = 0;
    int count = 0;
};

std::string sweep_line(const sweep_spec& sp, int count) {
    std::string s = sp.head;
    s += ',';
    num(s, "from", sp.from, 17);
    s += ',';
    num(s, "to", sp.to, 17);
    s += ',';
    integer(s, "count", count);
    s += "}\n";
    return s;
}

sweep_spec new_sweep(rng& r) {
    constexpr int d = 9;
    sweep_spec sp;
    std::string& s = sp.head;
    s = "{\"op\":\"sweep\",\"target\":{\"op\":";
    const char* param = "lambda_um";
    double lo = 0;
    double hi = 0;
    switch (r.below(3)) {
        case 0:
            s += "\"scenario1\",";
            num(s, "c0_usd", r.uniform(300.0, 800.0), d);
            s += ',';
            num(s, "x", r.uniform(1.1, 1.5), d);
            s += ',';
            num(s, "design_density", r.uniform(20.0, 40.0), d);
            lo = 0.25;
            hi = 1.5;
            break;
        case 1:
            s += "\"scenario2\",";
            num(s, "c0_usd", r.uniform(300.0, 800.0), d);
            s += ',';
            num(s, "x", r.uniform(1.5, 2.0), d);
            s += ',';
            num(s, "design_density", r.uniform(150.0, 250.0), d);
            s += ',';
            num(s, "y0", r.uniform(0.5, 0.9), d);
            lo = 0.3;
            hi = 1.5;
            break;
        default: {
            const char* model = pick(r, kYieldModels);
            s += "\"yield\",";
            yield_params(s, r, model, d);
            param = "die_area_cm2";
            lo = 0.05;
            hi = 4.0;
            break;
        }
    }
    s += "},";
    text(s, "param", param);
    const double a = r.uniform(lo, hi);
    const double b = r.uniform(lo, hi);
    sp.from = a < b ? a : b;
    sp.to = a < b ? b : a;
    if (sp.to - sp.from < 0.05) {
        sp.to = sp.from + 0.05;
    }
    sp.count = 200 + static_cast<int>(r.below(101));
    return sp;
}

std::string explore_line(rng& r, std::uint32_t& cells) {
    constexpr int d = 9;
    constexpr int count = 64;
    std::string s = "{\"op\":\"partition_explore\",\"splits\":\"1,2,4,8\",";
    chiplet_params(s, r, d);
    s += ',';
    num(s, "area_from_mm2", r.uniform(40.0, 200.0), d);
    s += ',';
    num(s, "area_to_mm2", r.uniform(600.0, 1200.0), d);
    s += ',';
    integer(s, "count", count);
    s += "}\n";
    cells = 4 * count;
    return s;
}

std::string mc_line(rng& r, std::uint32_t& dies) {
    dies = 20000 + static_cast<std::uint32_t>(r.below(20001));
    std::string s = "{\"op\":\"mc_yield\",";
    integer(s, "dies", dies);
    s += ',';
    num(s, "defects_per_um2", r.uniform(5e-5, 2e-4), 9);
    s += ',';
    num(s, "line_spacing_um", r.uniform(0.8, 1.6), 9);
    s += ',';
    integer(s, "seed", static_cast<long long>(r.next() >> 12));
    s += "}\n";
    return s;
}

class builder {
public:
    explicit builder(workload& w) : w_{w} {}

    /// Adds `line` unless its bytes were seen before; returns its index
    /// or -1 for a repeat.
    std::int64_t add(std::string line, const line_info& info = {}) {
        if (!seen_.insert(std::hash<std::string>{}(line) ^ line.size())
                 .second) {
            return -1;
        }
        w_.lines.push_back(std::move(line));
        w_.info.push_back(info);
        return static_cast<std::int64_t>(w_.lines.size() - 1);
    }

    /// `n` unique cold point lines appended to `seq`.
    void cold_points(rng& r, std::size_t n, std::vector<std::uint32_t>& seq) {
        while (n > 0) {
            const std::int64_t i = add(point_line(r, 9, false));
            if (i >= 0) {
                seq.push_back(static_cast<std::uint32_t>(i));
                --n;
            }
        }
    }

    /// `n` unique grid requests appended to `seq`: half sweeps (of which
    /// the `overlap` share refine a recent sweep of the same call), a
    /// quarter partition_explore grids, a quarter mc_yield runs.  A line
    /// that repeats an earlier one is skipped.
    void grid(rng& r, std::size_t n, double overlap,
              std::vector<std::uint32_t>& seq) {
        std::vector<std::pair<sweep_spec, std::uint32_t>> sweeps;
        // The kinds take turns (sweep, sweep, explore, mc_yield), so every
        // slice has the same mix and a round's CPU per request does not
        // follow how many Monte-Carlo runs it happened to draw.
        for (std::uint64_t turn = 0; n > 0; ++turn) {
            line_info info;
            std::string line;
            const std::uint64_t kind = turn % 4;
            if (kind < 2) {
                const bool refine = sweeps.size() > kParentMin && r.uniform() < overlap;
                if (refine) {
                    const std::size_t back =
                        kParentMin + r.below(std::min(kParentSpan, sweeps.size() - kParentMin));
                    const auto& [parent, parent_line] = sweeps[sweeps.size() - back];
                    const int count = 2 * parent.count - 1;
                    line = sweep_line(parent, count);
                    info.sweep_lanes = static_cast<std::uint32_t>(count);
                    info.cached_lanes = static_cast<std::uint32_t>(parent.count);
                    info.parent = static_cast<std::int32_t>(parent_line);
                } else {
                    sweep_spec sp = new_sweep(r);
                    line = sweep_line(sp, sp.count);
                    info.sweep_lanes = static_cast<std::uint32_t>(sp.count);
                    const std::int64_t i = add(line, info);
                    if (i >= 0) {
                        sweeps.emplace_back(std::move(sp),
                                            static_cast<std::uint32_t>(i));
                        seq.push_back(static_cast<std::uint32_t>(i));
                        --n;
                    }
                    continue;
                }
            } else if (kind == 2) {
                line = explore_line(r, info.explore_cells);
            } else {
                line = mc_line(r, info.dies);
            }
            const std::int64_t i = add(std::move(line), info);
            if (i >= 0) {
                seq.push_back(static_cast<std::uint32_t>(i));
                --n;
            }
        }
    }

private:
    workload& w_;
    std::unordered_set<std::size_t> seen_;
};

}  // namespace

bool parse_workload(std::string_view name, workload_kind& out) {
    for (const workload_kind k : {workload_kind::warm_point,
                                  workload_kind::cold_point,
                                  workload_kind::grid_explore}) {
        if (name == workload_name(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char* workload_name(workload_kind k) {
    switch (k) {
        case workload_kind::warm_point: return "warm_point";
        case workload_kind::cold_point: return "cold_point";
        case workload_kind::grid_explore: return "grid_explore";
    }
    return "?";
}

workload generate(workload_kind kind, std::uint64_t seed,
                  const workload_knobs& knobs, const workload_sizes& sizes) {
    workload w;
    w.kind = kind;
    w.slices = std::max<std::size_t>(1, sizes.slices);
    builder b{w};
    switch (kind) {
        case workload_kind::warm_point: {
            // Four significant digits make a finite parameter lattice;
            // repeats are skipped until the working set is full.
            rng r = stream(seed, kWorkingSet);
            while (w.lines.size() < kWarmKeys) {
                b.add(point_line(r, 4, true));
            }
            for (std::uint32_t i = 0; i < kWarmKeys; ++i) {
                w.warmup.push_back(i);
            }
            rng ro = stream(seed, kOpen);
            for (std::size_t i = 0; i < sizes.open * sizes.slices; ++i) {
                w.open.push_back(static_cast<std::uint32_t>(ro.below(kWarmKeys)));
            }
            rng rc = stream(seed, kClosed);
            for (std::size_t i = 0; i < sizes.closed * sizes.slices; ++i) {
                w.closed.push_back(static_cast<std::uint32_t>(rc.below(kWarmKeys)));
            }
            break;
        }
        case workload_kind::cold_point: {
            rng rw = stream(seed, kWarmup);
            b.cold_points(rw, kColdWarmup, w.warmup);
            rng ro = stream(seed, kOpen);
            b.cold_points(ro, sizes.open * sizes.slices, w.open);
            rng rc = stream(seed, kClosed);
            b.cold_points(rc, sizes.closed * sizes.slices, w.closed);
            break;
        }
        case workload_kind::grid_explore: {
            rng rw = stream(seed, kWarmup);
            b.grid(rw, kGridWarmup, knobs.overlap, w.warmup);
            rng ro = stream(seed, kOpen);
            rng rc = stream(seed, kClosed);
            for (std::size_t k = 0; k < sizes.slices; ++k) {
                b.grid(ro, sizes.open, knobs.overlap, w.open);
                b.grid(rc, sizes.closed, knobs.overlap, w.closed);
            }
            break;
        }
    }
    return w;
}

void drop_rejected(workload& w, const std::vector<bool>& ok) {
    for (std::size_t i = 0; i < w.info.size(); ++i) {
        const std::int32_t p = w.info[i].parent;
        if (ok[i] && p >= 0 && !ok[static_cast<std::size_t>(p)]) {
            w.info[i].cached_lanes = 0;  // its parent never reaches the cache
        }
    }
    const auto keep = [&](std::vector<std::uint32_t>& seq, std::size_t slices) {
        const std::size_t len = seq.size() / slices;
        std::vector<std::vector<std::uint32_t>> parts(slices);
        std::size_t shortest = len;
        for (std::size_t k = 0; k < slices; ++k) {
            for (std::size_t j = k * len; j < (k + 1) * len; ++j) {
                if (ok[seq[j]]) {
                    parts[k].push_back(seq[j]);
                }
            }
            shortest = std::min(shortest, parts[k].size());
        }
        seq.clear();
        for (const auto& part : parts) {
            seq.insert(seq.end(), part.begin(), part.begin() + static_cast<std::ptrdiff_t>(shortest));
        }
    };
    keep(w.warmup, 1);
    keep(w.open, w.slices);
    keep(w.closed, w.slices);
    for (const bool b : ok) {
        w.rejected += b ? 0 : 1;
    }
}

workload_properties properties(const workload& w) {
    workload_properties p;
    p.distinct_keys = static_cast<double>(w.lines.size() - w.rejected);
    p.expected_hit_share = w.kind == workload_kind::warm_point ? 1.0 : 0.0;
    double requests = 0;
    double lanes = 0;
    double dies = 0;
    double mc = 0;
    for (const auto* seq : {&w.open, &w.closed}) {
        for (const std::uint32_t i : *seq) {
            const line_info& li = w.info[i];
            requests += 1;
            lanes += li.sweep_lanes + li.explore_cells;
            dies += li.dies;
            mc += li.dies > 0 ? 1 : 0;
        }
    }
    p.lanes_per_req = requests > 0 ? lanes / requests : 0.0;
    p.dies_per_req = mc > 0 ? dies / mc : 0.0;
    return p;
}

}  // namespace silibench
