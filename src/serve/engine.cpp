#include "serve/engine.hpp"

#include "chiplet/batch.hpp"
#include "chiplet/model.hpp"
#include "core/cost_model.hpp"
#include "cost/batch.hpp"
#include "exec/arena.hpp"
#include "obs/trace.hpp"
#include "core/scenario.hpp"
#include "core/table3.hpp"
#include "exec/thread_pool.hpp"
#include "geometry/gross_die.hpp"
#include "opt/partition.hpp"
#include "serve/faults.hpp"
#include "serve/json_arena.hpp"
#include "serve/request_fast.hpp"
#include "simd/dispatch.hpp"
#include "yield/batch.hpp"
#include "yield/models.hpp"
#include "yield/monte_carlo.hpp"
#include "yield/scaled.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

namespace silicon::serve {

namespace {

// ---------------------------------------------------------------------------
// The grain (DESIGN.md §7): estimated single-core cost, in ns, of the
// units of work the engine hands to exec::parallel_for, taken from the
// per-layer timings of the benchmark's traced runs.  They only decide
// whether a call wakes the pool (exec::fanout_threshold_ns); no byte of
// output depends on them.
// ---------------------------------------------------------------------------

constexpr double parse_line_ns = 1'500;   ///< fast parse + canonical key
constexpr double point_line_ns = 2'000;   ///< probe + splice, or a closed-form miss
constexpr double lane_ns = 500;           ///< a whole grid lane, for a line estimate
constexpr double key_lane_ns = 120;       ///< bind + templated key + hash of one lane
constexpr double kernel_lane_ns = 65;     ///< one SoA sweep-kernel lane
constexpr double cell_lane_ns = 500;      ///< one chiplet-kernel cell
constexpr double scalar_lane_ns = 3'000;  ///< evaluate + write one scalar lane
constexpr double mc_die_ns = 22;          ///< one Monte-Carlo die

double mc_dies_ns(const request& r) {
    return std::get<mc_yield_request>(r.payload).dies * mc_die_ns;
}

/// A null lane, or a result with no primary metric (printed as null).
constexpr double null_lane = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Result writers: each appends one result object (or array) to `out` in
// the json::dump format — compact, members in a fixed order, numbers via
// format_number_into (non-finite prints null), strings via
// write_string_into — without building a json::value.
// ---------------------------------------------------------------------------

/// Appends `prefix` (the member's separator, quoted name and colon,
/// e.g. `,"yield":`) and then `v`.
void number_member(std::string_view prefix, double v, std::string& out) {
    out += prefix;
    json::format_number_into(v, out);
}

/// Appends `prefix` and then `s` as a JSON string.
void string_member(std::string_view prefix, std::string_view s,
                   std::string& out) {
    out += prefix;
    json::write_string_into(out, s);
}

/// Grid values or lane metrics as a JSON array; a NaN (null) lane
/// prints as null.
void write_lanes(const std::vector<double>& v, std::string& out) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        json::format_number_into(v[i], out);
    }
    out += ']';
}

/// The scaled_poisson and reference yield results: the yield, then the
/// model's defect density under `density_name`.
void write_density_yield_result(std::string_view model, double y,
                                std::string_view density_name,
                                double density, std::string& out) {
    string_member("{\"model\":", model, out);
    number_member(",\"yield\":", y, out);
    out += ",\"";
    out += density_name;
    out += "\":";
    json::format_number_into(density, out);
    out += '}';
}

// ---------------------------------------------------------------------------
// Endpoint evaluators: typed request -> result bytes.  Each routes into
// the library exactly as a direct caller would, appends the result
// object to `out` and returns the endpoint's primary metric.  Invalid or
// infeasible inputs surface as the library's own exceptions (thrown
// before a byte is written) and become error responses upstream.
// ---------------------------------------------------------------------------

geometry::gross_die_method method_from_name(std::string_view name) {
    using geometry::gross_die_method;
    constexpr std::pair<std::string_view, gross_die_method> methods[] = {
        {"maly_rows", gross_die_method::maly_rows},
        {"maly_rows_best_orient", gross_die_method::maly_rows_best_orient},
        {"area_ratio", gross_die_method::area_ratio},
        {"circumference", gross_die_method::circumference},
        {"ferris_prabhu", gross_die_method::ferris_prabhu},
        {"exact", gross_die_method::exact},
    };
    for (const auto& [method_name, method] : methods) {
        if (method_name == name) {
            return method;
        }
    }
    throw request_error("bad_param", "unknown gross-die method '" +
                                         std::string{name} + "'");
}

core::process_spec build_process(const process_params& p) {
    core::yield_spec yield{probability{1.0}};
    switch (p.yield.model) {
        case yield_spec_params::kind::reference:
            yield = yield::reference_die_yield{
                probability{p.yield.y0},
                square_centimeters{p.yield.a0_cm2}};
            break;
        case yield_spec_params::kind::scaled:
            yield = yield::scaled_poisson_model{p.yield.d, p.yield.p};
            break;
        case yield_spec_params::kind::fixed:
            yield = probability{p.yield.fixed};
            break;
    }
    return core::process_spec{
        cost::wafer_cost_model{dollars{p.c0_usd}, p.x,
                               microns{p.generation_step_um}},
        geometry::wafer{centimeters{p.wafer_radius_cm},
                        centimeters{p.edge_exclusion_cm}},
        std::move(yield),
        method_from_name(p.gross_die_method),
    };
}

double cost_tr_into(const cost_tr_request& q, std::string& out) {
    const core::cost_model model{build_process(q.process)};

    core::product_spec product;
    product.name = q.product.name;
    product.transistors = q.product.transistors;
    product.design_density = q.product.design_density;
    product.feature_size = microns{q.product.feature_size_um};
    product.die_aspect_ratio = q.product.die_aspect_ratio;

    core::economics_spec economics;
    economics.overhead = dollars{q.economics.overhead_usd};
    economics.volume_wafers = q.economics.volume_wafers;

    const core::cost_breakdown b = model.evaluate(product, economics);
    string_member("{\"product\":", b.product_name, out);
    number_member(",\"feature_size_um\":", b.feature_size.value(), out);
    number_member(",\"die_area_mm2\":", b.die_area.value(), out);
    number_member(",\"gross_dies_per_wafer\":",
                  static_cast<double>(b.gross_dies_per_wafer), out);
    number_member(",\"yield\":", b.yield.value(), out);
    number_member(",\"good_dies_per_wafer\":", b.good_dies_per_wafer, out);
    number_member(",\"wafer_cost_usd\":", b.wafer_cost.value(), out);
    number_member(",\"cost_per_good_die_usd\":", b.cost_per_good_die.value(),
                  out);
    number_member(",\"cost_per_transistor_usd\":",
                  b.cost_per_transistor.value(), out);
    number_member(",\"cost_per_transistor_micro_usd\":",
                  b.cost_per_transistor_micro_dollars(), out);
    out += '}';
    return b.cost_per_transistor.value();
}

double gross_die_into(const gross_die_request& q, std::string& out) {
    const geometry::wafer w{centimeters{q.wafer_radius_cm},
                            centimeters{q.edge_exclusion_cm}};
    const geometry::die d{millimeters{q.die_width_mm},
                          millimeters{q.die_height_mm}};
    const auto count = static_cast<double>(geometry::gross_dies(
        w, d, method_from_name(q.method), millimeters{q.scribe_mm}));
    number_member("{\"count\":", count, out);
    string_member(",\"method\":", q.method, out);
    number_member(",\"die_area_mm2\":", d.area().value(), out);
    number_member(",\"wafer_area_cm2\":", w.area().value(), out);
    out += '}';
    return count;
}

double yield_into(const yield_request& q, std::string& out) {
    if (q.model == "scaled_poisson") {
        const yield::scaled_poisson_model model{q.d, q.p};
        const double y = model
                             .yield(square_centimeters{q.die_area_cm2},
                                    microns{q.lambda_um})
                             .value();
        write_density_yield_result(
            q.model, y, "effective_defects_per_cm2",
            model.effective_defect_density(microns{q.lambda_um}), out);
        return y;
    }
    if (q.model == "reference") {
        const yield::reference_die_yield model{probability{q.y0},
                                               square_centimeters{q.a0_cm2}};
        const double y =
            model.yield(square_centimeters{q.die_area_cm2}).value();
        write_density_yield_result(q.model, y, "equivalent_defects_per_cm2",
                                   model.equivalent_defect_density(), out);
        return y;
    }

    const double faults = q.expected_faults >= 0.0
                              ? q.expected_faults
                              : q.die_area_cm2 * q.defects_per_cm2;
    if (!(faults >= 0.0) || !std::isfinite(faults)) {
        throw request_error("bad_param",
                            "yield: expected fault count must be finite "
                            "and non-negative");
    }
    probability y{0.0};
    if (q.model == "poisson") {
        y = yield::poisson_model{}.yield(faults);
    } else if (q.model == "murphy") {
        y = yield::murphy_model{}.yield(faults);
    } else if (q.model == "seeds") {
        y = yield::seeds_model{}.yield(faults);
    } else if (q.model == "bose_einstein") {
        y = yield::bose_einstein_model{q.critical_steps}.yield(faults);
    } else if (q.model == "neg_binomial") {
        y = yield::negative_binomial_model{q.alpha}.yield(faults);
    } else {
        throw request_error("bad_param",
                            "yield: unknown model '" + q.model + "'");
    }
    string_member("{\"model\":", q.model, out);
    number_member(",\"expected_faults\":", faults, out);
    number_member(",\"yield\":", y.value(), out);
    out += '}';
    return y.value();
}

double scenario1_into(const scenario1_request& q, std::string& out) {
    core::scenario1 s;
    s.wafer_cost = cost::wafer_cost_model{dollars{q.c0_usd}, q.x};
    s.wafer = geometry::wafer{centimeters{q.wafer_radius_cm}};
    s.design_density = q.design_density;
    const double ctr = s.cost_per_transistor(microns{q.lambda_um}).value();
    number_member("{\"cost_per_transistor_usd\":", ctr, out);
    number_member(",\"cost_per_transistor_micro_usd\":", ctr * 1e6, out);
    out += '}';
    return ctr;
}

double scenario2_into(const scenario2_request& q, std::string& out) {
    core::scenario2 s;
    s.wafer_cost = cost::wafer_cost_model{dollars{q.c0_usd}, q.x};
    s.wafer = geometry::wafer{centimeters{q.wafer_radius_cm}};
    s.design_density = q.design_density;
    s.yield = yield::reference_die_yield{probability{q.y0}};
    const microns lambda{q.lambda_um};
    const double ctr = s.cost_per_transistor(lambda).value();
    number_member("{\"cost_per_transistor_usd\":", ctr, out);
    number_member(",\"cost_per_transistor_micro_usd\":", ctr * 1e6, out);
    number_member(",\"die_area_cm2\":", s.die_area(lambda).value(), out);
    number_member(",\"transistors\":", s.transistors(lambda), out);
    out += '}';
    return ctr;
}

void write_comparison(const core::table3_comparison& c, std::string& out) {
    number_member("{\"row\":", c.row.index, out);
    string_member(",\"ic_type\":", c.row.ic_type, out);
    number_member(",\"printed_ctr_micro\":", c.row.printed_ctr_micro, out);
    number_member(",\"computed_ctr_micro\":", c.computed_ctr_micro, out);
    number_member(",\"ratio\":", c.ratio, out);
    out += ",\"reconstructed\":";
    out += c.row.reconstructed ? "true" : "false";
    out += '}';
}

/// Table 3 and its memory/logic separation read no request input:
/// computed once per process, so a table3 miss allocates nothing.
struct table3_results {
    std::vector<core::table3_comparison> rows;
    double separation = 0.0;
};

const table3_results& table3_once() {
    static const table3_results results{core::reproduce_table3(),
                                        core::memory_logic_separation()};
    return results;
}

void table3_into(const table3_request& q, std::string& out) {
    const std::vector<core::table3_comparison>& all = table3_once().rows;
    if (q.row != 0) {
        for (const core::table3_comparison& c : all) {
            if (c.row.index == q.row) {
                write_comparison(c, out);
                return;
            }
        }
        throw request_error("bad_param", "table3: no row " +
                                             std::to_string(q.row));
    }
    const double separation = table3_once().separation;
    out += "{\"rows\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        write_comparison(all[i], out);
    }
    number_member("],\"memory_logic_separation\":", separation, out);
    out += '}';
}

double mc_yield_into(const mc_yield_request& q, unsigned parallelism,
                     const exec::cancel_token* cancel, std::string& out) {
    yield::wire_array_layout layout;
    layout.line_width = q.line_width_um;
    layout.line_spacing = q.line_spacing_um;
    layout.line_length = q.line_length_um;
    layout.line_count = q.line_count;

    const yield::defect_size_distribution sizes{q.defect_r0_um, q.defect_p,
                                                q.defect_q};

    yield::monte_carlo_config config;
    config.dies = static_cast<std::size_t>(q.dies);
    config.defects_per_um2 = q.defects_per_um2;
    config.extra_material_fraction = q.extra_material_fraction;
    config.seed = q.seed;
    config.parallelism = parallelism;
    config.cancel = cancel;

    const yield::monte_carlo_result r =
        yield::simulate_layout_yield(layout, sizes, config);
    number_member("{\"dies\":", static_cast<double>(r.dies), out);
    number_member(",\"good_dies\":", static_cast<double>(r.good_dies), out);
    number_member(",\"defects_thrown\":",
                  static_cast<double>(r.defects_thrown), out);
    number_member(",\"shorts\":", static_cast<double>(r.shorts), out);
    number_member(",\"opens\":", static_cast<double>(r.opens), out);
    number_member(",\"yield\":", r.yield, out);
    number_member(",\"std_error\":", r.std_error, out);
    number_member(",\"observed_faults_per_die\":",
                  r.observed_faults_per_die(), out);
    out += '}';
    return r.yield;
}

chiplet::substrate_kind substrate_from_string(const std::string& name) {
    if (name == "rdl") {
        return chiplet::substrate_kind::rdl;
    }
    if (name == "interposer") {
        return chiplet::substrate_kind::interposer;
    }
    return chiplet::substrate_kind::organic;  // parse validated the enum
}

chiplet::chiplet_spec spec_from(const chiplet_request& q) {
    chiplet::chiplet_spec s;
    s.logic_area_mm2 = q.logic_area_mm2;
    s.memory_area_mm2 = q.memory_area_mm2;
    s.io_area_mm2 = q.io_area_mm2;
    s.chiplets = q.chiplets;
    s.d2d_area_mm2 = q.d2d_area_mm2;
    s.lambda_um = q.lambda_um;
    s.c0_usd = q.c0_usd;
    s.x = q.x;
    s.generation_step_um = q.generation_step_um;
    s.wafer_radius_cm = q.wafer_radius_cm;
    s.edge_exclusion_cm = q.edge_exclusion_cm;
    s.defects_per_cm2 = q.defects_per_cm2;
    s.memory_defect_factor = q.memory_defect_factor;
    s.io_defect_factor = q.io_defect_factor;
    s.clustering_alpha = q.clustering_alpha;
    s.test_coverage = q.test_coverage;
    s.tester_rate_per_hour = q.tester_rate_per_hour;
    s.test_seconds_fixed = q.test_seconds_fixed;
    s.test_seconds_per_cm2 = q.test_seconds_per_cm2;
    s.substrate = substrate_from_string(q.substrate);
    s.substrate_cost_per_cm2 = q.substrate_cost_per_cm2;
    s.rdl_cost_per_cm2 = q.rdl_cost_per_cm2;
    s.rdl_defects_per_cm2 = q.rdl_defects_per_cm2;
    s.interposer_cost_per_cm2 = q.interposer_cost_per_cm2;
    s.interposer_defects_per_cm2 = q.interposer_defects_per_cm2;
    s.package_area_factor = q.package_area_factor;
    s.bond_yield = q.bond_yield;
    s.bonding_cost_per_chiplet = q.bonding_cost_per_chiplet;
    return s;
}

double chiplet_into(const chiplet_request& q, std::string& out) {
    const chiplet::chiplet_breakdown b =
        chiplet::evaluate_chiplet(spec_from(q));
    number_member("{\"chiplets\":", static_cast<double>(b.chiplets), out);
    number_member(",\"total_area_mm2\":", b.total_area_mm2, out);
    number_member(",\"chiplet_area_mm2\":", b.chiplet_area_mm2, out);
    number_member(",\"die_yield\":", b.die_yield, out);
    number_member(",\"gross_dies_per_wafer\":", b.gross_dies_per_wafer, out);
    number_member(",\"wafer_cost_usd\":", b.wafer_cost_usd, out);
    number_member(",\"die_cost_usd\":", b.die_cost_usd, out);
    number_member(",\"test_cost_per_die_usd\":", b.test_cost_per_die_usd,
                  out);
    number_member(",\"defect_level\":", b.defect_level, out);
    string_member(",\"substrate\":", q.substrate, out);
    number_member(",\"package_area_cm2\":", b.package_area_cm2, out);
    number_member(",\"substrate_cost_usd\":", b.substrate_cost_usd, out);
    number_member(",\"substrate_yield\":", b.substrate_yield, out);
    number_member(",\"assembly_yield\":", b.assembly_yield, out);
    number_member(",\"module_yield\":", b.module_yield, out);
    number_member(",\"bonding_cost_usd\":", b.bonding_cost_usd, out);
    number_member(",\"cost_per_system_usd\":", b.cost_per_system_usd, out);
    number_member(",\"cost_per_good_system_usd\":",
                  b.cost_per_good_system_usd, out);
    out += '}';
    return b.cost_per_good_system_usd;
}

/// The split counts of a validated partition_explore `splits` list
/// ("1,2,4" -> {1, 2, 4}).  Parse already enforced the grammar, so
/// this cannot fail.
std::vector<int> parse_splits(const std::string& splits) {
    std::vector<int> out;
    int value = 0;
    for (const char c : splits) {
        if (c == ',') {
            out.push_back(value);
            value = 0;
        } else {
            value = value * 10 + (c - '0');
        }
    }
    out.push_back(value);
    return out;
}

/// Grid cells a partition_explore request evaluates (splits x points);
/// the structural budget check charges against max_sweep_points.
std::size_t explore_cells(const partition_explore_request& q) {
    return static_cast<std::size_t>(q.count) * parse_splits(q.splits).size();
}

/// Grid points on [from, to], endpoints inclusive, linear or geometric.
/// Shared by sweep and partition_explore so both produce bit-identical
/// grids for the same bounds.
std::vector<double> grid_points(double from, double to, int count,
                                bool log_scale) {
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(count));
    if (count == 1) {
        xs.push_back(from);
        return xs;
    }
    for (int i = 0; i < count; ++i) {
        const double t = static_cast<double>(i) /
                         static_cast<double>(count - 1);
        if (log_scale) {
            xs.push_back(from * std::exp(t * std::log(to / from)));
        } else {
            xs.push_back(from + t * (to - from));
        }
    }
    return xs;
}

std::string error_code_for(const std::exception& e) {
    if (const auto* schema = dynamic_cast<const request_error*>(&e)) {
        return schema->code();
    }
    if (dynamic_cast<const exec::cancelled_error*>(&e) != nullptr) {
        // Before the generic buckets: cancelled_error is a
        // runtime_error, and its fixed what() keeps the envelope
        // byte-deterministic.
        return "deadline_exceeded";
    }
    if (dynamic_cast<const std::domain_error*>(&e) != nullptr) {
        return "domain_error";
    }
    if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
        return "bad_param";
    }
    return "internal_error";
}

std::string error_body(std::string_view code, std::string_view message) {
    std::string body;
    string_member("{\"code\":", code, body);
    string_member(",\"message\":", message, body);
    body += '}';
    return body;
}

/// Assemble a response line into a reused buffer.  The envelope is built
/// by concatenation so a cache-hit result splices in verbatim and the
/// bytes are identical to a fresh evaluation's.  The `id` and
/// `trace_id` (nullptr = none) splice straight from the arena document
/// views; the trace echoes right after the id, so envelopes without one
/// are byte-identical to the pre-trace format.
void envelope_into(const json::aview* id, const json::aview* trace, bool ok,
                   std::string_view body_key, std::string_view body,
                   std::string& out) {
    out += '{';
    if (id != nullptr) {
        out += "\"id\":";
        json::dump_into(*id, out);
        out += ',';
    }
    if (trace != nullptr) {
        out += "\"trace_id\":";
        json::write_string_into(out, trace->string);
        out += ',';
    }
    out += "\"ok\":";
    out += ok ? "true" : "false";
    out += ",\"";
    out += body_key;
    out += "\":";
    out += body;
    out += '}';
}

/// Best-effort `id` rendering for a flight record: strings verbatim,
/// numbers via the JSON number writer (no allocation — the hot path
/// fills records too), everything else elided (records are fixed-size;
/// a composite id would truncate arbitrarily).  An id past DBL_MAX
/// parses as an infinity, written "inf" or "-inf" as std::to_chars does.
void flight_number_field(char (&dst)[32], double v) noexcept {
    if (!std::isfinite(v)) {
        obs::assign_field(dst, std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf");
        return;
    }
    char buf[json::number_buffer_chars];
    const char* const end = json::format_number_to(buf, v);
    obs::assign_field(
        dst, std::string_view{buf, static_cast<std::size_t>(end - buf)});
}

void flight_id_field(char (&dst)[32], const json::aview* id) {
    if (id == nullptr) {
        return;
    }
    if (id->is_string()) {
        obs::assign_field(dst, id->string);
    } else if (id->is_number()) {
        flight_number_field(dst, id->number);
    }
}

std::uint32_t ns_to_us_u32(std::uint64_t ns) noexcept {
    const std::uint64_t us = ns / 1000;
    return us > UINT32_MAX ? UINT32_MAX
                           : static_cast<std::uint32_t>(us);
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Anomaly trigger set (DESIGN.md §14): transient failures worth a
/// flight dump.  deadline_exceeded and overloaded are self-describing;
/// internal_error is how an injected (or real) allocation failure
/// surfaces, so "fault fired" lands here.
bool anomalous_code(std::string_view code) noexcept {
    return code == "deadline_exceeded" || code == "overloaded" ||
           code == "internal_error";
}

/// Deadline instant for a request that started at `start`.  The budget
/// is clamped far below the time_point's representable range (~31
/// years) so arithmetic never overflows; a clamped deadline never
/// expires in practice, which is the right reading of an absurd value.
std::chrono::steady_clock::time_point deadline_from(
    std::chrono::steady_clock::time_point start, std::uint64_t budget_ms) {
    constexpr std::uint64_t max_ms = 1'000'000'000'000;
    if (budget_ms > max_ms) {
        budget_ms = max_ms;
    }
    return start +
           std::chrono::milliseconds{static_cast<std::int64_t>(budget_ms)};
}

constexpr std::size_t no_rep = std::numeric_limits<std::size_t>::max();

}  // namespace

/// A request line after its one parse (`engine::parse_line`), with views
/// into the arena it was parsed into; a batch line adds its cost
/// estimate and dedup role.
struct parsed_line {
    fast_parse_state parsed;
    bool ok = false;         ///< parsed and canonicalized
    bool too_large = false;  ///< over max_line_bytes: never parsed
    /// A line that failed its parse: the error, rethrown when it is
    /// served, and what its document shows of its id (any JSON value),
    /// trace_id (strings only) and op (a known name).
    std::exception_ptr error;
    const json::aview* id = nullptr;
    const json::aview* trace = nullptr;
    std::optional<op_code> op;
    std::uint64_t parse_ns = 0;  ///< time spent on the parse
    std::uint64_t arena_bytes = 0;
    std::size_t key_hash = 0;  ///< of the canonical key, when ok
    double cost_ns = point_line_ns;
    std::size_t rep = no_rep;  ///< representative line of a twin
    bool skip = false;  ///< in a rejected segment: never parsed or served
};

namespace {

/// Per-thread line scratch: the parse arena, the arena-view parser, the
/// lone line parsed into that arena and the result body.  Engine
/// instances share it safely — it holds no engine state, only per-line
/// storage that is fully rewritten by each parse.
struct line_state {
    exec::arena arena;
    json::arena_parser parser;
    parsed_line line;
    /// The result body: a hit's bytes copied out of the cache, or a
    /// miss's serialized in place (capacity reused either way).
    std::string cold;
};

line_state& tls_line_state() {
    thread_local line_state state;
    return state;
}

}  // namespace

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

engine::engine(engine_config config)
    : config_{config},
      cache_{config.cache_capacity, config.cache_shards} {}

json::value engine::evaluate(const request& req) {
    std::string out;
    (void)evaluate_into(req, out);
    return json::parse(out);
}

double engine::evaluate_into(const request& req, std::string& out,
                             const exec::cancel_token* cancel) {
    // Structural budget checks (too_large): properties of the request
    // alone, so the same request is rejected identically every time —
    // the deterministic half of the rejection taxonomy.
    const auto too_large = [this](reject_reason reason, const char* what,
                                  std::size_t limit) {
        admission_.note_rejection(reason);
        throw request_error("too_large", what + std::to_string(limit));
    };
    const std::size_t max_points = config_.limits.max_sweep_points;
    const std::size_t max_dies = config_.limits.max_mc_dies;
    if (req.op == op_code::sweep && max_points != 0 &&
        static_cast<std::size_t>(std::get<sweep_request>(req.payload).count) >
            max_points) {
        too_large(reject_reason::sweep_too_large,
                  "sweep: count exceeds max_sweep_points ", max_points);
    }
    if (req.op == op_code::mc_yield && max_dies != 0 &&
        static_cast<std::size_t>(std::get<mc_yield_request>(req.payload).dies) >
            max_dies) {
        too_large(reject_reason::mc_too_large,
                  "mc_yield: dies exceeds max_mc_dies ", max_dies);
    }
    if (req.op == op_code::partition_explore && max_points != 0 &&
        explore_cells(std::get<partition_explore_request>(req.payload)) >
            max_points) {
        too_large(reject_reason::explore_too_large,
                  "partition_explore: grid cells exceed max_sweep_points ",
                  max_points);
    }

    // The metric as the bytes carry it: a non-finite value prints null.
    const auto metric = [](double m) {
        return std::isfinite(m) ? m : null_lane;
    };
    switch (req.op) {
        case op_code::cost_tr:
            return metric(
                cost_tr_into(std::get<cost_tr_request>(req.payload), out));
        case op_code::gross_die:
            return metric(
                gross_die_into(std::get<gross_die_request>(req.payload), out));
        case op_code::yield:
            return metric(
                yield_into(std::get<yield_request>(req.payload), out));
        case op_code::scenario1:
            return metric(
                scenario1_into(std::get<scenario1_request>(req.payload), out));
        case op_code::scenario2:
            return metric(
                scenario2_into(std::get<scenario2_request>(req.payload), out));
        case op_code::table3:
            table3_into(std::get<table3_request>(req.payload), out);
            break;
        case op_code::mc_yield:
            return metric(mc_yield_into(std::get<mc_yield_request>(req.payload),
                                        config_.parallelism, cancel, out));
        case op_code::sweep:
            sweep_into(std::get<sweep_request>(req.payload), cancel, out);
            break;
        case op_code::stats:
            out += json::dump(stats_json());
            break;
        case op_code::chiplet:
            return metric(
                chiplet_into(std::get<chiplet_request>(req.payload), out));
        case op_code::partition_explore:
            partition_explore_into(
                std::get<partition_explore_request>(req.payload), cancel,
                out);
            break;
    }
    return null_lane;
}

namespace {

/// True when a sweep over `param` runs on the SoA batch kernels:
/// scenario #1/#2 and every yield model, swept over a double parameter.
bool has_sweep_kernel(const sweep_request& q, const numeric_param& param) {
    const op_code op = q.target->op;
    return (op == op_code::scenario1 || op == op_code::scenario2 ||
            op == op_code::yield) &&
           param.is_double();
}

/// The SoA sweep kernels (yield/batch.hpp, cost/batch.hpp) over the
/// values `kxs` of the swept parameter: each lane's metric into `out`
/// (NaN where the scalar library throws).  Sub-range kernel calls are
/// bit-exact (batch contract), so any sharding of the lanes at any
/// thread count gives the same values.
void sweep_kernel(const request& tgt, const numeric_param& param,
                  const std::vector<double>& kxs, std::vector<double>& out,
                  unsigned parallelism, bool fm,
                  const exec::cancel_token* cancel) {
    const std::size_t m = kxs.size();
    request tmp = tgt;
    const double* slot = param.ptr(tmp);
    out.assign(m, null_lane);

    // Expand one payload member into a parameter column: the swept
    // member carries the grid, everything else is a constant lane.
    const auto col = [&](const double& member) {
        std::vector<double> v(m, member);
        if (&member == slot) {
            std::copy(kxs.begin(), kxs.end(), v.begin());
        }
        return v;
    };
    const auto shard = [&](auto&& body) {
        exec::parallel_for(
            m, parallelism,
            [&](const exec::shard_range& r) {
                body(r.begin, r.end - r.begin);
            },
            cancel, kernel_lane_ns);
    };

    switch (tmp.op) {
        case op_code::scenario1: {
            const auto& t = std::get<scenario1_request>(tmp.payload);
            const auto lambda = col(t.lambda_um), c0 = col(t.c0_usd),
                       x = col(t.x), r = col(t.wafer_radius_cm),
                       dd = col(t.design_density);
            shard([&](std::size_t b, std::size_t len) {
                cost::batch::scenario_columns cols;
                cols.lambda_um = lambda.data() + b;
                cols.c0_usd = c0.data() + b;
                cols.x = x.data() + b;
                cols.wafer_radius_cm = r.data() + b;
                cols.design_density = dd.data() + b;
                (fm ? cost::batch::scenario1_cost_per_transistor_fast
                    : cost::batch::scenario1_cost_per_transistor)(
                    cols, out.data() + b, len);
            });
            return;
        }
        case op_code::scenario2: {
            const auto& t = std::get<scenario2_request>(tmp.payload);
            const auto lambda = col(t.lambda_um), c0 = col(t.c0_usd),
                       x = col(t.x), r = col(t.wafer_radius_cm),
                       dd = col(t.design_density), y0 = col(t.y0);
            shard([&](std::size_t b, std::size_t len) {
                cost::batch::scenario_columns cols;
                cols.lambda_um = lambda.data() + b;
                cols.c0_usd = c0.data() + b;
                cols.x = x.data() + b;
                cols.wafer_radius_cm = r.data() + b;
                cols.design_density = dd.data() + b;
                cols.y0 = y0.data() + b;
                (fm ? cost::batch::scenario2_cost_per_transistor_fast
                    : cost::batch::scenario2_cost_per_transistor)(
                    cols, out.data() + b, len);
            });
            return;
        }
        case op_code::yield: {
            const auto& t = std::get<yield_request>(tmp.payload);
            if (t.model == "scaled_poisson") {
                const auto area = col(t.die_area_cm2),
                           lambda = col(t.lambda_um), d = col(t.d),
                           p = col(t.p);
                shard([&](std::size_t b, std::size_t len) {
                    (fm ? yield::batch::scaled_poisson_yield_fast
                        : yield::batch::scaled_poisson_yield)(
                        area.data() + b, lambda.data() + b, d.data() + b,
                        p.data() + b, out.data() + b, len);
                });
                return;
            }
            if (t.model == "reference") {
                const auto area = col(t.die_area_cm2), y0 = col(t.y0),
                           a0 = col(t.a0_cm2);
                shard([&](std::size_t b, std::size_t len) {
                    (fm ? yield::batch::reference_yield_fast
                        : yield::batch::reference_yield)(
                        area.data() + b, y0.data() + b, a0.data() + b,
                        out.data() + b, len);
                });
                return;
            }
            // The fault-count models (parse validated the name).
            const auto ef = col(t.expected_faults),
                       area = col(t.die_area_cm2),
                       dpc = col(t.defects_per_cm2);
            const std::vector<double> alpha =
                t.model == "neg_binomial" ? col(t.alpha)
                                          : std::vector<double>{};
            // Serve-level fault derivation (yield_into): the explicit
            // count wins, else area * density, both gated by the
            // finite/non-negative request check.
            std::vector<double> faults(m);
            for (std::size_t i = 0; i < m; ++i) {
                const double f = ef[i] >= 0.0 ? ef[i] : area[i] * dpc[i];
                faults[i] = (!(f >= 0.0) || !std::isfinite(f)) ? null_lane : f;
            }
            shard([&](std::size_t b, std::size_t len) {
                const double* const fb = faults.data() + b;
                if (t.model == "poisson") {
                    (fm ? yield::batch::poisson_yield_fast
                        : yield::batch::poisson_yield)(fb, out.data() + b,
                                                       len);
                } else if (t.model == "murphy") {
                    (fm ? yield::batch::murphy_yield_fast
                        : yield::batch::murphy_yield)(fb, out.data() + b,
                                                      len);
                } else if (t.model == "seeds") {
                    yield::batch::seeds_yield(fb, out.data() + b, len);
                } else if (t.model == "bose_einstein") {
                    (fm ? yield::batch::bose_einstein_yield_fast
                        : yield::batch::bose_einstein_yield)(
                        fb, t.critical_steps, out.data() + b, len);
                } else {
                    (fm ? yield::batch::negative_binomial_yield_fast
                        : yield::batch::negative_binomial_yield)(
                        fb, alpha.data() + b, out.data() + b, len);
                }
            });
            return;
        }
        default:
            return;  // has_sweep_kernel admits no other op
    }
}

/// One thread's lane scratch for eval_lanes: key, probe, result-byte,
/// put and shard-grouping buffers that keep their capacity from grid to
/// grid, so feeding a lane to the cache allocates nothing once they have
/// grown.  One set per thread suffices because eval_lanes never runs
/// inside itself on one thread: every lane is a point request (an op
/// with a primary metric), never a grid, and while this thread waits for
/// its grid's shards the pool's depth rule lets it run only tasks of
/// jobs deeper than the one it is inside (lane and Monte-Carlo shards),
/// never a sibling line that could key a grid of its own into this set
/// (exec/thread_pool.hpp, DESIGN.md §7).
struct lane_scratch {
    /// Grids up to this many lanes reuse the thread's set; a larger one
    /// uses a local set, so no thread holds on to an outsized one.
    static constexpr std::size_t retained_lanes = 1024;

    std::vector<std::string> text;
    std::vector<memo_cache::hashed_key> hashed;  ///< empty text = rejected
    std::vector<std::optional<double>> hits;     ///< the probe's answers
    /// Missing lane j's result bytes, written where it is evaluated;
    /// empty = not cached.
    std::vector<std::string> bytes;
    std::vector<memo_cache::batch_entry> puts;
    memo_cache::batch_order order;

    /// Sizes every per-lane buffer for a grid of `n` lanes.
    void fit(std::size_t n) {
        if (text.size() < n) {
            text.resize(n);
            hashed.resize(n);
            hits.resize(n);
            bytes.resize(n);
        }
    }
};

}  // namespace

std::vector<double> engine::eval_lanes(const std::vector<double>& xs,
                                       const sweep_request& q,
                                       const numeric_param& param,
                                       const exec::cancel_token* cancel) {
    const std::size_t n = xs.size();
    const request& base = *q.target;
    // Lane i is the target bound to xs[i]: a point request, keyed,
    // probed and cached like one whenever the cache is on.
    const bool use_cache = config_.cache_capacity != 0;
    std::vector<double> ys(n, null_lane);

    // 1-2. Key and hash every lane, then probe the cache in one batch; a
    // hit's stored metric is its lane value.  The probe counts a hit but
    // not a miss.  A lane rejected as a point request stays null and is
    // never probed.  Keys come from the grid's key template: the
    // constant text with the lane's swept number spliced in.  They go
    // into this thread's scratch, bound here: the pool tasks below
    // write into it, and a thread_local named inside a task would be
    // the worker's own.
    thread_local lane_scratch t_scratch;
    lane_scratch local_scratch;
    lane_scratch& lanes =
        n > lane_scratch::retained_lanes ? local_scratch : t_scratch;
    std::vector<std::size_t> missing;
    missing.reserve(n);
    if (use_cache) {
        lanes.fit(n);
        const lane_key_template key_template{base, q.param};
        exec::parallel_for(
            n, config_.parallelism,
            [&](const exec::shard_range& r) {
                request lane = base;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                    lanes.hashed[i] = {};
                    try {
                        param.set(lane, xs[i]);
                    } catch (const request_error&) {
                        continue;
                    }
                    std::string& key = lanes.text[i];
                    key.clear();
                    key_template.key_into(lane, key);
                    lanes.hashed[i] = memo_cache::hashed_key::of(key);
                }
            },
            cancel, key_lane_ns);
        cache_.probe_batch({lanes.hashed.data(), n}, {lanes.hits.data(), n},
                           lanes.order);
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!use_cache) {
            missing.push_back(i);
        } else if (lanes.hits[i]) {
            ys[i] = *lanes.hits[i];
        } else if (!lanes.hashed[i].text.empty()) {
            missing.push_back(i);
        }
    }

    // 3-4. Evaluate the missing lanes only, each writing its result bytes
    // into its slot (errors leave it empty), then cache the written
    // lanes, with their metrics, in one batch put.  The put runs when
    // evaluation throws too (a deadline), so the lanes that completed
    // stay cached.
    const std::size_t m = missing.size();
    const std::span<std::string> keep =
        use_cache ? std::span<std::string>{lanes.bytes.data(), m}
                  : std::span<std::string>{};
    for (std::string& bytes : keep) {
        bytes.clear();
    }
    const auto put_kept = [&] {
        try {
            lanes.puts.clear();
            for (std::size_t j = 0; j < keep.size(); ++j) {
                if (!keep[j].empty()) {
                    lanes.puts.push_back(
                        {lanes.hashed[missing[j]], keep[j], ys[missing[j]]});
                }
            }
            cache_.put_batch(lanes.puts, lanes.order);
        } catch (const std::bad_alloc&) {
            // Caching is a side effect: lanes the memory cannot hold stay
            // uncached, and the reply is the same.
        }
    };
    try {
        exec::parallel_for(
            m, config_.parallelism,
            [&](const exec::shard_range& r) {
                request lane = base;
                std::string scratch;
                for (std::size_t j = r.begin; j < r.end; ++j) {
                    std::string& bytes = keep.empty() ? scratch : keep[j];
                    try {
                        param.set(lane, xs[missing[j]]);
                        bytes.clear();
                        ys[missing[j]] = evaluate_into(lane, bytes, cancel);
                    } catch (const std::exception&) {
                        // Infeasible or rejected point: null lane, never
                        // cached.  A cancelled Monte-Carlo lane lands
                        // here too, but the cancellable parallel_for
                        // re-raises after the join, so a deadline always
                        // surfaces as deadline_exceeded, never as nulls.
                        bytes.clear();
                    }
                }
            },
            cancel,
            base.op == op_code::mc_yield ? mc_dies_ns(base) : scalar_lane_ns);
    } catch (...) {
        put_kept();
        throw;
    }
    put_kept();
    return ys;
}

void engine::sweep_into(const sweep_request& q,
                        const exec::cancel_token* cancel, std::string& out) {
    const std::vector<double> xs =
        grid_points(q.from, q.to, q.count, q.scale == "log");
    // The swept path is resolved once; every lane binds by offset.
    const numeric_param param{*q.target, q.param};
    std::vector<double> ys;
    if (has_sweep_kernel(q, param)) {
        sweep_kernel(*q.target, param, xs, ys, config_.parallelism,
                     config_.fast_math, cancel);
    } else {
        ys = eval_lanes(xs, q, param, cancel);
    }
    string_member("{\"target_op\":", to_string(q.target->op), out);
    string_member(",\"param\":", q.param, out);
    string_member(",\"metric\":", primary_metric(q.target->op), out);
    string_member(",\"scale\":", q.scale, out);
    out += ",\"xs\":";
    write_lanes(xs, out);
    out += ",\"ys\":";
    write_lanes(ys, out);
    out += '}';
}

void engine::partition_explore_into(const partition_explore_request& q,
                                    const exec::cancel_token* cancel,
                                    std::string& out) {
    const std::vector<double> xs = grid_points(
        q.area_from_mm2, q.area_to_mm2, q.count, q.scale == "log");
    const std::vector<int> splits = parse_splits(q.splits);
    const chiplet::chiplet_spec base = spec_from(q.base);
    const std::size_t n = xs.size();

    // One row per split (<= 8), every cell on the SoA chiplet kernel:
    // the scalar core per cell (infeasible cells are NaN, never a
    // throw), or under fast_math the vector tail (DESIGN.md §15).
    std::vector<std::vector<double>> cost(splits.size(),
                                          std::vector<double>(n));
    for (std::size_t s = 0; s < splits.size(); ++s) {
        double* const row = cost[s].data();
        exec::parallel_for(
            n, config_.parallelism,
            [&](const exec::shard_range& r) {
                (config_.fast_math ? chiplet::batch::cost_per_good_system_fast
                                   : chiplet::batch::cost_per_good_system)(
                    base, splits[s], xs.data() + r.begin, row + r.begin,
                    r.end - r.begin);
            },
            cancel, cell_lane_ns);
    }

    // Post-processing: per grid point, the cheapest feasible
    // split (ties break to the coarser split, so the monolithic
    // baseline wins exact draws; null where no split is feasible), and
    // the first area where a real multi-die split beats it — the
    // published crossover.
    std::vector<double> best_split(n, null_lane);
    std::size_t crossover = n;  // n = none (null)
    for (std::size_t i = 0; i < n; ++i) {
        int best = 0;
        double best_cost = 0.0;
        for (std::size_t s = 0; s < splits.size(); ++s) {
            const double c = cost[s][i];
            if (std::isnan(c)) {
                continue;
            }
            if (best == 0 || c < best_cost) {
                best = splits[s];
                best_cost = c;
            }
        }
        if (best != 0) {
            best_split[i] = best;
        }
        if (crossover == n && best > 1) {
            crossover = i;
        }
    }

    out += "{\"metric\":\"cost_per_good_system_usd\"";
    string_member(",\"scale\":", q.scale, out);
    out += ",\"splits\":";
    write_lanes(std::vector<double>(splits.begin(), splits.end()), out);
    out += ",\"xs\":";
    write_lanes(xs, out);
    out += ",\"ys\":[";
    for (std::size_t s = 0; s < cost.size(); ++s) {
        if (s != 0) {
            out += ',';
        }
        write_lanes(cost[s], out);
    }
    out += "],\"best_split\":";
    write_lanes(best_split, out);
    out += ",\"crossover_area_mm2\":";
    json::format_number_into(crossover == n ? null_lane : xs[crossover], out);
    out += '}';
}

namespace {

/// Snapshot observability object shared by stats and /statusz.
json::value snapshot_stats_json(const engine::snapshot_stats& s) {
    json::object o;
    o.set("writes", static_cast<double>(s.writes));
    o.set("write_failures", static_cast<double>(s.write_failures));
    o.set("restores", static_cast<double>(s.restores));
    o.set("restore_failures", static_cast<double>(s.restore_failures));
    o.set("restored_entries", static_cast<double>(s.restored_entries));
    o.set("last_entries", static_cast<double>(s.last_entries));
    o.set("last_bytes", static_cast<double>(s.last_bytes));
    o.set("last_write_seconds", s.last_write_seconds);
    o.set("last_restore_seconds", s.last_restore_seconds);
    o.set("age_seconds", s.age_seconds);
    return json::value{std::move(o)};
}

}  // namespace

json::value engine::stats_json() {
    const memo_cache::stats c = cache_.snapshot();
    json::object cache;
    cache.set("hits", static_cast<double>(c.hits));
    cache.set("misses", static_cast<double>(c.misses));
    cache.set("evictions", static_cast<double>(c.evictions));
    cache.set("entries", static_cast<double>(c.entries));
    cache.set("capacity", static_cast<double>(c.capacity));
    cache.set("shards", static_cast<double>(c.shards));

    json::object o;
    o.set("cache", json::value{std::move(cache)});
    o.set("endpoints", metrics_.to_json());
    o.set("parallelism",
          static_cast<double>(exec::resolve_parallelism(config_.parallelism)));
    o.set("parse_errors",
          static_cast<double>(parse_errors_.load(std::memory_order_relaxed)));
    o.set("dedup_hits",
          static_cast<double>(dedup_hits_.load(std::memory_order_relaxed)));
    o.set("arena_bytes",
          static_cast<double>(arena_bytes_.load(std::memory_order_relaxed)));

    // Mask-memoization statistics of the 2^n - 1 partition pricer
    // (process-global, like the exec gauges: the optimizer is a
    // library-level component, not per-engine).
    json::object pricer;
    pricer.set("hits", static_cast<double>(opt::partition_pricer_hits()));
    pricer.set("entries",
               static_cast<double>(opt::partition_pricer_entries()));
    o.set("partition_pricer", json::value{std::move(pricer)});

    json::object rejected;
    for (int i = 0; i < reject_reason_count; ++i) {
        const auto reason = static_cast<reject_reason>(i);
        rejected.set(std::string{to_string(reason)},
                     static_cast<double>(admission_.rejected(reason)));
    }
    json::object overload;
    overload.set("rejected", json::value{std::move(rejected)});
    overload.set("inflight_bytes",
                 static_cast<double>(admission_.inflight_bytes()));
    overload.set("deadline_exceeded",
                 static_cast<double>(
                     deadline_exceeded_.load(std::memory_order_relaxed)));
    overload.set("hot_declines",
                 static_cast<double>(
                     hot_declines_.load(std::memory_order_relaxed)));
    overload.set("cache_shed_entries",
                 static_cast<double>(
                     cache_shed_entries_.load(std::memory_order_relaxed)));
    o.set("overload", json::value{std::move(overload)});

    const obs::flight_recorder::stats f =
        obs::flight_recorder::instance().snapshot();
    json::object flight;
    flight.set("enabled", f.enabled);
    flight.set("capacity", static_cast<double>(f.capacity));
    flight.set("threads", static_cast<double>(f.threads));
    flight.set("appended", static_cast<double>(f.appended));
    flight.set("dropped", static_cast<double>(f.dropped));
    flight.set("anomalies", static_cast<double>(f.anomalies));
    o.set("flight", json::value{std::move(flight)});
    o.set("snapshot", snapshot_stats_json(snapshot_info()));
    return json::value{std::move(o)};
}

snapshot::write_result engine::snapshot_write(const std::string& path) {
    // One writer at a time: the periodic tick, a SIGUSR2 trigger and
    // the shutdown write may race; whichever loses the lock simply
    // writes a fresher image.  Serving and overload sheds are NOT
    // blocked — the serializer captures shards one at a time under
    // their own locks, so a concurrent shed yields a stale-but-
    // consistent image (counts and CRCs are computed from the bytes
    // actually captured), never a torn or double-counted one.
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    const auto t0 = std::chrono::steady_clock::now();
    const snapshot::write_result r = snapshot::write_file(
        cache_, snapshot::config_fingerprint(config_.fast_math), path);
    const auto t1 = std::chrono::steady_clock::now();
    if (r.ok) {
        snap_writes_.fetch_add(1, std::memory_order_relaxed);
        snap_last_entries_.store(r.entries, std::memory_order_relaxed);
        snap_last_bytes_.store(r.bytes, std::memory_order_relaxed);
        snap_last_write_ns_.store(ns_between(t0, t1),
                                  std::memory_order_relaxed);
        snap_last_write_at_ns_.store(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1.time_since_epoch())
                    .count()),
            std::memory_order_relaxed);
    } else {
        snap_write_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

snapshot::restore_result engine::snapshot_restore(const std::string& path) {
    const auto t0 = std::chrono::steady_clock::now();
    const snapshot::restore_result r = snapshot::restore_file(
        cache_, snapshot::config_fingerprint(config_.fast_math), path);
    snap_last_restore_ns_.store(
        ns_between(t0, std::chrono::steady_clock::now()),
        std::memory_order_relaxed);
    switch (r.outcome) {
        case snapshot::restore_outcome::restored:
            snap_restores_.fetch_add(1, std::memory_order_relaxed);
            snap_restored_entries_.fetch_add(r.entries,
                                             std::memory_order_relaxed);
            break;
        case snapshot::restore_outcome::cold_corrupt:
            snap_restore_failures_.fetch_add(1, std::memory_order_relaxed);
            break;
        case snapshot::restore_outcome::cold_missing:
            break;  // normal first boot, not a failure
    }
    return r;
}

engine::snapshot_stats engine::snapshot_info() const {
    snapshot_stats s;
    s.writes = snap_writes_.load(std::memory_order_relaxed);
    s.write_failures =
        snap_write_failures_.load(std::memory_order_relaxed);
    s.restores = snap_restores_.load(std::memory_order_relaxed);
    s.restore_failures =
        snap_restore_failures_.load(std::memory_order_relaxed);
    s.restored_entries =
        snap_restored_entries_.load(std::memory_order_relaxed);
    s.last_entries = snap_last_entries_.load(std::memory_order_relaxed);
    s.last_bytes = snap_last_bytes_.load(std::memory_order_relaxed);
    s.last_write_seconds =
        static_cast<double>(
            snap_last_write_ns_.load(std::memory_order_relaxed)) *
        1e-9;
    s.last_restore_seconds =
        static_cast<double>(
            snap_last_restore_ns_.load(std::memory_order_relaxed)) *
        1e-9;
    const std::uint64_t at =
        snap_last_write_at_ns_.load(std::memory_order_relaxed);
    if (at != 0) {
        const auto now = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
        s.age_seconds =
            now > at ? static_cast<double>(now - at) * 1e-9 : 0.0;
    }
    return s;
}

json::value engine::statusz_json() const {
    json::object config;
    config.set("parallelism",
               static_cast<double>(
                   exec::resolve_parallelism(config_.parallelism)));
    config.set("cache_capacity",
               static_cast<double>(config_.cache_capacity));
    config.set("cache_shards", static_cast<double>(config_.cache_shards));
    config.set("fast_math", config_.fast_math);
    config.set("simd_target",
               std::string{simd::to_string(simd::active_target())});

    const limits_config& l = config_.limits;
    json::object limits;
    limits.set("max_line_bytes", static_cast<double>(l.max_line_bytes));
    limits.set("max_batch_lines", static_cast<double>(l.max_batch_lines));
    limits.set("max_sweep_points", static_cast<double>(l.max_sweep_points));
    limits.set("max_mc_dies", static_cast<double>(l.max_mc_dies));
    limits.set("max_inflight_bytes",
               static_cast<double>(l.max_inflight_bytes));
    limits.set("default_deadline_ms",
               static_cast<double>(l.default_deadline_ms));
    limits.set("max_arena_reserved_bytes",
               static_cast<double>(l.max_arena_reserved_bytes));
    limits.set("shed_on_overload", l.shed_on_overload);

    const memo_cache::stats c = cache_.snapshot();
    json::object cache;
    cache.set("entries", static_cast<double>(c.entries));
    cache.set("capacity", static_cast<double>(c.capacity));
    cache.set("hits", static_cast<double>(c.hits));
    cache.set("misses", static_cast<double>(c.misses));
    cache.set("evictions", static_cast<double>(c.evictions));

    json::object overload;
    overload.set("inflight_bytes",
                 static_cast<double>(admission_.inflight_bytes()));
    overload.set("rejected_total",
                 static_cast<double>(admission_.rejected_total()));
    overload.set("deadline_exceeded",
                 static_cast<double>(
                     deadline_exceeded_.load(std::memory_order_relaxed)));

    const obs::flight_recorder::stats f =
        obs::flight_recorder::instance().snapshot();
    json::object flight;
    flight.set("enabled", f.enabled);
    flight.set("capacity", static_cast<double>(f.capacity));
    flight.set("threads", static_cast<double>(f.threads));
    flight.set("appended", static_cast<double>(f.appended));
    flight.set("dropped", static_cast<double>(f.dropped));
    flight.set("anomalies", static_cast<double>(f.anomalies));

    json::object o;
    o.set("config", json::value{std::move(config)});
    o.set("limits", json::value{std::move(limits)});
    o.set("cache", json::value{std::move(cache)});
    o.set("overload", json::value{std::move(overload)});
    o.set("flight", json::value{std::move(flight)});
    o.set("snapshot", snapshot_stats_json(snapshot_info()));
    o.set("parse_errors",
          static_cast<double>(parse_errors_.load(std::memory_order_relaxed)));
    return json::value{std::move(o)};
}

std::string engine::prometheus_text() const {
    std::string out;
    metrics_.to_prometheus(out);

    // Build/dispatch identity, info-style gauge: constant 1, the
    // payload is the labels (which vector lane the one-time runtime
    // dispatch picked, and whether this engine serves fast_math
    // kernels).
    obs::prometheus_header(out, "silicon_build_info", "gauge",
                           "SIMD dispatch target and fast_math mode");
    {
        std::string name = "silicon_build_info{simd_target=\"";
        name += simd::to_string(simd::active_target());
        name += "\",fast_math=\"";
        name += config_.fast_math ? "on" : "off";
        name += "\"}";
        obs::prometheus_sample(out, name, std::uint64_t{1});
    }

    const memo_cache::stats c = cache_.snapshot();
    obs::prometheus_header(out, "silicon_cache_hits_total", "counter",
                           "Memoization-cache hits");
    obs::prometheus_sample(out, "silicon_cache_hits_total", c.hits);
    obs::prometheus_header(out, "silicon_cache_misses_total", "counter",
                           "Memoization-cache misses");
    obs::prometheus_sample(out, "silicon_cache_misses_total", c.misses);
    obs::prometheus_header(out, "silicon_cache_evictions_total", "counter",
                           "Memoization-cache LRU evictions");
    obs::prometheus_sample(out, "silicon_cache_evictions_total",
                           c.evictions);
    obs::prometheus_header(out, "silicon_cache_lock_waits_total", "counter",
                           "Cache shard-lock acquisitions that found the "
                           "lock held");
    obs::prometheus_sample(out, "silicon_cache_lock_waits_total",
                           c.lock_waits);
    obs::prometheus_header(out, "silicon_cache_entries", "gauge",
                           "Resident memoization-cache entries");
    obs::prometheus_sample(out, "silicon_cache_entries",
                           static_cast<std::uint64_t>(c.entries));
    obs::prometheus_header(out, "silicon_cache_capacity", "gauge",
                           "Configured memoization-cache entry budget");
    obs::prometheus_sample(out, "silicon_cache_capacity",
                           static_cast<std::uint64_t>(c.capacity));
    obs::prometheus_header(out, "silicon_cache_hit_ratio", "gauge",
                           "hits / (hits + misses) since start");
    const std::uint64_t lookups = c.hits + c.misses;
    obs::prometheus_sample(
        out, "silicon_cache_hit_ratio",
        lookups == 0 ? 0.0
                     : static_cast<double>(c.hits) /
                           static_cast<double>(lookups));
    obs::prometheus_header(out, "silicon_cache_shard_entries", "gauge",
                           "Resident entries per cache shard");
    for (std::size_t i = 0; i < c.shard_entries.size(); ++i) {
        std::string name = "silicon_cache_shard_entries{shard=\"";
        name += std::to_string(i);
        name += "\"}";
        obs::prometheus_sample(
            out, name, static_cast<std::uint64_t>(c.shard_entries[i]));
    }

    obs::prometheus_header(out, "silicon_serve_parse_errors_total",
                           "counter", "Lines that failed JSON parsing");
    obs::prometheus_sample(out, "silicon_serve_parse_errors_total",
                           parse_errors_.load(std::memory_order_relaxed));
    obs::prometheus_header(out, "silicon_serve_dedup_hits_total", "counter",
                           "In-batch duplicate lines coalesced behind a "
                           "representative evaluation");
    obs::prometheus_sample(out, "silicon_serve_dedup_hits_total",
                           dedup_hits_.load(std::memory_order_relaxed));
    obs::prometheus_header(out, "silicon_serve_arena_bytes_total", "counter",
                           "Arena bytes consumed by served lines' parses");
    obs::prometheus_sample(out, "silicon_serve_arena_bytes_total",
                           arena_bytes_.load(std::memory_order_relaxed));
    obs::prometheus_header(out, "silicon_serve_parallelism", "gauge",
                           "Resolved batch fan-out width");
    obs::prometheus_sample(
        out, "silicon_serve_parallelism",
        static_cast<std::uint64_t>(
            exec::resolve_parallelism(config_.parallelism)));

    obs::prometheus_header(out, "silicon_serve_rejected_total", "counter",
                           "Lines rejected by admission control, by reason");
    for (int i = 0; i < reject_reason_count; ++i) {
        const auto reason = static_cast<reject_reason>(i);
        std::string name = "silicon_serve_rejected_total{reason=\"";
        name += to_string(reason);
        name += "\"}";
        obs::prometheus_sample(out, name, admission_.rejected(reason));
    }
    obs::prometheus_header(out, "silicon_serve_deadline_exceeded_total",
                           "counter",
                           "Lines answered deadline_exceeded");
    obs::prometheus_sample(out, "silicon_serve_deadline_exceeded_total",
                           deadline_exceeded_.load(std::memory_order_relaxed));
    obs::prometheus_header(out, "silicon_serve_inflight_bytes", "gauge",
                           "Request bytes currently admitted against the "
                           "in-flight budget");
    obs::prometheus_sample(out, "silicon_serve_inflight_bytes",
                           admission_.inflight_bytes());
    obs::prometheus_header(out, "silicon_serve_hot_declines_total", "counter",
                           "Arena releases forced by the arena byte "
                           "budget or an injected serve.arena fault");
    obs::prometheus_sample(out, "silicon_serve_hot_declines_total",
                           hot_declines_.load(std::memory_order_relaxed));
    obs::prometheus_header(out, "silicon_serve_cache_shed_entries_total",
                           "counter",
                           "Memoization-cache entries shed under overload");
    obs::prometheus_sample(
        out, "silicon_serve_cache_shed_entries_total",
        cache_shed_entries_.load(std::memory_order_relaxed));

    const snapshot_stats snap = snapshot_info();
    obs::prometheus_header(out, "silicon_cache_snapshot_writes_total",
                           "counter",
                           "Cache snapshots written successfully");
    obs::prometheus_sample(out, "silicon_cache_snapshot_writes_total",
                           snap.writes);
    obs::prometheus_header(out,
                           "silicon_cache_snapshot_write_failures_total",
                           "counter", "Cache snapshot write attempts that "
                                      "failed (file kept intact)");
    obs::prometheus_sample(out,
                           "silicon_cache_snapshot_write_failures_total",
                           snap.write_failures);
    obs::prometheus_header(out, "silicon_cache_snapshot_restores_total",
                           "counter",
                           "Cache snapshots restored at boot");
    obs::prometheus_sample(out, "silicon_cache_snapshot_restores_total",
                           snap.restores);
    obs::prometheus_header(
        out, "silicon_cache_snapshot_restore_failures_total", "counter",
        "Snapshot restores that degraded to a cold start (corruption, "
        "version or fingerprint mismatch)");
    obs::prometheus_sample(out,
                           "silicon_cache_snapshot_restore_failures_total",
                           snap.restore_failures);
    obs::prometheus_header(out, "silicon_cache_snapshot_restored_entries",
                           "gauge", "Entries loaded from snapshots");
    obs::prometheus_sample(out, "silicon_cache_snapshot_restored_entries",
                           snap.restored_entries);
    obs::prometheus_header(out, "silicon_cache_snapshot_last_bytes",
                           "gauge", "Size of the last written snapshot");
    obs::prometheus_sample(out, "silicon_cache_snapshot_last_bytes",
                           snap.last_bytes);
    obs::prometheus_header(out, "silicon_cache_snapshot_last_entries",
                           "gauge", "Entries in the last written snapshot");
    obs::prometheus_sample(out, "silicon_cache_snapshot_last_entries",
                           snap.last_entries);
    obs::prometheus_header(
        out, "silicon_cache_snapshot_last_write_seconds", "gauge",
        "Duration of the last snapshot write (serialize + fsync + rename)");
    obs::prometheus_sample(out, "silicon_cache_snapshot_last_write_seconds",
                           snap.last_write_seconds);
    obs::prometheus_header(out,
                           "silicon_cache_snapshot_last_restore_seconds",
                           "gauge",
                           "Duration of the last snapshot restore attempt");
    obs::prometheus_sample(out,
                           "silicon_cache_snapshot_last_restore_seconds",
                           snap.last_restore_seconds);
    obs::prometheus_header(out, "silicon_cache_snapshot_age_seconds",
                           "gauge",
                           "Seconds since the last successful snapshot "
                           "write (-1 = never)");
    obs::prometheus_sample(out, "silicon_cache_snapshot_age_seconds",
                           snap.age_seconds);

    obs::prometheus_header(out, "silicon_partition_pricer_hits_total",
                           "counter",
                           "Partition-pricer mask-memo lookups served "
                           "from the priced table");
    obs::prometheus_sample(out, "silicon_partition_pricer_hits_total",
                           opt::partition_pricer_hits());
    obs::prometheus_header(out, "silicon_partition_pricer_entries_total",
                           "counter",
                           "Subset masks priced into the memo table");
    obs::prometheus_sample(out, "silicon_partition_pricer_entries_total",
                           opt::partition_pricer_entries());

    // Process-global metrics (exec pool counters/gauges).
    out += obs::metrics_registry::global().to_prometheus();
    return out;
}

namespace {

/// Estimated cost of serving one fast-parsed line: point ops are cheap;
/// a sweep scales with its lanes, partition_explore with its cells,
/// mc_yield with its dies.
double line_cost_ns(const fast_parse_state& p) {
    switch (p.req.op) {
        case op_code::mc_yield:
            return mc_dies_ns(p.req);
        case op_code::sweep:
            return std::get<sweep_request>(p.req.payload).count *
                   (p.target_req.op == op_code::mc_yield
                        ? mc_dies_ns(p.target_req)
                        : lane_ns);
        case op_code::partition_explore: {
            const auto& q = std::get<partition_explore_request>(p.req.payload);
            const auto splits =
                std::count(q.splits.begin(), q.splits.end(), ',') + 1;
            return static_cast<double>(q.count * splits) * lane_ns;
        }
        default:
            return point_line_ns;
    }
}

}  // namespace

std::string engine::handle_line(std::string_view line) {
    std::string out;
    handle_line_into(line, out);
    return out;
}

void engine::handle_line_into(std::string_view line, std::string& out) {
    out.clear();
    obs::flight_recorder& flight = obs::flight_recorder::instance();
    const bool record_flight = flight.enabled() && flight.capacity() != 0;
    // Admission against the in-flight byte budget happens only at the
    // public entry points (here and handle_batch), never per batch
    // line, so a batch is admitted exactly once.
    admission_controller::ticket ticket =
        admission_.admit(line.size(), config_.limits.max_inflight_bytes);
    if (!ticket) {
        on_overload();
        // Shed without parsing, but keep trace correlation alive: the
        // raw-scan echo costs O(4 KiB) on a path that is already
        // answering "go away".
        const std::string_view trace_raw = scan_trace_id(line);
        append_overloaded(trace_raw, out);
        if (record_flight) {
            obs::flight_record rec;
            obs::assign_field(rec.trace, trace_raw);
            obs::assign_field(rec.code, "overloaded");
            rec.anomaly = true;
            flight.append(rec);
            flight.note_anomaly();
        }
        return;
    }
    if (!record_flight) {
        serve_line(parse_lone(line), out, nullptr, nullptr);
        return;
    }
    obs::flight_record rec;
    serve_line(parse_lone(line), out, nullptr, &rec);
    if (rec.code[0] != '\0') {
        flight.append(rec);
        if (rec.anomaly) {
            flight.note_anomaly();
        }
    }
}

void engine::on_overload() {
    if (config_.limits.shed_on_overload) {
        // Reclaim memory exactly when pressure is observed: drop the
        // resident entries of half the cache shards (counted as
        // evictions); capacity is untouched, so the cache refills.
        const std::size_t dropped =
            cache_.shed_shards((config_.cache_shards + 1) / 2);
        cache_shed_entries_.fetch_add(dropped, std::memory_order_relaxed);
    }
}

void engine::evaluate_miss(const fast_parse_state& parsed,
                           memo_cache::hashed_key key,
                           const exec::cancel_token* cancel,
                           std::string& out) {
    const request& req = parsed.req;
    if (faults::enabled()) {
        faults::maybe_delay("serve.eval");
        if (faults::should_fail("serve.eval")) {
            throw std::bad_alloc{};
        }
    }
    const obs::trace_span span{"serve.exec", "serve"};
    // Every op writes its result straight into the reused buffer, so a
    // closed-form point miss allocates only for the cache insert (and
    // not even that with caching off — the zero-alloc gate in
    // tests/serve/test_hotpath.cpp).
    out.clear();
    double metric = null_lane;
    if (req.op == op_code::sweep) {
        // A parsed sweep keeps its target in the parse state.
        request sweep = req;
        std::get<sweep_request>(sweep.payload).target =
            std::make_shared<const request>(parsed.target_req);
        metric = evaluate_into(sweep, out, cancel);
    } else {
        metric = evaluate_into(req, out, cancel);
    }
    // A cancelled evaluation threw above, so deadline errors are never
    // cached; a result that *did* complete is bit-identical to an
    // uncancelled run (shard-boundary cancellation) and safe to keep.
    if (config_.cache_capacity != 0) {
        cache_.put(key, out, metric);
    }
}

void engine::parse_line(std::string_view line, exec::arena& arena,
                        bool& renew, parsed_line& pl) {
    pl.ok = false;
    pl.too_large = false;
    pl.error = nullptr;
    pl.id = nullptr;
    pl.trace = nullptr;
    pl.op.reset();
    pl.parse_ns = 0;
    pl.arena_bytes = 0;
    if (config_.limits.max_line_bytes != 0 &&
        line.size() > config_.limits.max_line_bytes) {
        pl.too_large = true;  // answered too_large, never parsed
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (renew) {
        renew = false;
        const std::size_t max_arena = config_.limits.max_arena_reserved_bytes;
        // An injected arena allocation failure degrades like the budget.
        if ((faults::enabled() && faults::should_fail("serve.arena")) ||
            (max_arena != 0 && arena.bytes_reserved() > max_arena)) {
            // Graceful degradation: hand the arena's chunks back and
            // parse into it from small again.
            arena.release();
            hot_declines_.fetch_add(1, std::memory_order_relaxed);
        }
        arena.reset();
    }
    const std::size_t before = arena.bytes_allocated();
    const json::aview* doc = nullptr;
    try {
        {
            const obs::trace_span span{"serve.parse", "serve"};
            doc = &tls_line_state().parser.parse(line, arena);
        }
        const obs::trace_span span{"serve.canonicalize", "serve"};
        parse_request_fast(*doc, pl.parsed);
        pl.ok = true;
        pl.key_hash =
            memo_cache::hashed_key::of(pl.parsed.req.canonical_key).hash;
    } catch (...) {
        pl.error = std::current_exception();
        // A schema error still echoes the caller's id and trace_id, and
        // counts under its op when the name is known.
        if (doc != nullptr && doc->is_object()) {
            pl.id = doc->find("id");
            pl.trace = doc->find("trace_id");
            if (pl.trace != nullptr && !pl.trace->is_string()) {
                pl.trace = nullptr;
            }
            const json::aview* name = doc->find("op");
            if (name != nullptr && name->is_string()) {
                pl.op = op_from_string(name->string);
            }
        }
    }
    pl.parse_ns = ns_between(t0, std::chrono::steady_clock::now());
    pl.arena_bytes = arena.bytes_allocated() - before;
}

parsed_line& engine::parse_lone(std::string_view line) {
    line_state& st = tls_line_state();
    bool renew = true;
    parse_line(line, st.arena, renew, st.line);
    return st.line;
}

void engine::serve_line(
    const parsed_line& pl, std::string& out,
    const std::chrono::steady_clock::time_point* batch_deadline,
    obs::flight_record* rec) {
    const obs::trace_span line_span{"serve.handle_line", "serve"};
    // The line was parsed before it got here: its clock starts that much
    // earlier, so stage times, totals and deadlines still count the
    // parse.
    const auto start = std::chrono::steady_clock::now() -
                       std::chrono::nanoseconds{pl.parse_ns};
    out.clear();
    if (pl.too_large) {
        admission_.note_rejection(reject_reason::line_too_large);
        append_line_too_large(config_.limits.max_line_bytes, out);
        if (rec != nullptr) {
            // No endpoint/id/trace: an over-long line's framing is
            // suspect, so nothing scanned out of it is trustworthy.
            obs::assign_field(rec->code, "too_large");
        }
        return;
    }

    line_state& st = tls_line_state();
    // What the reply and the accounting know about the line: a request
    // that parsed fills id, trace and op from its parse; one that did
    // not keeps what its document shows (see parse_line).
    const json::aview* id = nullptr;
    const json::aview* trace = nullptr;
    std::optional<op_code> op;
    std::string err_code;  // empty = ok
    bool parsed = false;
    bool probed = false;
    bool evaluated = false;
    bool cache_hit = false;
    const auto t_parsed = start + std::chrono::nanoseconds{pl.parse_ns};
    std::chrono::steady_clock::time_point t_probed{};
    std::chrono::steady_clock::time_point t_evaluated{};
    bool have_deadline = false;
    std::chrono::steady_clock::time_point deadline_at{};
    try {
        if (faults::enabled()) {
            faults::maybe_delay("serve.line");
            if (faults::should_fail("serve.line")) {
                // Injected allocation failure: the generic catch below
                // answers internal_error, without the line's id — one
                // valid reply per line even when memory is gone.
                throw std::bad_alloc{};
            }
        }
        if (!pl.ok) {
            id = pl.id;
            trace = pl.trace;
            op = pl.op;
            std::rethrow_exception(pl.error);
        }
        const request& req = pl.parsed.req;
        id = pl.parsed.id_view;
        trace = pl.parsed.trace_view;
        op = req.op;
        parsed = true;

        // Arm the deadline: the request's own budget (from its line
        // start) wins; otherwise the batch-level deadline; otherwise the
        // configured default.  Checked here (so a zero budget
        // deterministically errors even on a warm cache) and at every
        // task boundary inside cancellable endpoints.
        exec::cancel_token deadline;
        const exec::cancel_token* cancel = nullptr;
        if (req.has_deadline || batch_deadline != nullptr ||
            config_.limits.default_deadline_ms != 0) {
            if (req.has_deadline) {
                deadline_at = deadline_from(start, req.deadline_ms);
            } else if (batch_deadline != nullptr) {
                deadline_at = *batch_deadline;
            } else {
                deadline_at =
                    deadline_from(start, config_.limits.default_deadline_ms);
            }
            have_deadline = true;
            deadline.set_deadline(deadline_at);
            cancel = &deadline;
            if (deadline.expired()) {
                throw exec::cancelled_error{};
            }
        }

        if (req.op == op_code::stats) {
            // Stats are a live snapshot: never cached, never golden.
            st.cold = json::dump(stats_json());
        } else {
            // One hash of the key, taken at the parse, serves the probe
            // and the miss's put.
            const memo_cache::hashed_key key{req.canonical_key,
                                             pl.key_hash};
            {
                const obs::trace_span span{"serve.cache", "serve"};
                cache_hit = cache_.get(key, &st.cold);
            }
            probed = true;
            t_probed = std::chrono::steady_clock::now();
            t_evaluated = t_probed;
            if (!cache_hit) {
                evaluated = true;
                evaluate_miss(pl.parsed, key, cancel, st.cold);
                t_evaluated = std::chrono::steady_clock::now();
            }
        }
        arena_bytes_.fetch_add(pl.arena_bytes, std::memory_order_relaxed);
        const obs::trace_span span{"serve.serialize", "serve"};
        envelope_into(id, trace, true, "result", st.cold, out);
    } catch (const json::parse_error& e) {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        err_code = "parse_error";
        out.clear();
        envelope_into(id, trace, false, "error",
                      error_body(err_code, e.what()), out);
    } catch (const std::exception& e) {
        if (dynamic_cast<const exec::cancelled_error*>(&e) != nullptr) {
            deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        }
        err_code = error_code_for(e);
        out.clear();
        envelope_into(id, trace, false, "error",
                      error_body(err_code, e.what()), out);
    }

    const bool failed = !err_code.empty();
    const auto t_done = std::chrono::steady_clock::now();
    const std::uint64_t total_ns = ns_between(start, t_done);
    // Stage breakdown (all allocation-free): parse covers
    // parse+canonicalize, cache the probe, exec the miss evaluation (a
    // failed one takes 0), serialize the envelope splice.
    const bool serialized = probed && !failed;
    const std::uint64_t parse_ns = parsed ? ns_between(start, t_parsed) : 0;
    const std::uint64_t cache_ns = probed ? ns_between(t_parsed, t_probed) : 0;
    const std::uint64_t exec_ns =
        evaluated ? ns_between(t_probed, t_evaluated) : 0;
    const std::uint64_t serialize_ns =
        serialized ? ns_between(t_evaluated, t_done) : 0;
    if (op.has_value()) {
        endpoint_metrics& m = metrics_.at(*op);
        m.requests.fetch_add(1, std::memory_order_relaxed);
        if (failed) {
            m.errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (cache_hit) {
            m.cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
        m.latency.record(total_ns);
        if (parsed) {
            m.stage_parse.record(parse_ns);
        }
        if (probed) {
            m.stage_cache.record(cache_ns);
        }
        if (evaluated) {
            m.stage_exec.record(exec_ns);
        }
        if (serialized) {
            m.stage_serialize.record(serialize_ns);
        }
        if (trace != nullptr) {
            note_tail_exemplar(m, total_ns, trace->string);
        }
    }
    if (rec != nullptr) {
        if (op.has_value()) {
            obs::assign_field(rec->endpoint, to_string(*op));
        }
        flight_id_field(rec->id, id);
        if (trace != nullptr) {
            obs::assign_field(rec->trace, trace->string);
        }
        obs::assign_field(rec->code, failed ? std::string_view{err_code}
                                            : std::string_view{"ok"});
        rec->cache_hit = cache_hit;
        rec->parse_us = ns_to_us_u32(parse_ns);
        rec->cache_us = ns_to_us_u32(cache_ns);
        rec->exec_us = ns_to_us_u32(exec_ns);
        rec->serialize_us = ns_to_us_u32(serialize_ns);
        rec->total_us = ns_to_us_u32(total_ns);
        if (have_deadline) {
            rec->deadline_slack_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    deadline_at - t_done)
                    .count();
        }
        rec->anomaly = failed && anomalous_code(err_code);
    }
}

namespace {

/// How one segment of a batch is answered: served, or rejected whole
/// before a byte of it is parsed.
enum class segment_fate : std::uint8_t { serve, too_large, overloaded };

/// Per-thread batch scratch, reused by every batch the thread submits
/// (phase A's pool workers write into the submitting thread's copy), so
/// a warm batch allocates nothing.
struct batch_scratch {
    std::vector<segment_fate> fates;
    /// The admitted segments' in-flight bytes, released when the batch
    /// returns.
    std::vector<admission_controller::ticket> tickets;
    std::vector<parsed_line> lines;
    /// One arena per phase-A shard: parallel shards never share one.
    std::deque<exec::arena> arenas;
    std::vector<std::pair<std::size_t, std::size_t>> by_hash;
    std::vector<std::string> responses;
    std::vector<obs::flight_record> recs;
    std::string out;
};

batch_scratch& tls_batch_scratch() {
    thread_local batch_scratch scratch;
    return scratch;
}

/// Intra-batch dedup over the first `n` parsed lines: the first
/// occurrence of each canonical key is the representative, and each
/// later twin gets `rep` set and a cache hit's cost.  Twins are found by
/// sorting (hash, line) pairs — deterministic, and allocation-free once
/// the scratch has grown.  Returns the number of twins.
std::uint64_t mark_twins(batch_scratch& scratch, std::size_t n) {
    std::vector<std::pair<std::size_t, std::size_t>>& by_hash =
        scratch.by_hash;
    by_hash.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const parsed_line& bl = scratch.lines[i];
        if (bl.ok && bl.parsed.req.op != op_code::stats) {
            by_hash.emplace_back(bl.key_hash, i);
        }
    }
    std::sort(by_hash.begin(), by_hash.end());
    std::uint64_t twins = 0;
    for (std::size_t g = 0; g < by_hash.size();) {
        std::size_t end = g + 1;
        while (end < by_hash.size() &&
               by_hash[end].first == by_hash[g].first) {
            ++end;
        }
        for (std::size_t j = g + 1; j < end; ++j) {
            parsed_line& twin = scratch.lines[by_hash[j].second];
            for (std::size_t k = g; k < j; ++k) {
                const std::size_t first = by_hash[k].second;
                if (scratch.lines[first].rep == no_rep &&
                    scratch.lines[first].parsed.req.canonical_key ==
                        twin.parsed.req.canonical_key) {
                    twin.rep = first;
                    twin.cost_ns = point_line_ns;  // a cache hit
                    ++twins;
                    break;
                }
            }
        }
        g = end;
    }
    return twins;
}

}  // namespace

std::vector<std::string> engine::handle_batch(
    const std::vector<std::string>& lines) {
    std::string gather;
    handle_batch_into(lines, gather);
    // Replies are single JSON lines, so the gather splits back at '\n'.
    std::vector<std::string> responses;
    responses.reserve(lines.size());
    std::size_t at = 0;
    for (std::size_t nl = gather.find('\n'); nl != std::string::npos;
         nl = gather.find('\n', at)) {
        responses.emplace_back(gather, at, nl - at);
        at = nl + 1;
    }
    return responses;
}

void engine::handle_batch_into(std::span<const std::string> lines,
                               std::string& gather) {
    const std::size_t end = lines.size();
    std::size_t reply_end = 0;
    handle_batch_into(lines, {&end, 1}, gather, {&reply_end, 1});
}

void engine::handle_batch_into(std::span<const std::string> lines,
                               std::span<const std::size_t> segment_ends,
                               std::string& gather,
                               std::span<std::size_t> reply_ends) {
    const obs::trace_span span{"serve.batch", "serve"};
    const std::size_t n = lines.size();
    const auto reply = [&gather](const std::string& r) {
        gather += r;
        gather += '\n';
    };

    obs::flight_recorder& flight = obs::flight_recorder::instance();
    const bool record_flight = flight.enabled() && flight.capacity() != 0;
    // Records are appended *in line order* (which, with the
    // deterministic timing mode, makes dumps byte-identical at every
    // thread count); an unfilled record (code "") is skipped.  Anomaly
    // triggers fire after every record of the batch landed, so an armed
    // dump always contains the batch that tripped it.
    std::uint64_t anomalies = 0;
    const auto append_record = [&](obs::flight_record& r) {
        if (r.code[0] == '\0') {
            return;
        }
        anomalies += r.anomaly ? 1 : 0;
        flight.append(r);
    };

    // Segment rules: each segment is a batch of its own for the line
    // bound and the in-flight byte budget, so one connection's oversized
    // or over-budget batch is rejected whole while its neighbours are
    // served.  A rejected segment's lines each get one well-formed
    // reply, without parsing a byte of them.
    batch_scratch& scratch = tls_batch_scratch();
    struct release_tickets {
        std::vector<admission_controller::ticket>& tickets;
        ~release_tickets() { tickets.clear(); }
    } const release{scratch.tickets};
    scratch.fates.clear();
    std::size_t accepted = 0;
    for (std::size_t s = 0, begin = 0; s < segment_ends.size(); ++s) {
        const std::size_t end = segment_ends[s];
        const std::size_t count = end - begin;
        segment_fate fate = segment_fate::serve;
        if (config_.limits.max_batch_lines != 0 &&
            count > config_.limits.max_batch_lines) {
            admission_.note_rejection(reject_reason::batch_too_large, count);
            fate = segment_fate::too_large;
        } else if (count != 0) {
            std::size_t segment_bytes = 0;
            for (std::size_t i = begin; i < end; ++i) {
                segment_bytes += lines[i].size();
            }
            admission_controller::ticket ticket = admission_.admit(
                segment_bytes, config_.limits.max_inflight_bytes, count);
            if (ticket) {
                scratch.tickets.push_back(std::move(ticket));
                accepted += count;
            } else {
                on_overload();
                fate = segment_fate::overloaded;
            }
        }
        scratch.fates.push_back(fate);
        begin = end;
    }
    // Replies go out in line order, segment by segment: `serve_reply(i)`
    // answers line i of a served segment, a rejected segment's lines get
    // its rejection.
    const auto emit = [&](const auto& serve_reply) {
        for (std::size_t s = 0, i = 0; s < segment_ends.size(); ++s) {
            const segment_fate fate = scratch.fates[s];
            for (; i < segment_ends[s]; ++i) {
                if (fate == segment_fate::serve) {
                    serve_reply(i);
                    continue;
                }
                const std::string_view trace_raw = scan_trace_id(lines[i]);
                if (fate == segment_fate::too_large) {
                    append_batch_too_large(config_.limits.max_batch_lines,
                                           trace_raw, gather);
                } else {
                    append_overloaded(trace_raw, gather);
                }
                gather += '\n';
                if (record_flight) {
                    obs::flight_record r;
                    obs::assign_field(r.trace, trace_raw);
                    obs::assign_field(r.code, fate == segment_fate::too_large
                                                  ? "too_large"
                                                  : "overloaded");
                    r.anomaly = fate == segment_fate::overloaded;
                    append_record(r);
                }
            }
            reply_ends[s] = gather.size();
        }
        for (; anomalies != 0; --anomalies) {
            flight.note_anomaly();
        }
    };
    if (accepted == 0) {
        emit([](std::size_t) {});
        return;
    }

    // One deadline instant for the whole batch (a request's own
    // deadline_ms still wins per line): lines evaluated late in an
    // overlong batch are cancelled at task boundaries, not stretched.
    const std::chrono::steady_clock::time_point* batch_deadline = nullptr;
    std::chrono::steady_clock::time_point batch_deadline_storage;
    if (config_.limits.default_deadline_ms != 0) {
        batch_deadline_storage = deadline_from(
            std::chrono::steady_clock::now(),
            config_.limits.default_deadline_ms);
        batch_deadline = &batch_deadline_storage;
    }

    // Phase A: parse every served line once, into scratch that phase B
    // serves from.  A line that fails here (malformed, a schema error,
    // over the line bound) is not dedupable; its serve answers the error
    // its parse recorded.  A single line has nothing to share or split:
    // it skips phase A, is parsed in the per-thread line state exactly
    // as handle_line's is, and any fan-out happens inside its
    // evaluation.  Dedup spans segments: a twin's cached bytes are the
    // bytes its own evaluation would write.
    const bool single = n == 1;
    std::uint64_t twins = 0;
    double work_ns = 0;
    if (!single) {
        if (scratch.lines.size() < n) {
            scratch.lines.resize(n);
        }
        for (std::size_t s = 0, i = 0; s < segment_ends.size(); ++s) {
            for (; i < segment_ends[s]; ++i) {
                scratch.lines[i].skip =
                    scratch.fates[s] != segment_fate::serve;
            }
        }
        const std::size_t shards = exec::shard_count_for(n);
        while (scratch.arenas.size() < shards) {
            // A shard holds a few parsed lines (~1 KiB each): small
            // chunks keep 64 of them cheap, and an arena grows when it
            // must.
            scratch.arenas.emplace_back(4096);
        }
        // A shard parses its lines into its own arena, renewed before
        // its first parse, and estimates each line's cost.
        const auto parse = [&](const exec::shard_range& r) {
            exec::arena& arena = scratch.arenas[r.index];
            bool renew = true;
            for (std::size_t i = r.begin; i < r.end; ++i) {
                parsed_line& pl = scratch.lines[i];
                pl.rep = no_rep;
                if (pl.skip) {
                    pl.ok = false;  // never a twin's representative
                    pl.cost_ns = 0.0;
                    continue;  // its segment is answered by a rejection
                }
                parse_line(lines[i], arena, renew, pl);
                pl.cost_ns = point_line_ns;
                if (pl.ok) {
                    pl.cost_ns = line_cost_ns(pl.parsed);
                    if (pl.cost_ns > point_line_ns &&
                        cache_.contains(memo_cache::hashed_key{
                            pl.parsed.req.canonical_key, pl.key_hash})) {
                        pl.cost_ns = point_line_ns;  // heavy, but cached
                    }
                }
            }
        };
        // One-reference capture: the std::function stays
        // allocation-free.
        exec::parallel_for(
            n, config_.parallelism,
            [&parse](const exec::shard_range& r) { parse(r); }, nullptr,
            parse_line_ns);
        if (config_.cache_capacity != 0) {
            twins = mark_twins(scratch, n);
            dedup_hits_.fetch_add(twins, std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < n; ++i) {
            work_ns += scratch.lines[i].cost_ns;
        }
    }
    const auto serve_at = [&](std::size_t i, std::string& out,
                              obs::flight_record* rec) {
        serve_line(single ? parse_lone(lines[i]) : scratch.lines[i], out,
                   batch_deadline, rec);
    };

    if (single || exec::resolve_parallelism(config_.parallelism) <= 1 ||
        !exec::worth_fanning_out(1, work_ns)) {
        // Below the grain, or nothing to share: serve inline in line
        // order.  A twin comes after its representative, so it answers
        // from the cache — or, when the representative errored (errors
        // are never cached, never coalesced), re-evaluates on its own.
        obs::flight_record rec;
        emit([&](std::size_t i) {
            if (record_flight) {
                rec = obs::flight_record{};
            }
            serve_at(i, scratch.out, record_flight ? &rec : nullptr);
            reply(scratch.out);
            if (record_flight) {
                append_record(rec);
            }
        });
        return;
    }

    // Above the grain: phase B serves representatives and every line
    // that is not a twin across the pool, phase C (only when there are
    // twins) the twins, from the cache their representatives filled.
    std::vector<std::string>& responses = scratch.responses;
    if (responses.size() < n) {
        responses.resize(n);
    }
    std::vector<obs::flight_record>& recs = scratch.recs;
    if (record_flight) {
        recs.assign(n, obs::flight_record{});
    }
    const auto serve_where = [&](bool twin_pass) {
        return [&, twin_pass](const exec::shard_range& r) {
            for (std::size_t i = r.begin; i < r.end; ++i) {
                const parsed_line& bl = scratch.lines[i];
                if (!bl.skip && (bl.rep != no_rep) == twin_pass) {
                    serve_at(i, responses[i],
                             record_flight ? &recs[i] : nullptr);
                }
            }
        };
    };
    exec::parallel_for(n, config_.parallelism, serve_where(false), nullptr,
                       work_ns / static_cast<double>(n));
    if (twins != 0) {
        exec::parallel_for(n, config_.parallelism, serve_where(true),
                           nullptr,
                           static_cast<double>(twins) * point_line_ns /
                               static_cast<double>(n));
    }
    emit([&](std::size_t i) {
        reply(responses[i]);
        if (record_flight) {
            append_record(recs[i]);
        }
    });
}

}  // namespace silicon::serve
