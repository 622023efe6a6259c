#include "serve/request.hpp"

#include "serve/request_fast.hpp"

#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

namespace silicon::serve {

std::string_view to_string(op_code op) {
    switch (op) {
        case op_code::cost_tr: return "cost_tr";
        case op_code::gross_die: return "gross_die";
        case op_code::yield: return "yield";
        case op_code::scenario1: return "scenario1";
        case op_code::scenario2: return "scenario2";
        case op_code::table3: return "table3";
        case op_code::mc_yield: return "mc_yield";
        case op_code::sweep: return "sweep";
        case op_code::stats: return "stats";
        case op_code::chiplet: return "chiplet";
        case op_code::partition_explore: return "partition_explore";
    }
    return "unknown";
}

std::optional<op_code> op_from_string(std::string_view name) {
    for (int i = 0; i < op_count; ++i) {
        const op_code op = static_cast<op_code>(i);
        if (to_string(op) == name) {
            return op;
        }
    }
    return std::nullopt;
}

const char* primary_metric(op_code op) {
    switch (op) {
        case op_code::cost_tr: return "cost_per_transistor_usd";
        case op_code::gross_die: return "count";
        case op_code::yield: return "yield";
        case op_code::scenario1: return "cost_per_transistor_usd";
        case op_code::scenario2: return "cost_per_transistor_usd";
        case op_code::mc_yield: return "yield";
        case op_code::chiplet: return "cost_per_good_system_usd";
        case op_code::table3:
        case op_code::sweep:
        case op_code::stats:
        case op_code::partition_explore:
            return nullptr;
    }
    return nullptr;
}

void check_mc_dies(int dies) {
    if (dies < 1 || dies > 100000000) {
        throw request_error("bad_param", "mc_yield: dies must be in [1, 1e8]");
    }
}

void check_chiplets(int chiplets) {
    if (chiplets < 1 || chiplets > 16) {
        throw request_error("bad_param",
                            "chiplet: chiplets must be in [1, 16]");
    }
}

namespace {

// ---------------------------------------------------------------------------
// Validating field access
// ---------------------------------------------------------------------------

/// Reads typed members out of a request object, remembering which keys
/// were touched so `forbid_unknown` can reject typos ("lamda_um") with
/// a precise error instead of silently evaluating defaults.
class field_reader {
public:
    field_reader(const json::object& o, std::string context)
        : o_{o}, context_{std::move(context)} {}

    [[nodiscard]] double number(const char* key, double fallback) {
        const json::value* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number()) {
            fail_type(key, "a number");
        }
        return v->as_number();
    }

    [[nodiscard]] int integer(const char* key, int fallback) {
        const json::value* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number() || !is_int_value(v->as_number())) {
            fail_type(key, "an integer");
        }
        return static_cast<int>(v->as_number());
    }

    [[nodiscard]] std::uint64_t uinteger(const char* key,
                                         std::uint64_t fallback) {
        const json::value* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number() || !is_uint53_value(v->as_number())) {
            fail_type(key, "a non-negative integer (<= 2^53)");
        }
        return static_cast<std::uint64_t>(v->as_number());
    }

    [[nodiscard]] std::string text(const char* key, const char* fallback) {
        const json::value* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_string()) {
            fail_type(key, "a string");
        }
        return v->as_string();
    }

    /// Raw member access (marks the key consumed); nullptr when absent.
    [[nodiscard]] const json::value* raw(const char* key) {
        return get(key);
    }

    /// Reject every member that no accessor consumed.
    void forbid_unknown() const {
        for (const json::object::member& m : o_.members()) {
            bool known = false;
            for (const std::string_view seen : consumed_) {
                if (seen == m.first) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                throw request_error(
                    "unknown_field",
                    context_ + ": unknown field '" + m.first + "'");
            }
        }
    }

private:
    const json::value* get(const char* key) {
        consumed_.push_back(key);
        return o_.find(key);
    }

    [[noreturn]] void fail_type(const char* key, const char* wanted) const {
        throw request_error("bad_param", context_ + ": field '" +
                                             std::string{key} +
                                             "' must be " + wanted);
    }

    const json::object& o_;
    std::string context_;
    std::vector<std::string_view> consumed_;
};

const json::object& require_object(const json::value& v,
                                   const std::string& context) {
    if (!v.is_object()) {
        throw request_error("bad_param", context + " must be a JSON object");
    }
    return v.as_object();
}

// ---------------------------------------------------------------------------
// Parameter block parse / serialize pairs
// ---------------------------------------------------------------------------

}  // namespace

// The name registries and the `splits` grammar (declared in request.hpp,
// shared with parse_request_fast).

void validate_gross_die_method(const std::string& name, const char* context) {
    for (const char* known :
         {"maly_rows", "maly_rows_best_orient", "area_ratio", "circumference",
          "ferris_prabhu", "exact"}) {
        if (name == known) {
            return;
        }
    }
    throw request_error(
        "bad_param",
        std::string{context} + ": unknown gross-die method '" + name +
            "' (maly_rows | maly_rows_best_orient | area_ratio | "
            "circumference | ferris_prabhu | exact)");
}

void validate_yield_model(const std::string& name) {
    for (const char* known :
         {"poisson", "murphy", "seeds", "bose_einstein", "neg_binomial",
          "scaled_poisson", "reference"}) {
        if (name == known) {
            return;
        }
    }
    throw request_error(
        "bad_param",
        "yield.model: unknown model '" + name +
            "' (poisson | murphy | seeds | bose_einstein | neg_binomial | "
            "scaled_poisson | reference)");
}

void validate_substrate(const std::string& name) {
    for (const char* known : {"organic", "rdl", "interposer"}) {
        if (name == known) {
            return;
        }
    }
    throw request_error("bad_param",
                        "substrate: unknown substrate '" + name +
                            "' (organic | rdl | interposer)");
}

/// Strict `splits` grammar: comma-separated decimal split counts with
/// no spaces, signs or leading zeros, at most 8 entries, each in
/// [1, 16], strictly ascending, and the monolithic baseline 1 must be
/// present.  The strictness makes the string its own canonical form,
/// so equivalent grids never split the memoization cache over
/// formatting.
void validate_splits(const std::string& s) {
    static constexpr const char* bad_splits =
        "partition_explore: splits must be a strictly ascending "
        "comma-separated list of split counts in [1, 16] including 1 "
        "(e.g. '1,2,4')";
    int entries = 0;
    int prev = 0;
    bool has_one = false;
    std::size_t i = 0;
    while (true) {
        if (i >= s.size() || s[i] < '1' || s[i] > '9') {
            throw request_error("bad_param", bad_splits);
        }
        int value = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            value = value * 10 + (s[i] - '0');
            if (value > 16) {
                throw request_error("bad_param", bad_splits);
            }
            ++i;
        }
        if (value <= prev || ++entries > 8) {
            throw request_error("bad_param", bad_splits);
        }
        if (value == 1) {
            has_one = true;
        }
        prev = value;
        if (i == s.size()) {
            break;
        }
        if (s[i] != ',') {
            throw request_error("bad_param", bad_splits);
        }
        ++i;
    }
    if (!has_one) {
        throw request_error("bad_param", bad_splits);
    }
}

namespace {

yield_spec_params parse_yield_spec(const json::value* v) {
    yield_spec_params out;
    if (v == nullptr) {
        return out;
    }
    field_reader r{require_object(*v, "process.yield"), "process.yield"};
    const std::string model = r.text("model", "reference");
    if (model == "reference") {
        out.model = yield_spec_params::kind::reference;
    } else if (model == "scaled") {
        out.model = yield_spec_params::kind::scaled;
    } else if (model == "fixed") {
        out.model = yield_spec_params::kind::fixed;
    } else {
        throw request_error("bad_param",
                            "process.yield.model: unknown model '" + model +
                                "' (reference | scaled | fixed)");
    }
    out.y0 = r.number("y0", out.y0);
    out.a0_cm2 = r.number("a0_cm2", out.a0_cm2);
    out.d = r.number("d", out.d);
    out.p = r.number("p", out.p);
    out.fixed = r.number("fixed", out.fixed);
    r.forbid_unknown();
    return out;
}

json::value yield_spec_to_json(const yield_spec_params& y) {
    json::object o;
    switch (y.model) {
        case yield_spec_params::kind::reference:
            o.set("model", "reference");
            break;
        case yield_spec_params::kind::scaled:
            o.set("model", "scaled");
            break;
        case yield_spec_params::kind::fixed:
            o.set("model", "fixed");
            break;
    }
    o.set("y0", y.y0);
    o.set("a0_cm2", y.a0_cm2);
    o.set("d", y.d);
    o.set("p", y.p);
    o.set("fixed", y.fixed);
    return json::value{std::move(o)};
}

process_params parse_process(const json::value* v) {
    process_params out;
    if (v == nullptr) {
        return out;
    }
    field_reader r{require_object(*v, "process"), "process"};
    out.c0_usd = r.number("c0_usd", out.c0_usd);
    out.x = r.number("x", out.x);
    out.generation_step_um =
        r.number("generation_step_um", out.generation_step_um);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.edge_exclusion_cm =
        r.number("edge_exclusion_cm", out.edge_exclusion_cm);
    out.gross_die_method =
        r.text("gross_die_method", out.gross_die_method.c_str());
    validate_gross_die_method(out.gross_die_method,
                              "process.gross_die_method");
    out.yield = parse_yield_spec(r.raw("yield"));
    r.forbid_unknown();
    return out;
}

json::value process_to_json(const process_params& p) {
    json::object o;
    o.set("c0_usd", p.c0_usd);
    o.set("x", p.x);
    o.set("generation_step_um", p.generation_step_um);
    o.set("wafer_radius_cm", p.wafer_radius_cm);
    o.set("edge_exclusion_cm", p.edge_exclusion_cm);
    o.set("gross_die_method", p.gross_die_method);
    o.set("yield", yield_spec_to_json(p.yield));
    return json::value{std::move(o)};
}

product_params parse_product(const json::value* v) {
    product_params out;
    if (v == nullptr) {
        return out;
    }
    field_reader r{require_object(*v, "product"), "product"};
    out.name = r.text("name", out.name.c_str());
    out.transistors = r.number("transistors", out.transistors);
    out.design_density = r.number("design_density", out.design_density);
    out.feature_size_um = r.number("feature_size_um", out.feature_size_um);
    out.die_aspect_ratio = r.number("die_aspect_ratio", out.die_aspect_ratio);
    r.forbid_unknown();
    return out;
}

json::value product_to_json(const product_params& p) {
    json::object o;
    o.set("name", p.name);
    o.set("transistors", p.transistors);
    o.set("design_density", p.design_density);
    o.set("feature_size_um", p.feature_size_um);
    o.set("die_aspect_ratio", p.die_aspect_ratio);
    return json::value{std::move(o)};
}

economics_params parse_economics(const json::value* v) {
    economics_params out;
    if (v == nullptr) {
        return out;
    }
    field_reader r{require_object(*v, "economics"), "economics"};
    out.overhead_usd = r.number("overhead_usd", out.overhead_usd);
    out.volume_wafers = r.number("volume_wafers", out.volume_wafers);
    r.forbid_unknown();
    return out;
}

json::value economics_to_json(const economics_params& e) {
    json::object o;
    o.set("overhead_usd", e.overhead_usd);
    o.set("volume_wafers", e.volume_wafers);
    return json::value{std::move(o)};
}

// ---------------------------------------------------------------------------
// Endpoint payload parsers (operate on the top-level request object;
// `r` already has "op" and "id" consumed)
// ---------------------------------------------------------------------------

cost_tr_request parse_cost_tr(field_reader& r) {
    cost_tr_request out;
    out.process = parse_process(r.raw("process"));
    out.product = parse_product(r.raw("product"));
    out.economics = parse_economics(r.raw("economics"));
    return out;
}

gross_die_request parse_gross_die(field_reader& r) {
    gross_die_request out;
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.edge_exclusion_cm =
        r.number("edge_exclusion_cm", out.edge_exclusion_cm);
    out.die_width_mm = r.number("die_width_mm", out.die_width_mm);
    out.die_height_mm = r.number("die_height_mm", out.die_height_mm);
    out.method = r.text("method", out.method.c_str());
    validate_gross_die_method(out.method, "method");
    out.scribe_mm = r.number("scribe_mm", out.scribe_mm);
    return out;
}

yield_request parse_yield(field_reader& r) {
    yield_request out;
    out.model = r.text("model", out.model.c_str());
    validate_yield_model(out.model);
    out.expected_faults = r.number("expected_faults", out.expected_faults);
    out.die_area_cm2 = r.number("die_area_cm2", out.die_area_cm2);
    out.defects_per_cm2 = r.number("defects_per_cm2", out.defects_per_cm2);
    out.critical_steps = r.integer("critical_steps", out.critical_steps);
    out.alpha = r.number("alpha", out.alpha);
    out.d = r.number("d", out.d);
    out.p = r.number("p", out.p);
    out.lambda_um = r.number("lambda_um", out.lambda_um);
    out.y0 = r.number("y0", out.y0);
    out.a0_cm2 = r.number("a0_cm2", out.a0_cm2);
    return out;
}

scenario1_request parse_scenario1(field_reader& r) {
    scenario1_request out;
    out.lambda_um = r.number("lambda_um", out.lambda_um);
    out.c0_usd = r.number("c0_usd", out.c0_usd);
    out.x = r.number("x", out.x);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.design_density = r.number("design_density", out.design_density);
    return out;
}

scenario2_request parse_scenario2(field_reader& r) {
    scenario2_request out;
    out.lambda_um = r.number("lambda_um", out.lambda_um);
    out.c0_usd = r.number("c0_usd", out.c0_usd);
    out.x = r.number("x", out.x);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.design_density = r.number("design_density", out.design_density);
    out.y0 = r.number("y0", out.y0);
    return out;
}

table3_request parse_table3(field_reader& r) {
    table3_request out;
    out.row = r.integer("row", out.row);
    if (out.row < 0 || out.row > 17) {
        throw request_error("bad_param",
                            "table3: row must be 0 (all) or 1-17");
    }
    return out;
}

mc_yield_request parse_mc_yield(field_reader& r) {
    mc_yield_request out;
    out.line_width_um = r.number("line_width_um", out.line_width_um);
    out.line_spacing_um = r.number("line_spacing_um", out.line_spacing_um);
    out.line_length_um = r.number("line_length_um", out.line_length_um);
    out.line_count = r.integer("line_count", out.line_count);
    out.defect_r0_um = r.number("defect_r0_um", out.defect_r0_um);
    out.defect_p = r.number("defect_p", out.defect_p);
    out.defect_q = r.number("defect_q", out.defect_q);
    out.dies = r.integer("dies", out.dies);
    out.defects_per_um2 = r.number("defects_per_um2", out.defects_per_um2);
    out.extra_material_fraction =
        r.number("extra_material_fraction", out.extra_material_fraction);
    out.seed = r.uinteger("seed", out.seed);
    check_mc_dies(out.dies);
    return out;
}

sweep_request parse_sweep(field_reader& r) {
    sweep_request out;
    const json::value* target = r.raw("target");
    if (target == nullptr) {
        throw request_error("bad_param", "sweep: 'target' is required");
    }
    const json::object& target_obj = require_object(*target, "sweep.target");
    if (target_obj.find("id") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry an 'id'");
    }
    if (target_obj.find("deadline_ms") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry a 'deadline_ms'");
    }
    if (target_obj.find("trace_id") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry a 'trace_id'");
    }

    auto parsed = std::make_shared<request>(parse_request(*target));
    if (parsed->op == op_code::sweep || parsed->op == op_code::stats ||
        primary_metric(parsed->op) == nullptr) {
        throw request_error(
            "bad_param",
            "sweep: target op '" + std::string{to_string(parsed->op)} +
                "' has no sweepable scalar metric");
    }

    const json::value* param = r.raw("param");
    if (param == nullptr || !param->is_string()) {
        throw request_error("bad_param",
                            "sweep: 'param' must be a string path");
    }
    out.param = param->as_string();
    if (!numeric_param_exists(*parsed, out.param)) {
        throw request_error("bad_param",
                            "sweep: param '" + out.param +
                                "' does not address a numeric parameter of "
                                "the target");
    }
    out.target = std::move(parsed);

    const json::value* from = r.raw("from");
    const json::value* to_v = r.raw("to");
    if (from == nullptr || !from->is_number() || to_v == nullptr ||
        !to_v->is_number()) {
        throw request_error("bad_param",
                            "sweep: 'from' and 'to' must be numbers");
    }
    out.from = from->as_number();
    out.to = to_v->as_number();
    if (!std::isfinite(out.from) || !std::isfinite(out.to)) {
        throw request_error("bad_param",
                            "sweep: 'from'/'to' must be finite");
    }

    out.count = r.integer("count", out.count);
    if (out.count < 1 || out.count > 65536) {
        throw request_error("bad_param",
                            "sweep: count must be in [1, 65536]");
    }
    out.scale = r.text("scale", out.scale.c_str());
    if (out.scale != "linear" && out.scale != "log") {
        throw request_error("bad_param",
                            "sweep: scale must be 'linear' or 'log'");
    }
    if (out.scale == "log" && (!(out.from > 0.0) || !(out.to > 0.0))) {
        throw request_error(
            "bad_param", "sweep: log scale requires positive 'from'/'to'");
    }
    return out;
}

/// The shared chiplet configuration block: everything except
/// `chiplets` (a `chiplet` request reads it, `partition_explore` takes
/// split counts from `splits` instead).  Numeric-range validation is
/// deliberately left to the model layer at eval time (library
/// constructor throws map to bad_param/domain_error), matching the
/// other endpoints.
void parse_chiplet_base(field_reader& r, chiplet_request& out) {
    out.logic_area_mm2 = r.number("logic_area_mm2", out.logic_area_mm2);
    out.memory_area_mm2 = r.number("memory_area_mm2", out.memory_area_mm2);
    out.io_area_mm2 = r.number("io_area_mm2", out.io_area_mm2);
    out.d2d_area_mm2 = r.number("d2d_area_mm2", out.d2d_area_mm2);
    out.lambda_um = r.number("lambda_um", out.lambda_um);
    out.c0_usd = r.number("c0_usd", out.c0_usd);
    out.x = r.number("x", out.x);
    out.generation_step_um =
        r.number("generation_step_um", out.generation_step_um);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.edge_exclusion_cm =
        r.number("edge_exclusion_cm", out.edge_exclusion_cm);
    out.defects_per_cm2 = r.number("defects_per_cm2", out.defects_per_cm2);
    out.memory_defect_factor =
        r.number("memory_defect_factor", out.memory_defect_factor);
    out.io_defect_factor = r.number("io_defect_factor", out.io_defect_factor);
    out.clustering_alpha = r.number("clustering_alpha", out.clustering_alpha);
    out.test_coverage = r.number("test_coverage", out.test_coverage);
    out.tester_rate_per_hour =
        r.number("tester_rate_per_hour", out.tester_rate_per_hour);
    out.test_seconds_fixed =
        r.number("test_seconds_fixed", out.test_seconds_fixed);
    out.test_seconds_per_cm2 =
        r.number("test_seconds_per_cm2", out.test_seconds_per_cm2);
    out.substrate = r.text("substrate", out.substrate.c_str());
    validate_substrate(out.substrate);
    out.substrate_cost_per_cm2 =
        r.number("substrate_cost_per_cm2", out.substrate_cost_per_cm2);
    out.rdl_cost_per_cm2 = r.number("rdl_cost_per_cm2", out.rdl_cost_per_cm2);
    out.rdl_defects_per_cm2 =
        r.number("rdl_defects_per_cm2", out.rdl_defects_per_cm2);
    out.interposer_cost_per_cm2 =
        r.number("interposer_cost_per_cm2", out.interposer_cost_per_cm2);
    out.interposer_defects_per_cm2 =
        r.number("interposer_defects_per_cm2", out.interposer_defects_per_cm2);
    out.package_area_factor =
        r.number("package_area_factor", out.package_area_factor);
    out.bond_yield = r.number("bond_yield", out.bond_yield);
    out.bonding_cost_per_chiplet =
        r.number("bonding_cost_per_chiplet", out.bonding_cost_per_chiplet);
}

chiplet_request parse_chiplet(field_reader& r) {
    chiplet_request out;
    out.chiplets = r.integer("chiplets", out.chiplets);
    check_chiplets(out.chiplets);
    parse_chiplet_base(r, out);
    return out;
}

partition_explore_request parse_partition_explore(field_reader& r) {
    partition_explore_request out;
    parse_chiplet_base(r, out.base);
    out.splits = r.text("splits", out.splits.c_str());
    validate_splits(out.splits);
    out.area_from_mm2 = r.number("area_from_mm2", out.area_from_mm2);
    out.area_to_mm2 = r.number("area_to_mm2", out.area_to_mm2);
    if (!std::isfinite(out.area_from_mm2) || !(out.area_from_mm2 > 0.0) ||
        !std::isfinite(out.area_to_mm2) || !(out.area_to_mm2 > 0.0)) {
        throw request_error("bad_param",
                            "partition_explore: area_from_mm2/area_to_mm2 "
                            "must be finite and positive");
    }
    out.count = r.integer("count", out.count);
    if (out.count < 1 || out.count > 65536) {
        throw request_error("bad_param",
                            "partition_explore: count must be in [1, 65536]");
    }
    out.scale = r.text("scale", out.scale.c_str());
    if (out.scale != "linear" && out.scale != "log") {
        throw request_error(
            "bad_param", "partition_explore: scale must be 'linear' or 'log'");
    }
    return out;
}

// ---------------------------------------------------------------------------
// Payload serializers (fields appended onto the top-level object)
// ---------------------------------------------------------------------------

void cost_tr_to_json(const cost_tr_request& q, json::object& o) {
    o.set("process", process_to_json(q.process));
    o.set("product", product_to_json(q.product));
    o.set("economics", economics_to_json(q.economics));
}

void gross_die_to_json(const gross_die_request& q, json::object& o) {
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("edge_exclusion_cm", q.edge_exclusion_cm);
    o.set("die_width_mm", q.die_width_mm);
    o.set("die_height_mm", q.die_height_mm);
    o.set("method", q.method);
    o.set("scribe_mm", q.scribe_mm);
}

void yield_to_json(const yield_request& q, json::object& o) {
    o.set("model", q.model);
    o.set("expected_faults", q.expected_faults);
    o.set("die_area_cm2", q.die_area_cm2);
    o.set("defects_per_cm2", q.defects_per_cm2);
    o.set("critical_steps", q.critical_steps);
    o.set("alpha", q.alpha);
    o.set("d", q.d);
    o.set("p", q.p);
    o.set("lambda_um", q.lambda_um);
    o.set("y0", q.y0);
    o.set("a0_cm2", q.a0_cm2);
}

void scenario1_to_json(const scenario1_request& q, json::object& o) {
    o.set("lambda_um", q.lambda_um);
    o.set("c0_usd", q.c0_usd);
    o.set("x", q.x);
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("design_density", q.design_density);
}

void scenario2_to_json(const scenario2_request& q, json::object& o) {
    o.set("lambda_um", q.lambda_um);
    o.set("c0_usd", q.c0_usd);
    o.set("x", q.x);
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("design_density", q.design_density);
    o.set("y0", q.y0);
}

void table3_to_json(const table3_request& q, json::object& o) {
    o.set("row", q.row);
}

void mc_yield_to_json(const mc_yield_request& q, json::object& o) {
    o.set("line_width_um", q.line_width_um);
    o.set("line_spacing_um", q.line_spacing_um);
    o.set("line_length_um", q.line_length_um);
    o.set("line_count", q.line_count);
    o.set("defect_r0_um", q.defect_r0_um);
    o.set("defect_p", q.defect_p);
    o.set("defect_q", q.defect_q);
    o.set("dies", q.dies);
    o.set("defects_per_um2", q.defects_per_um2);
    o.set("extra_material_fraction", q.extra_material_fraction);
    o.set("seed", static_cast<double>(q.seed));
}

void sweep_to_json(const sweep_request& q, json::object& o) {
    o.set("target", request_to_json(*q.target));
    o.set("param", q.param);
    o.set("from", q.from);
    o.set("to", q.to);
    o.set("count", q.count);
    o.set("scale", q.scale);
}

void chiplet_base_to_json(const chiplet_request& q, json::object& o) {
    o.set("logic_area_mm2", q.logic_area_mm2);
    o.set("memory_area_mm2", q.memory_area_mm2);
    o.set("io_area_mm2", q.io_area_mm2);
    o.set("d2d_area_mm2", q.d2d_area_mm2);
    o.set("lambda_um", q.lambda_um);
    o.set("c0_usd", q.c0_usd);
    o.set("x", q.x);
    o.set("generation_step_um", q.generation_step_um);
    o.set("wafer_radius_cm", q.wafer_radius_cm);
    o.set("edge_exclusion_cm", q.edge_exclusion_cm);
    o.set("defects_per_cm2", q.defects_per_cm2);
    o.set("memory_defect_factor", q.memory_defect_factor);
    o.set("io_defect_factor", q.io_defect_factor);
    o.set("clustering_alpha", q.clustering_alpha);
    o.set("test_coverage", q.test_coverage);
    o.set("tester_rate_per_hour", q.tester_rate_per_hour);
    o.set("test_seconds_fixed", q.test_seconds_fixed);
    o.set("test_seconds_per_cm2", q.test_seconds_per_cm2);
    o.set("substrate", q.substrate);
    o.set("substrate_cost_per_cm2", q.substrate_cost_per_cm2);
    o.set("rdl_cost_per_cm2", q.rdl_cost_per_cm2);
    o.set("rdl_defects_per_cm2", q.rdl_defects_per_cm2);
    o.set("interposer_cost_per_cm2", q.interposer_cost_per_cm2);
    o.set("interposer_defects_per_cm2", q.interposer_defects_per_cm2);
    o.set("package_area_factor", q.package_area_factor);
    o.set("bond_yield", q.bond_yield);
    o.set("bonding_cost_per_chiplet", q.bonding_cost_per_chiplet);
}

void chiplet_to_json(const chiplet_request& q, json::object& o) {
    o.set("chiplets", q.chiplets);
    chiplet_base_to_json(q, o);
}

void partition_explore_to_json(const partition_explore_request& q,
                               json::object& o) {
    chiplet_base_to_json(q.base, o);
    o.set("splits", q.splits);
    o.set("area_from_mm2", q.area_from_mm2);
    o.set("area_to_mm2", q.area_to_mm2);
    o.set("count", q.count);
    o.set("scale", q.scale);
}

}  // namespace

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

request parse_request(const json::value& doc) {
    if (!doc.is_object()) {
        throw request_error("bad_request", "request must be a JSON object");
    }
    field_reader r{doc.as_object(), "request"};

    const json::value* op_member = r.raw("op");
    if (op_member == nullptr || !op_member->is_string()) {
        throw request_error("bad_request",
                            "request: 'op' must be a string");
    }
    const std::optional<op_code> op = op_from_string(op_member->as_string());
    if (!op.has_value()) {
        throw request_error("unknown_op", "request: unknown op '" +
                                              op_member->as_string() + "'");
    }

    request out;
    out.op = *op;
    if (const json::value* id = r.raw("id")) {
        out.id = *id;
        out.has_id = true;
    }
    if (r.raw("deadline_ms") != nullptr) {
        // Envelope-level like `id`: validated here, excluded from the
        // canonical key (request_to_json) so deadlines never split the
        // memoization cache.
        out.deadline_ms = r.uinteger("deadline_ms", 0);
        out.has_deadline = true;
    }
    if (r.raw("trace_id") != nullptr) {
        // Envelope-level like `id` and `deadline_ms`: echoed in the
        // response, never part of the canonical key.
        out.trace_id = r.text("trace_id", "");
        out.has_trace = true;
    }

    switch (*op) {
        case op_code::cost_tr: out.payload = parse_cost_tr(r); break;
        case op_code::gross_die: out.payload = parse_gross_die(r); break;
        case op_code::yield: out.payload = parse_yield(r); break;
        case op_code::scenario1: out.payload = parse_scenario1(r); break;
        case op_code::scenario2: out.payload = parse_scenario2(r); break;
        case op_code::table3: out.payload = parse_table3(r); break;
        case op_code::mc_yield: out.payload = parse_mc_yield(r); break;
        case op_code::sweep: out.payload = parse_sweep(r); break;
        case op_code::stats: out.payload = stats_request{}; break;
        case op_code::chiplet: out.payload = parse_chiplet(r); break;
        case op_code::partition_explore:
            out.payload = parse_partition_explore(r);
            break;
    }
    r.forbid_unknown();

    out.canonical_key = json::canonical(request_to_json(out));
    return out;
}

json::value request_to_json(const request& r) {
    json::object o;
    o.set("op", std::string{to_string(r.op)});
    std::visit(
        [&o](const auto& payload) {
            using T = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<T, cost_tr_request>) {
                cost_tr_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, gross_die_request>) {
                gross_die_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, yield_request>) {
                yield_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, scenario1_request>) {
                scenario1_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, scenario2_request>) {
                scenario2_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, table3_request>) {
                table3_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, mc_yield_request>) {
                mc_yield_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, sweep_request>) {
                sweep_to_json(payload, o);
            } else if constexpr (std::is_same_v<T, chiplet_request>) {
                chiplet_to_json(payload, o);
            } else if constexpr (std::is_same_v<T,
                                                partition_explore_request>) {
                partition_explore_to_json(payload, o);
            }
            // stats_request: no parameters.
        },
        r.payload);
    return json::value{std::move(o)};
}

}  // namespace silicon::serve
