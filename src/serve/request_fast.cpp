#include "serve/request_fast.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>

// Every parse function below mirrors its namesake in request.cpp member
// for member and check for check, in the same order, with the same error
// codes and messages — the equivalence fuzz test in
// tests/serve/test_hotpath.cpp compares the two parsers over valid and
// malformed corpora.  When touching request.cpp, touch the mirror here.

namespace silicon::serve {

namespace {

using json::aview;

// ---------------------------------------------------------------------------
// Validating field access over an arena view
// ---------------------------------------------------------------------------

class fast_reader {
  public:
    fast_reader(const aview& o, const char* context)
        : o_{o}, context_{context} {}

    [[nodiscard]] double number(const char* key, double fallback) {
        const aview* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number()) {
            fail_type(key, "a number");
        }
        return v->number;
    }

    [[nodiscard]] int integer(const char* key, int fallback) {
        const aview* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number() || !is_int_value(v->number)) {
            fail_type(key, "an integer");
        }
        return static_cast<int>(v->number);
    }

    [[nodiscard]] std::uint64_t uinteger(const char* key,
                                         std::uint64_t fallback) {
        const aview* v = get(key);
        if (v == nullptr) {
            return fallback;
        }
        if (!v->is_number() || !is_uint53_value(v->number)) {
            fail_type(key, "a non-negative integer (<= 2^53)");
        }
        return static_cast<std::uint64_t>(v->number);
    }

    /// Assigns the member into `out` (capacity-preserving) when present;
    /// leaves `out` (already holding the default) untouched when absent.
    void text_into(const char* key, std::string& out) {
        const aview* v = get(key);
        if (v == nullptr) {
            return;
        }
        if (!v->is_string()) {
            fail_type(key, "a string");
        }
        out.assign(v->string);
    }

    [[nodiscard]] const aview* raw(const char* key) { return get(key); }

    void forbid_unknown() const {
        for (std::uint32_t i = 0; i < o_.count; ++i) {
            const std::string_view key = o_.members[i].key;
            bool known = false;
            for (std::size_t j = 0; j < consumed_count_; ++j) {
                if (consumed_[j] == key) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                throw request_error("unknown_field",
                                    std::string{context_} +
                                        ": unknown field '" +
                                        std::string{key} + "'");
            }
        }
    }

  private:
    const aview* get(const char* key) {
        if (consumed_count_ >= consumed_.size()) {
            // Bounds the keys an endpoint's code reads, which no input
            // can raise: reaching it is a bug in this file.
            throw std::logic_error("fast_reader: too many fields read");
        }
        consumed_[consumed_count_++] = key;
        return o_.find(key);
    }

    [[noreturn]] void fail_type(const char* key, const char* wanted) const {
        throw request_error("bad_param", std::string{context_} + ": field '" +
                                             std::string{key} +
                                             "' must be " + wanted);
    }

    const aview& o_;
    const char* context_;
    // Sized for the widest reader: partition_explore consumes
    // op + id + deadline_ms + trace_id + 27 base fields +
    // splits/area/count/scale.
    std::array<std::string_view, 40> consumed_{};
    std::size_t consumed_count_ = 0;
};

const aview& require_object_fast(const aview& v, const char* context) {
    if (!v.is_object()) {
        throw request_error("bad_param",
                            std::string{context} + " must be a JSON object");
    }
    return v;
}

// Shared with request.cpp by contract (identical registries/messages).

void validate_gross_die_method_fast(const std::string& name,
                                    const char* context) {
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

void validate_yield_model_fast(const std::string& name) {
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

void validate_substrate_fast(const std::string& name) {
    for (const char* known : {"organic", "rdl", "interposer"}) {
        if (name == known) {
            return;
        }
    }
    throw request_error("bad_param",
                        "substrate: unknown substrate '" + name +
                            "' (organic | rdl | interposer)");
}

void validate_splits_fast(const std::string& s) {
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

/// Reuses the payload alternative when the op repeats (preserving string
/// capacity) and resets it to schema defaults either way.
template <class T>
T& ensure_payload(request& r) {
    if (T* p = std::get_if<T>(&r.payload)) {
        *p = T{};  // capacity-preserving: all default strings are SSO
        return *p;
    }
    return r.payload.template emplace<T>();
}

// ---------------------------------------------------------------------------
// Parameter block parsers (in-place twins of request.cpp)
// ---------------------------------------------------------------------------

void parse_yield_spec_fast(const aview* v, yield_spec_params& out) {
    out = yield_spec_params{};
    if (v == nullptr) {
        return;
    }
    fast_reader r{require_object_fast(*v, "process.yield"), "process.yield"};
    // Legacy reads `model` into a temporary before matching; the match
    // itself is on the same bytes, so match the view directly.
    std::string model_name{"reference"};
    r.text_into("model", model_name);
    if (model_name == "reference") {
        out.model = yield_spec_params::kind::reference;
    } else if (model_name == "scaled") {
        out.model = yield_spec_params::kind::scaled;
    } else if (model_name == "fixed") {
        out.model = yield_spec_params::kind::fixed;
    } else {
        throw request_error("bad_param",
                            "process.yield.model: unknown model '" +
                                model_name + "' (reference | scaled | fixed)");
    }
    out.y0 = r.number("y0", out.y0);
    out.a0_cm2 = r.number("a0_cm2", out.a0_cm2);
    out.d = r.number("d", out.d);
    out.p = r.number("p", out.p);
    out.fixed = r.number("fixed", out.fixed);
    r.forbid_unknown();
}

void parse_process_fast(const aview* v, process_params& out) {
    out = process_params{};
    if (v == nullptr) {
        return;
    }
    fast_reader r{require_object_fast(*v, "process"), "process"};
    out.c0_usd = r.number("c0_usd", out.c0_usd);
    out.x = r.number("x", out.x);
    out.generation_step_um =
        r.number("generation_step_um", out.generation_step_um);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.edge_exclusion_cm =
        r.number("edge_exclusion_cm", out.edge_exclusion_cm);
    r.text_into("gross_die_method", out.gross_die_method);
    validate_gross_die_method_fast(out.gross_die_method,
                                   "process.gross_die_method");
    parse_yield_spec_fast(r.raw("yield"), out.yield);
    r.forbid_unknown();
}

void parse_product_fast(const aview* v, product_params& out) {
    out = product_params{};
    if (v == nullptr) {
        return;
    }
    fast_reader r{require_object_fast(*v, "product"), "product"};
    r.text_into("name", out.name);
    out.transistors = r.number("transistors", out.transistors);
    out.design_density = r.number("design_density", out.design_density);
    out.feature_size_um = r.number("feature_size_um", out.feature_size_um);
    out.die_aspect_ratio = r.number("die_aspect_ratio", out.die_aspect_ratio);
    r.forbid_unknown();
}

void parse_economics_fast(const aview* v, economics_params& out) {
    out = economics_params{};
    if (v == nullptr) {
        return;
    }
    fast_reader r{require_object_fast(*v, "economics"), "economics"};
    out.overhead_usd = r.number("overhead_usd", out.overhead_usd);
    out.volume_wafers = r.number("volume_wafers", out.volume_wafers);
    r.forbid_unknown();
}

// ---------------------------------------------------------------------------
// Endpoint payload parsers
// ---------------------------------------------------------------------------

void parse_cost_tr_fast(fast_reader& r, request& req) {
    cost_tr_request& out = ensure_payload<cost_tr_request>(req);
    parse_process_fast(r.raw("process"), out.process);
    parse_product_fast(r.raw("product"), out.product);
    parse_economics_fast(r.raw("economics"), out.economics);
}

void parse_gross_die_fast(fast_reader& r, request& req) {
    gross_die_request& out = ensure_payload<gross_die_request>(req);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.edge_exclusion_cm =
        r.number("edge_exclusion_cm", out.edge_exclusion_cm);
    out.die_width_mm = r.number("die_width_mm", out.die_width_mm);
    out.die_height_mm = r.number("die_height_mm", out.die_height_mm);
    r.text_into("method", out.method);
    validate_gross_die_method_fast(out.method, "method");
    out.scribe_mm = r.number("scribe_mm", out.scribe_mm);
}

void parse_yield_fast(fast_reader& r, request& req) {
    yield_request& out = ensure_payload<yield_request>(req);
    r.text_into("model", out.model);
    validate_yield_model_fast(out.model);
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
}

void parse_scenario1_fast(fast_reader& r, request& req) {
    scenario1_request& out = ensure_payload<scenario1_request>(req);
    out.lambda_um = r.number("lambda_um", out.lambda_um);
    out.c0_usd = r.number("c0_usd", out.c0_usd);
    out.x = r.number("x", out.x);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.design_density = r.number("design_density", out.design_density);
}

void parse_scenario2_fast(fast_reader& r, request& req) {
    scenario2_request& out = ensure_payload<scenario2_request>(req);
    out.lambda_um = r.number("lambda_um", out.lambda_um);
    out.c0_usd = r.number("c0_usd", out.c0_usd);
    out.x = r.number("x", out.x);
    out.wafer_radius_cm = r.number("wafer_radius_cm", out.wafer_radius_cm);
    out.design_density = r.number("design_density", out.design_density);
    out.y0 = r.number("y0", out.y0);
}

void parse_table3_fast(fast_reader& r, request& req) {
    table3_request& out = ensure_payload<table3_request>(req);
    out.row = r.integer("row", out.row);
    if (out.row < 0 || out.row > 17) {
        throw request_error("bad_param",
                            "table3: row must be 0 (all) or 1-17");
    }
}

void parse_mc_yield_fast(fast_reader& r, request& req) {
    mc_yield_request& out = ensure_payload<mc_yield_request>(req);
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
}

void parse_chiplet_base_fast(fast_reader& r, chiplet_request& out) {
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
    r.text_into("substrate", out.substrate);
    validate_substrate_fast(out.substrate);
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

void parse_chiplet_fast(fast_reader& r, request& req) {
    chiplet_request& out = ensure_payload<chiplet_request>(req);
    out.chiplets = r.integer("chiplets", out.chiplets);
    check_chiplets(out.chiplets);
    parse_chiplet_base_fast(r, out);
}

void parse_partition_explore_fast(fast_reader& r, request& req) {
    partition_explore_request& out =
        ensure_payload<partition_explore_request>(req);
    parse_chiplet_base_fast(r, out.base);
    r.text_into("splits", out.splits);
    validate_splits_fast(out.splits);
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
    r.text_into("scale", out.scale);
    if (out.scale != "linear" && out.scale != "log") {
        throw request_error(
            "bad_param", "partition_explore: scale must be 'linear' or 'log'");
    }
}

// ---------------------------------------------------------------------------
// Canonical-key emitters (sorted member order baked in)
// ---------------------------------------------------------------------------

// The orders below are the bytewise-sorted key orders json::canonical
// produces for request_to_json output; the equivalence test compares the
// emitted keys against json::canonical(request_to_json(r)) for every op.

void emit_number(double d, std::string& out) {
    json::format_number_into(d, out);
}

void emit_yield_spec_key(const yield_spec_params& y, std::string& out) {
    out += "{\"a0_cm2\":";
    emit_number(y.a0_cm2, out);
    out += ",\"d\":";
    emit_number(y.d, out);
    out += ",\"fixed\":";
    emit_number(y.fixed, out);
    out += ",\"model\":";
    switch (y.model) {
        case yield_spec_params::kind::reference: out += "\"reference\""; break;
        case yield_spec_params::kind::scaled: out += "\"scaled\""; break;
        case yield_spec_params::kind::fixed: out += "\"fixed\""; break;
    }
    out += ",\"p\":";
    emit_number(y.p, out);
    out += ",\"y0\":";
    emit_number(y.y0, out);
    out += '}';
}

void emit_cost_tr_key(const cost_tr_request& q, std::string& out) {
    out += "{\"economics\":{\"overhead_usd\":";
    emit_number(q.economics.overhead_usd, out);
    out += ",\"volume_wafers\":";
    emit_number(q.economics.volume_wafers, out);
    out += "},\"op\":\"cost_tr\",\"process\":{\"c0_usd\":";
    emit_number(q.process.c0_usd, out);
    out += ",\"edge_exclusion_cm\":";
    emit_number(q.process.edge_exclusion_cm, out);
    out += ",\"generation_step_um\":";
    emit_number(q.process.generation_step_um, out);
    out += ",\"gross_die_method\":";
    json::write_string_into(out, q.process.gross_die_method);
    out += ",\"wafer_radius_cm\":";
    emit_number(q.process.wafer_radius_cm, out);
    out += ",\"x\":";
    emit_number(q.process.x, out);
    out += ",\"yield\":";
    emit_yield_spec_key(q.process.yield, out);
    out += "},\"product\":{\"design_density\":";
    emit_number(q.product.design_density, out);
    out += ",\"die_aspect_ratio\":";
    emit_number(q.product.die_aspect_ratio, out);
    out += ",\"feature_size_um\":";
    emit_number(q.product.feature_size_um, out);
    out += ",\"name\":";
    json::write_string_into(out, q.product.name);
    out += ",\"transistors\":";
    emit_number(q.product.transistors, out);
    out += "}}";
}

void emit_gross_die_key(const gross_die_request& q, std::string& out) {
    out += "{\"die_height_mm\":";
    emit_number(q.die_height_mm, out);
    out += ",\"die_width_mm\":";
    emit_number(q.die_width_mm, out);
    out += ",\"edge_exclusion_cm\":";
    emit_number(q.edge_exclusion_cm, out);
    out += ",\"method\":";
    json::write_string_into(out, q.method);
    out += ",\"op\":\"gross_die\",\"scribe_mm\":";
    emit_number(q.scribe_mm, out);
    out += ",\"wafer_radius_cm\":";
    emit_number(q.wafer_radius_cm, out);
    out += '}';
}

void emit_yield_key(const yield_request& q, std::string& out) {
    out += "{\"a0_cm2\":";
    emit_number(q.a0_cm2, out);
    out += ",\"alpha\":";
    emit_number(q.alpha, out);
    out += ",\"critical_steps\":";
    emit_number(static_cast<double>(q.critical_steps), out);
    out += ",\"d\":";
    emit_number(q.d, out);
    out += ",\"defects_per_cm2\":";
    emit_number(q.defects_per_cm2, out);
    out += ",\"die_area_cm2\":";
    emit_number(q.die_area_cm2, out);
    out += ",\"expected_faults\":";
    emit_number(q.expected_faults, out);
    out += ",\"lambda_um\":";
    emit_number(q.lambda_um, out);
    out += ",\"model\":";
    json::write_string_into(out, q.model);
    out += ",\"op\":\"yield\",\"p\":";
    emit_number(q.p, out);
    out += ",\"y0\":";
    emit_number(q.y0, out);
    out += '}';
}

void emit_scenario1_key(const scenario1_request& q, std::string& out) {
    out += "{\"c0_usd\":";
    emit_number(q.c0_usd, out);
    out += ",\"design_density\":";
    emit_number(q.design_density, out);
    out += ",\"lambda_um\":";
    emit_number(q.lambda_um, out);
    out += ",\"op\":\"scenario1\",\"wafer_radius_cm\":";
    emit_number(q.wafer_radius_cm, out);
    out += ",\"x\":";
    emit_number(q.x, out);
    out += '}';
}

void emit_scenario2_key(const scenario2_request& q, std::string& out) {
    out += "{\"c0_usd\":";
    emit_number(q.c0_usd, out);
    out += ",\"design_density\":";
    emit_number(q.design_density, out);
    out += ",\"lambda_um\":";
    emit_number(q.lambda_um, out);
    out += ",\"op\":\"scenario2\",\"wafer_radius_cm\":";
    emit_number(q.wafer_radius_cm, out);
    out += ",\"x\":";
    emit_number(q.x, out);
    out += ",\"y0\":";
    emit_number(q.y0, out);
    out += '}';
}

void emit_table3_key(const table3_request& q, std::string& out) {
    out += "{\"op\":\"table3\",\"row\":";
    emit_number(static_cast<double>(q.row), out);
    out += '}';
}

void emit_mc_yield_key(const mc_yield_request& q, std::string& out) {
    out += "{\"defect_p\":";
    emit_number(q.defect_p, out);
    out += ",\"defect_q\":";
    emit_number(q.defect_q, out);
    out += ",\"defect_r0_um\":";
    emit_number(q.defect_r0_um, out);
    out += ",\"defects_per_um2\":";
    emit_number(q.defects_per_um2, out);
    out += ",\"dies\":";
    emit_number(static_cast<double>(q.dies), out);
    out += ",\"extra_material_fraction\":";
    emit_number(q.extra_material_fraction, out);
    out += ",\"line_count\":";
    emit_number(static_cast<double>(q.line_count), out);
    out += ",\"line_length_um\":";
    emit_number(q.line_length_um, out);
    out += ",\"line_spacing_um\":";
    emit_number(q.line_spacing_um, out);
    out += ",\"line_width_um\":";
    emit_number(q.line_width_um, out);
    out += ",\"op\":\"mc_yield\",\"seed\":";
    emit_number(static_cast<double>(q.seed), out);
    out += '}';
}

/// `target_key` is the already-canonical target serialization (spliced
/// verbatim — canonical is idempotent under re-sorting).
void emit_sweep_key(const sweep_request& q, std::string_view target_key,
                    std::string& out) {
    out += "{\"count\":";
    emit_number(static_cast<double>(q.count), out);
    out += ",\"from\":";
    emit_number(q.from, out);
    out += ",\"op\":\"sweep\",\"param\":";
    json::write_string_into(out, q.param);
    out += ",\"scale\":";
    json::write_string_into(out, q.scale);
    out += ",\"target\":";
    out += target_key;
    out += ",\"to\":";
    emit_number(q.to, out);
    out += '}';
}

/// The sorted run of chiplet configuration keys from "bond_yield"
/// through "clustering_alpha"; both chiplet-family emitters start with
/// it (partition_explore's "area_*" / "count" keys interleave around
/// it and are emitted by the caller).
void emit_chiplet_run_bond_to_c0(const chiplet_request& q, std::string& out) {
    out += "\"bond_yield\":";
    emit_number(q.bond_yield, out);
    out += ",\"bonding_cost_per_chiplet\":";
    emit_number(q.bonding_cost_per_chiplet, out);
    out += ",\"c0_usd\":";
    emit_number(q.c0_usd, out);
}

/// Sorted keys "d2d_area_mm2" .. "memory_defect_factor" — identical in
/// both chiplet-family canonical forms.
void emit_chiplet_run_d2d_to_memory(const chiplet_request& q,
                                    std::string& out) {
    out += ",\"d2d_area_mm2\":";
    emit_number(q.d2d_area_mm2, out);
    out += ",\"defects_per_cm2\":";
    emit_number(q.defects_per_cm2, out);
    out += ",\"edge_exclusion_cm\":";
    emit_number(q.edge_exclusion_cm, out);
    out += ",\"generation_step_um\":";
    emit_number(q.generation_step_um, out);
    out += ",\"interposer_cost_per_cm2\":";
    emit_number(q.interposer_cost_per_cm2, out);
    out += ",\"interposer_defects_per_cm2\":";
    emit_number(q.interposer_defects_per_cm2, out);
    out += ",\"io_area_mm2\":";
    emit_number(q.io_area_mm2, out);
    out += ",\"io_defect_factor\":";
    emit_number(q.io_defect_factor, out);
    out += ",\"lambda_um\":";
    emit_number(q.lambda_um, out);
    out += ",\"logic_area_mm2\":";
    emit_number(q.logic_area_mm2, out);
    out += ",\"memory_area_mm2\":";
    emit_number(q.memory_area_mm2, out);
    out += ",\"memory_defect_factor\":";
    emit_number(q.memory_defect_factor, out);
}

/// Sorted keys "package_area_factor" .. "rdl_defects_per_cm2" (the run
/// right after "op" in both chiplet-family canonical forms).
void emit_chiplet_run_package_to_rdl(const chiplet_request& q,
                                     std::string& out) {
    out += ",\"package_area_factor\":";
    emit_number(q.package_area_factor, out);
    out += ",\"rdl_cost_per_cm2\":";
    emit_number(q.rdl_cost_per_cm2, out);
    out += ",\"rdl_defects_per_cm2\":";
    emit_number(q.rdl_defects_per_cm2, out);
}

/// Sorted keys "substrate" .. "x" — the shared tail of both
/// chiplet-family canonical forms (partition_explore's "scale" and
/// "splits" sort immediately before "substrate" and are emitted by the
/// caller).
void emit_chiplet_run_substrate_to_x(const chiplet_request& q,
                                     std::string& out) {
    out += ",\"substrate\":";
    json::write_string_into(out, q.substrate);
    out += ",\"substrate_cost_per_cm2\":";
    emit_number(q.substrate_cost_per_cm2, out);
    out += ",\"test_coverage\":";
    emit_number(q.test_coverage, out);
    out += ",\"test_seconds_fixed\":";
    emit_number(q.test_seconds_fixed, out);
    out += ",\"test_seconds_per_cm2\":";
    emit_number(q.test_seconds_per_cm2, out);
    out += ",\"tester_rate_per_hour\":";
    emit_number(q.tester_rate_per_hour, out);
    out += ",\"wafer_radius_cm\":";
    emit_number(q.wafer_radius_cm, out);
    out += ",\"x\":";
    emit_number(q.x, out);
    out += '}';
}

void emit_chiplet_key(const chiplet_request& q, std::string& out) {
    out += '{';
    emit_chiplet_run_bond_to_c0(q, out);
    out += ",\"chiplets\":";
    emit_number(static_cast<double>(q.chiplets), out);
    out += ",\"clustering_alpha\":";
    emit_number(q.clustering_alpha, out);
    emit_chiplet_run_d2d_to_memory(q, out);
    out += ",\"op\":\"chiplet\"";
    emit_chiplet_run_package_to_rdl(q, out);
    emit_chiplet_run_substrate_to_x(q, out);
}

void emit_partition_explore_key(const partition_explore_request& q,
                                std::string& out) {
    out += "{\"area_from_mm2\":";
    emit_number(q.area_from_mm2, out);
    out += ",\"area_to_mm2\":";
    emit_number(q.area_to_mm2, out);
    out += ',';
    emit_chiplet_run_bond_to_c0(q.base, out);
    out += ",\"clustering_alpha\":";
    emit_number(q.base.clustering_alpha, out);
    out += ",\"count\":";
    emit_number(static_cast<double>(q.count), out);
    emit_chiplet_run_d2d_to_memory(q.base, out);
    out += ",\"op\":\"partition_explore\"";
    emit_chiplet_run_package_to_rdl(q.base, out);
    out += ",\"scale\":";
    json::write_string_into(out, q.scale);
    out += ",\"splits\":";
    json::write_string_into(out, q.splits);
    emit_chiplet_run_substrate_to_x(q.base, out);
}

// ---------------------------------------------------------------------------
// Top-level parse
// ---------------------------------------------------------------------------

void parse_sweep_fast(fast_reader& r, fast_parse_state& st);

/// Parses a request document into `out` and writes its canonical key
/// into `key_out` (cleared first).  `sweep_state` is the top level's
/// parse state (which holds a sweep's target); a sweep target passes
/// nullptr.
void parse_request_fast_inner(const aview& doc, request& out,
                              std::string& key_out,
                              fast_parse_state* sweep_state) {
    if (!doc.is_object()) {
        throw request_error("bad_request", "request must be a JSON object");
    }
    fast_reader r{doc, "request"};
    std::unique_ptr<fast_parse_state> nested;

    const aview* op_member = r.raw("op");
    if (op_member == nullptr || !op_member->is_string()) {
        throw request_error("bad_request", "request: 'op' must be a string");
    }
    const std::optional<op_code> op = op_from_string(op_member->string);
    if (!op.has_value()) {
        throw request_error("unknown_op", "request: unknown op '" +
                                              std::string{op_member->string} +
                                              "'");
    }

    out.op = *op;
    out.has_id = false;
    if (const aview* id = r.raw("id")) {
        out.has_id = true;
        if (sweep_state != nullptr) {
            sweep_state->id_view = id;
        }
    }
    out.has_deadline = false;
    out.deadline_ms = 0;
    if (r.raw("deadline_ms") != nullptr) {
        out.deadline_ms = r.uinteger("deadline_ms", 0);
        out.has_deadline = true;
    }
    out.has_trace = false;
    if (const aview* trace = r.raw("trace_id")) {
        if (!trace->is_string()) {
            throw request_error("bad_param",
                                "request: field 'trace_id' must be a string");
        }
        // `request::trace_id` stays untouched on the fast path (assigning
        // could allocate); the echo reads the arena-backed view instead.
        out.has_trace = true;
        if (sweep_state != nullptr) {
            sweep_state->trace_view = trace;
        }
    }

    switch (*op) {
        case op_code::cost_tr: parse_cost_tr_fast(r, out); break;
        case op_code::gross_die: parse_gross_die_fast(r, out); break;
        case op_code::yield: parse_yield_fast(r, out); break;
        case op_code::scenario1: parse_scenario1_fast(r, out); break;
        case op_code::scenario2: parse_scenario2_fast(r, out); break;
        case op_code::table3: parse_table3_fast(r, out); break;
        case op_code::mc_yield: parse_mc_yield_fast(r, out); break;
        case op_code::sweep:
            if (sweep_state == nullptr) {
                // A sweep as a sweep target: its parent always rejects
                // it, but only after it parsed, so an error inside it is
                // the one parse_request raises.  Parse it recursively, in
                // heap scratch of its own (error path only).
                nested = std::make_unique<fast_parse_state>();
                sweep_state = nested.get();
            }
            parse_sweep_fast(r, *sweep_state);
            break;
        case op_code::stats:
            ensure_payload<stats_request>(out);
            break;
        case op_code::chiplet: parse_chiplet_fast(r, out); break;
        case op_code::partition_explore:
            parse_partition_explore_fast(r, out);
            break;
    }
    r.forbid_unknown();

    key_out.clear();
    switch (*op) {
        case op_code::sweep:
            emit_sweep_key(std::get<sweep_request>(sweep_state->req.payload),
                           sweep_state->target_key, key_out);
            break;
        default:
            canonical_key_into(out, key_out);
            break;
    }
}

void parse_sweep_fast(fast_reader& r, fast_parse_state& st) {
    sweep_request& out = ensure_payload<sweep_request>(st.req);

    const aview* target = r.raw("target");
    if (target == nullptr) {
        throw request_error("bad_param", "sweep: 'target' is required");
    }
    require_object_fast(*target, "sweep.target");
    if (target->find("id") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry an 'id'");
    }
    if (target->find("deadline_ms") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry a 'deadline_ms'");
    }
    if (target->find("trace_id") != nullptr) {
        throw request_error("bad_param",
                            "sweep.target: must not carry a 'trace_id'");
    }

    parse_request_fast_inner(*target, st.target_req, st.target_key,
                             /*sweep_state=*/nullptr);
    if (st.target_req.op == op_code::sweep ||
        st.target_req.op == op_code::stats ||
        primary_metric(st.target_req.op) == nullptr) {
        throw request_error(
            "bad_param",
            "sweep: target op '" +
                std::string{to_string(st.target_req.op)} +
                "' has no sweepable scalar metric");
    }

    const aview* param = r.raw("param");
    if (param == nullptr || !param->is_string()) {
        throw request_error("bad_param",
                            "sweep: 'param' must be a string path");
    }
    out.param.assign(param->string);

    if (!numeric_param_exists(st.target_req, out.param)) {
        throw request_error("bad_param",
                            "sweep: param '" + out.param +
                                "' does not address a numeric parameter of "
                                "the target");
    }
    // Unlike parse_request, `target` stays empty (attaching it would
    // allocate): the key needs only `target_key`, and a cache miss
    // evaluates from `st.target_req`.

    const aview* from = r.raw("from");
    const aview* to_v = r.raw("to");
    if (from == nullptr || !from->is_number() || to_v == nullptr ||
        !to_v->is_number()) {
        throw request_error("bad_param",
                            "sweep: 'from' and 'to' must be numbers");
    }
    out.from = from->number;
    out.to = to_v->number;
    if (!std::isfinite(out.from) || !std::isfinite(out.to)) {
        throw request_error("bad_param",
                            "sweep: 'from'/'to' must be finite");
    }

    out.count = r.integer("count", out.count);
    if (out.count < 1 || out.count > 65536) {
        throw request_error("bad_param",
                            "sweep: count must be in [1, 65536]");
    }
    r.text_into("scale", out.scale);
    if (out.scale != "linear" && out.scale != "log") {
        throw request_error("bad_param",
                            "sweep: scale must be 'linear' or 'log'");
    }
    if (out.scale == "log" && (!(out.from > 0.0) || !(out.to > 0.0))) {
        throw request_error(
            "bad_param", "sweep: log scale requires positive 'from'/'to'");
    }
}

}  // namespace

void parse_request_fast(const json::aview& doc, fast_parse_state& st) {
    st.id_view = nullptr;
    st.trace_view = nullptr;
    parse_request_fast_inner(doc, st.req, st.req.canonical_key, &st);
}

void canonical_key_into(const request& r, std::string& out) {
    switch (r.op) {
        case op_code::cost_tr:
            emit_cost_tr_key(std::get<cost_tr_request>(r.payload), out);
            break;
        case op_code::gross_die:
            emit_gross_die_key(std::get<gross_die_request>(r.payload), out);
            break;
        case op_code::yield:
            emit_yield_key(std::get<yield_request>(r.payload), out);
            break;
        case op_code::scenario1:
            emit_scenario1_key(std::get<scenario1_request>(r.payload), out);
            break;
        case op_code::scenario2:
            emit_scenario2_key(std::get<scenario2_request>(r.payload), out);
            break;
        case op_code::table3:
            emit_table3_key(std::get<table3_request>(r.payload), out);
            break;
        case op_code::mc_yield:
            emit_mc_yield_key(std::get<mc_yield_request>(r.payload), out);
            break;
        case op_code::sweep: {
            // Sweeps from parse_request (`target` set);
            // parse_request_fast splices the target key it canonicalized
            // while parsing.
            const auto& q = std::get<sweep_request>(r.payload);
            std::string target_key;
            canonical_key_into(*q.target, target_key);
            emit_sweep_key(q, target_key, out);
            break;
        }
        case op_code::stats:
            out += "{\"op\":\"stats\"}";
            break;
        case op_code::chiplet:
            emit_chiplet_key(std::get<chiplet_request>(r.payload), out);
            break;
        case op_code::partition_explore:
            emit_partition_explore_key(
                std::get<partition_explore_request>(r.payload), out);
            break;
    }
}

// ---------------------------------------------------------------------------
// Numeric parameter tables (the numeric members of request_to_json)
// ---------------------------------------------------------------------------

namespace {

double* cost_tr_param(cost_tr_request& q, std::string_view p) {
    if (p == "process.c0_usd") return &q.process.c0_usd;
    if (p == "process.x") return &q.process.x;
    if (p == "process.generation_step_um") return &q.process.generation_step_um;
    if (p == "process.wafer_radius_cm") return &q.process.wafer_radius_cm;
    if (p == "process.edge_exclusion_cm") return &q.process.edge_exclusion_cm;
    if (p == "process.yield.y0") return &q.process.yield.y0;
    if (p == "process.yield.a0_cm2") return &q.process.yield.a0_cm2;
    if (p == "process.yield.d") return &q.process.yield.d;
    if (p == "process.yield.p") return &q.process.yield.p;
    if (p == "process.yield.fixed") return &q.process.yield.fixed;
    if (p == "product.transistors") return &q.product.transistors;
    if (p == "product.design_density") return &q.product.design_density;
    if (p == "product.feature_size_um") return &q.product.feature_size_um;
    if (p == "product.die_aspect_ratio") return &q.product.die_aspect_ratio;
    if (p == "economics.overhead_usd") return &q.economics.overhead_usd;
    if (p == "economics.volume_wafers") return &q.economics.volume_wafers;
    return nullptr;
}

double* gross_die_param(gross_die_request& q, std::string_view p) {
    if (p == "wafer_radius_cm") return &q.wafer_radius_cm;
    if (p == "edge_exclusion_cm") return &q.edge_exclusion_cm;
    if (p == "die_width_mm") return &q.die_width_mm;
    if (p == "die_height_mm") return &q.die_height_mm;
    if (p == "scribe_mm") return &q.scribe_mm;
    return nullptr;
}

double* yield_param(yield_request& q, std::string_view p) {
    if (p == "expected_faults") return &q.expected_faults;
    if (p == "die_area_cm2") return &q.die_area_cm2;
    if (p == "defects_per_cm2") return &q.defects_per_cm2;
    if (p == "alpha") return &q.alpha;
    if (p == "d") return &q.d;
    if (p == "p") return &q.p;
    if (p == "lambda_um") return &q.lambda_um;
    if (p == "y0") return &q.y0;
    if (p == "a0_cm2") return &q.a0_cm2;
    return nullptr;
}

double* scenario1_param(scenario1_request& q, std::string_view p) {
    if (p == "lambda_um") return &q.lambda_um;
    if (p == "c0_usd") return &q.c0_usd;
    if (p == "x") return &q.x;
    if (p == "wafer_radius_cm") return &q.wafer_radius_cm;
    if (p == "design_density") return &q.design_density;
    return nullptr;
}

double* scenario2_param(scenario2_request& q, std::string_view p) {
    if (p == "lambda_um") return &q.lambda_um;
    if (p == "c0_usd") return &q.c0_usd;
    if (p == "x") return &q.x;
    if (p == "wafer_radius_cm") return &q.wafer_radius_cm;
    if (p == "design_density") return &q.design_density;
    if (p == "y0") return &q.y0;
    return nullptr;
}

double* chiplet_param(chiplet_request& q, std::string_view p) {
    if (p == "logic_area_mm2") return &q.logic_area_mm2;
    if (p == "memory_area_mm2") return &q.memory_area_mm2;
    if (p == "io_area_mm2") return &q.io_area_mm2;
    if (p == "d2d_area_mm2") return &q.d2d_area_mm2;
    if (p == "lambda_um") return &q.lambda_um;
    if (p == "c0_usd") return &q.c0_usd;
    if (p == "x") return &q.x;
    if (p == "generation_step_um") return &q.generation_step_um;
    if (p == "wafer_radius_cm") return &q.wafer_radius_cm;
    if (p == "edge_exclusion_cm") return &q.edge_exclusion_cm;
    if (p == "defects_per_cm2") return &q.defects_per_cm2;
    if (p == "memory_defect_factor") return &q.memory_defect_factor;
    if (p == "io_defect_factor") return &q.io_defect_factor;
    if (p == "clustering_alpha") return &q.clustering_alpha;
    if (p == "test_coverage") return &q.test_coverage;
    if (p == "tester_rate_per_hour") return &q.tester_rate_per_hour;
    if (p == "test_seconds_fixed") return &q.test_seconds_fixed;
    if (p == "test_seconds_per_cm2") return &q.test_seconds_per_cm2;
    if (p == "substrate_cost_per_cm2") return &q.substrate_cost_per_cm2;
    if (p == "rdl_cost_per_cm2") return &q.rdl_cost_per_cm2;
    if (p == "rdl_defects_per_cm2") return &q.rdl_defects_per_cm2;
    if (p == "interposer_cost_per_cm2") return &q.interposer_cost_per_cm2;
    if (p == "interposer_defects_per_cm2") {
        return &q.interposer_defects_per_cm2;
    }
    if (p == "package_area_factor") return &q.package_area_factor;
    if (p == "bond_yield") return &q.bond_yield;
    if (p == "bonding_cost_per_chiplet") return &q.bonding_cost_per_chiplet;
    return nullptr;
}

double* mc_yield_param(mc_yield_request& q, std::string_view p) {
    if (p == "line_width_um") return &q.line_width_um;
    if (p == "line_spacing_um") return &q.line_spacing_um;
    if (p == "line_length_um") return &q.line_length_um;
    if (p == "defect_r0_um") return &q.defect_r0_um;
    if (p == "defect_p") return &q.defect_p;
    if (p == "defect_q") return &q.defect_q;
    if (p == "defects_per_um2") return &q.defects_per_um2;
    if (p == "extra_material_fraction") return &q.extra_material_fraction;
    return nullptr;
}

/// Numeric members serialized from integer storage: addressable by a
/// sweep, but not double-pokeable (set_numeric_param checks them).
bool integer_param_exists(const request& r, std::string_view p) {
    switch (r.op) {
        case op_code::yield:
            return p == "critical_steps";
        case op_code::mc_yield:
            return p == "line_count" || p == "dies" || p == "seed";
        case op_code::table3:
            return p == "row";
        case op_code::chiplet:
            return p == "chiplets";
        default:
            return false;
    }
}

}  // namespace

double* numeric_param_ptr(request& r, std::string_view path) {
    switch (r.op) {
        case op_code::cost_tr:
            return cost_tr_param(std::get<cost_tr_request>(r.payload), path);
        case op_code::gross_die:
            return gross_die_param(std::get<gross_die_request>(r.payload),
                                   path);
        case op_code::yield:
            return yield_param(std::get<yield_request>(r.payload), path);
        case op_code::scenario1:
            return scenario1_param(std::get<scenario1_request>(r.payload),
                                   path);
        case op_code::scenario2:
            return scenario2_param(std::get<scenario2_request>(r.payload),
                                   path);
        case op_code::mc_yield:
            return mc_yield_param(std::get<mc_yield_request>(r.payload),
                                  path);
        case op_code::chiplet:
            return chiplet_param(std::get<chiplet_request>(r.payload), path);
        case op_code::table3:
        case op_code::sweep:
        case op_code::stats:
        case op_code::partition_explore:
            return nullptr;
    }
    return nullptr;
}

bool numeric_param_exists(const request& r, std::string_view path) {
    if (integer_param_exists(r, path)) {
        return true;
    }
    // The pointer table never writes through a const request.
    return numeric_param_ptr(const_cast<request&>(r), path) != nullptr;
}

double numeric_param_value(const request& r, std::string_view path) {
    // The pointer table never writes through a const request.
    if (const double* slot = numeric_param_ptr(const_cast<request&>(r), path)) {
        return *slot;
    }
    switch (r.op) {
        case op_code::yield:
            return std::get<yield_request>(r.payload).critical_steps;
        case op_code::mc_yield: {
            const auto& q = std::get<mc_yield_request>(r.payload);
            return path == "seed"   ? static_cast<double>(q.seed)
                   : path == "dies" ? q.dies
                                    : q.line_count;
        }
        case op_code::table3:
            return std::get<table3_request>(r.payload).row;
        default:
            return std::get<chiplet_request>(r.payload).chiplets;
    }
}

void set_numeric_param(request& r, std::string_view path, double v) {
    if (double* slot = numeric_param_ptr(r, path)) {
        *slot = v;
        return;
    }
    if (path == "seed") {  // mc_yield's only unsigned parameter
        if (!is_uint53_value(v)) {
            throw request_error("bad_param", "sweep: lane is not a seed");
        }
        std::get<mc_yield_request>(r.payload).seed =
            static_cast<std::uint64_t>(v);
        return;
    }
    if (!is_int_value(v)) {
        throw request_error("bad_param", "sweep: lane is not an integer");
    }
    const int i = static_cast<int>(v);
    if (r.op == op_code::yield) {
        std::get<yield_request>(r.payload).critical_steps = i;
    } else if (r.op == op_code::mc_yield) {
        auto& q = std::get<mc_yield_request>(r.payload);
        (path == "dies" ? q.dies : q.line_count) = i;
        check_mc_dies(q.dies);
    } else {
        std::get<chiplet_request>(r.payload).chiplets = i;
        check_chiplets(i);
    }
}

lane_key_template::lane_key_template(
    const request& base, std::span<const std::string_view> params)
    : params_(params.begin(), params.end()) {
    // Render the key twice, with parameter i at 11 + i and then at
    // 14 + i: two-digit sentinels every parameter accepts (chiplets
    // included), so the renders align byte for byte and differ exactly
    // inside the holes.
    if (params_.size() > 3) {
        throw std::logic_error("lane_key_template: more than three holes");
    }
    request first = base;
    request second = base;
    for (std::size_t i = 0; i < params_.size(); ++i) {
        set_numeric_param(first, params_[i], static_cast<double>(11 + i));
        set_numeric_param(second, params_[i], static_cast<double>(14 + i));
    }
    std::string a;
    std::string b;
    canonical_key_into(first, a);
    canonical_key_into(second, b);
    const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
    std::vector<bool> found(params_.size(), false);
    std::size_t copied = 0;
    std::size_t i = 0;
    while (a.size() == b.size() && i < a.size()) {
        if (a[i] == b[i]) {
            ++i;
            continue;
        }
        std::size_t begin = i;
        while (begin > 0 && is_digit(a[begin - 1])) {
            --begin;
        }
        std::size_t end = i;
        while (end < a.size() && is_digit(a[end])) {
            ++end;
        }
        const std::string_view token{a.data() + begin, end - begin};
        const std::size_t param =
            token.size() == 2 && token[0] == '1'
                ? static_cast<std::size_t>(token[1] - '1')
                : params_.size();
        if (param >= params_.size() || found[param] ||
            std::string_view{b}.substr(begin, end - begin) !=
                std::to_string(14 + param)) {
            break;  // not a sentinel: reported below
        }
        found[param] = true;
        text_.append(a, copied, begin - copied);
        holes_.push_back({text_.size(), param});
        copied = end;
        i = end;
    }
    if (a.size() != b.size() || holes_.size() != params_.size()) {
        throw std::logic_error(
            "lane_key_template: a parameter is not one number of the key");
    }
    text_.append(a, copied);
}

void lane_key_template::key_into(const request& lane, std::string& out) const {
    std::size_t at = 0;
    for (const hole& h : holes_) {
        out.append(text_.data() + at, h.end - at);
        json::format_number_into(numeric_param_value(lane, params_[h.param]),
                                 out);
        at = h.end;
    }
    out.append(text_.data() + at, text_.size() - at);
}

}  // namespace silicon::serve
