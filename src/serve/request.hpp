// request.hpp — the typed request schema of the serve protocol.
//
// A request is one JSON object per line:
//
//     {"op": "<endpoint>", "id": <any>, ...endpoint parameters...}
//
// `op` selects the endpoint, the optional `id` is echoed verbatim in
// the response, and every other member is an endpoint parameter.  All
// parameters have documented defaults, so `{"op":"scenario1"}` is a
// complete request.  Parsing is strict: unknown members, wrong types
// and malformed ranges produce a `request_error` whose code/message
// land in the error response — a client typo never silently evaluates
// the wrong model.
//
// Canonicalization: `parse_request` re-serializes the *typed* request
// (every parameter explicit, defaults filled in, keys sorted) into
// `request::canonical_key`.  Two requests that mean the same
// evaluation — regardless of member order or omitted defaults — map to
// the same key, which is what the engine's memoization cache keys on.
//
// Endpoints:
//
//   cost_tr    Eq. (1) full cost breakdown for product x process x economics
//   gross_die  Eq. (4) family: dies-per-wafer for a die/wafer/method
//   yield      the yield-model family evaluated at one operating point
//   scenario1  Eq. (8), the paper's optimistic memory scenario
//   scenario2  Eq. (9), the realistic custom-logic scenario
//   table3     the 17-row Table 3 reproduction (one row or all)
//   mc_yield   Monte-Carlo defect-injection yield on a wire array
//   sweep      evaluate any endpoint above over a 1-D parameter grid
//   stats      engine cache/metrics snapshot (never cached, no golden)
//   chiplet    multi-die system cost breakdown (src/chiplet composition)
//   partition_explore  monolithic-vs-N-way split cost over a total-area grid

#pragma once

#include "serve/json.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>

namespace silicon::serve {

/// Endpoint selector.  Order is the wire-name registry and the metrics
/// index; append only.
enum class op_code {
    cost_tr,
    gross_die,
    yield,
    scenario1,
    scenario2,
    table3,
    mc_yield,
    sweep,
    stats,
    chiplet,
    partition_explore,
};

inline constexpr int op_count = 11;

/// Wire name of an endpoint ("cost_tr", "gross_die", ...).
[[nodiscard]] std::string_view to_string(op_code op);

/// Inverse of to_string; empty for unknown names.
[[nodiscard]] std::optional<op_code> op_from_string(std::string_view name);

/// Schema violation: `code` is a stable machine-readable identifier
/// ("bad_request", "unknown_op", "unknown_field", "bad_param"), the
/// what() string explains the specific problem.
class request_error : public std::runtime_error {
public:
    request_error(std::string code, const std::string& message)
        : std::runtime_error{message}, code_{std::move(code)} {}

    [[nodiscard]] const std::string& code() const noexcept { return code_; }

private:
    std::string code_;
};

// ---------------------------------------------------------------------------
// Endpoint parameter blocks (all defaults are the paper's)
// ---------------------------------------------------------------------------

/// Yield model choice inside a process spec (core::yield_spec mirror).
struct yield_spec_params {
    enum class kind { reference, scaled, fixed };
    kind model = kind::reference;
    double y0 = 0.7;       ///< reference: yield of the A_0 die
    double a0_cm2 = 1.0;   ///< reference: die area of the Y_0 observation
    double d = 1.72;       ///< scaled: Eq. (7) defect parameter D
    double p = 4.07;       ///< scaled: defect size tail exponent
    double fixed = 1.0;    ///< fixed: constant yield (Scenario #1 style)
};

/// core::process_spec mirror.
struct process_params {
    double c0_usd = 500.0;             ///< Eq. (3) reference wafer cost
    double x = 1.5;                    ///< per-generation escalation
    double generation_step_um = 0.2;   ///< Eq. (3) generation step
    double wafer_radius_cm = 7.5;      ///< R_w (6-inch default)
    double edge_exclusion_cm = 0.0;
    std::string gross_die_method = "maly_rows";
    yield_spec_params yield;
};

/// core::product_spec mirror.
struct product_params {
    std::string name = "product";
    double transistors = 1e6;
    double design_density = 150.0;
    double feature_size_um = 0.8;
    double die_aspect_ratio = 1.0;
};

/// core::economics_spec mirror.
struct economics_params {
    double overhead_usd = 0.0;
    double volume_wafers = 1.0;
};

struct cost_tr_request {
    process_params process;
    product_params product;
    economics_params economics;
};

struct gross_die_request {
    double wafer_radius_cm = 7.5;
    double edge_exclusion_cm = 0.0;
    double die_width_mm = 10.0;
    double die_height_mm = 10.0;
    std::string method = "maly_rows";
    double scribe_mm = 0.0;  ///< only gross_die_method::exact uses it
};

/// One evaluation of the yield-model family.  `model` selects which
/// parameters matter; the fault count is `expected_faults` when >= 0,
/// otherwise die_area_cm2 * defects_per_cm2.
struct yield_request {
    std::string model = "poisson";  ///< poisson | murphy | seeds |
                                    ///< bose_einstein | neg_binomial |
                                    ///< scaled_poisson | reference
    double expected_faults = -1.0;  ///< < 0 = derive from area * density
    double die_area_cm2 = 1.0;
    double defects_per_cm2 = 1.0;
    int critical_steps = 10;        ///< bose_einstein
    double alpha = 2.0;             ///< neg_binomial
    double d = 1.72;                ///< scaled_poisson
    double p = 4.07;                ///< scaled_poisson
    double lambda_um = 0.8;         ///< scaled_poisson
    double y0 = 0.7;                ///< reference
    double a0_cm2 = 1.0;            ///< reference
};

/// Eq. (8) with the Fig. 6 defaults.
struct scenario1_request {
    double lambda_um = 0.8;
    double c0_usd = 500.0;
    double x = 1.2;
    double wafer_radius_cm = 7.5;
    double design_density = 30.0;
};

/// Eq. (9) with the Fig. 7 defaults.
struct scenario2_request {
    double lambda_um = 0.8;
    double c0_usd = 500.0;
    double x = 1.8;
    double wafer_radius_cm = 7.5;
    double design_density = 200.0;
    double y0 = 0.7;
};

struct table3_request {
    int row = 0;  ///< 1-17 = one row, 0 = whole table + separation
};

/// Monte-Carlo defect injection on the canonical wire-array layout.
/// The engine runs it at its own parallelism; results are thread-count
/// invariant by the exec determinism contract, so `parallelism` is
/// deliberately NOT part of the schema (it would split cache keys for
/// identical results).
struct mc_yield_request {
    double line_width_um = 1.0;
    double line_spacing_um = 1.2;
    double line_length_um = 150.0;
    int line_count = 15;
    double defect_r0_um = 0.6;   ///< Fig. 5 peak radius
    double defect_p = 4.07;      ///< Fig. 5 tail exponent
    double defect_q = 1.0;       ///< Fig. 5 rising-branch exponent
    int dies = 10000;
    double defects_per_um2 = 1e-4;
    double extra_material_fraction = 0.5;
    std::uint64_t seed = 0x5eed;
};

struct request;

/// Evaluate `target` over a 1-D grid of `count` points on
/// [from, to] (inclusive, linear or log spacing) applied to the
/// parameter named by `param` (dotted path for nested members, e.g.
/// "product.feature_size_um").  The response pairs `xs` with the
/// target endpoint's primary scalar metric; infeasible points yield
/// null.  Targets `sweep` and `stats` are rejected.
struct sweep_request {
    std::shared_ptr<const request> target;  ///< parsed target (canonical)
    std::string param;
    double from = 0.0;
    double to = 1.0;
    int count = 2;
    std::string scale = "linear";  ///< linear | log
};

struct stats_request {};

/// chiplet::chiplet_spec mirror (src/chiplet/model.hpp documents the
/// model).  Flat scalars + SSO strings only, so the hot path's
/// capacity-preserving payload reset keeps warm point queries
/// allocation-free.
struct chiplet_request {
    int chiplets = 1;  ///< [1, 16]; 1 = monolithic baseline
    double logic_area_mm2 = 350.0;
    double memory_area_mm2 = 150.0;
    double io_area_mm2 = 100.0;
    double d2d_area_mm2 = 5.0;
    double lambda_um = 0.5;
    double c0_usd = 5000.0;
    double x = 1.5;
    double generation_step_um = 0.2;
    double wafer_radius_cm = 15.0;
    double edge_exclusion_cm = 0.0;
    double defects_per_cm2 = 0.5;
    double memory_defect_factor = 0.5;
    double io_defect_factor = 0.3;
    double clustering_alpha = 2.0;
    double test_coverage = 0.98;
    double tester_rate_per_hour = 3600.0;
    double test_seconds_fixed = 0.5;
    double test_seconds_per_cm2 = 1.0;
    std::string substrate = "organic";  ///< organic | rdl | interposer
    double substrate_cost_per_cm2 = 0.5;
    double rdl_cost_per_cm2 = 2.0;
    double rdl_defects_per_cm2 = 0.05;
    double interposer_cost_per_cm2 = 8.0;
    double interposer_defects_per_cm2 = 0.2;
    double package_area_factor = 1.1;
    double bond_yield = 0.99;
    double bonding_cost_per_chiplet = 0.5;
};

/// Sweep monolithic-vs-N-way chiplet splits of one configuration over
/// a total-area grid.  `base.chiplets` is fixed at 1 and not part of
/// the schema — the split counts come from `splits`, a strict
/// comma-separated ascending list that must include 1 (the monolithic
/// baseline every crossover is measured against).  The grid rescales
/// the base logic+memory+IO budget to each total area, preserving
/// ratios.  Admission-budgeted like `sweep`: splits x count grid cells
/// count against max_sweep_points.
struct partition_explore_request {
    chiplet_request base;
    std::string splits = "1,2,4";  ///< ascending, in [1,16], includes 1
    double area_from_mm2 = 40.0;
    double area_to_mm2 = 1000.0;
    int count = 32;                ///< [1, 65536]
    std::string scale = "linear";  ///< linear | log
};

// ---------------------------------------------------------------------------
// The request envelope
// ---------------------------------------------------------------------------

using request_payload =
    std::variant<cost_tr_request, gross_die_request, yield_request,
                 scenario1_request, scenario2_request, table3_request,
                 mc_yield_request, sweep_request, stats_request,
                 chiplet_request, partition_explore_request>;

struct request {
    op_code op = op_code::stats;
    request_payload payload;
    json::value id;        ///< echoed in the response
    bool has_id = false;
    /// Per-request deadline budget in milliseconds, measured from the
    /// moment the serving layer starts the line.  Envelope-level like
    /// `id` (excluded from the canonical key); 0 with has_deadline set
    /// means "already expired".
    std::uint64_t deadline_ms = 0;
    bool has_deadline = false;
    /// Client-supplied trace identifier, echoed as `trace_id` in the
    /// response envelope (success and error alike).  Envelope-level
    /// like `id` and `deadline_ms`: excluded from the canonical key so
    /// tracing never splits the memoization cache.
    std::string trace_id;
    bool has_trace = false;
    /// Canonical serialization of (op, fully-explicit params) — the
    /// memoization cache key.  Excludes `id` and `deadline_ms`.
    std::string canonical_key;
};

/// Parse and validate one request document.  Throws request_error on
/// any schema violation; throws nothing else for any input.
[[nodiscard]] request parse_request(const json::value& doc);

/// The typed request re-serialized with every parameter explicit
/// (defaults filled in), as an object {"op": ..., <params>}.  `id` is
/// not included.  `canonical_key == json::canonical(request_to_json(r))`.
[[nodiscard]] json::value request_to_json(const request& r);

/// Integer checks shared by parse_request, parse_request_fast and the
/// sweep lane setter, so a lane is null exactly when its point request
/// is rejected: integral within the int range / within [0, 2^53], and
/// (throwing bad_param) dies in [1, 1e8], chiplets in [1, 16].
[[nodiscard]] inline bool is_int_value(double v) noexcept {
    return v == std::floor(v) && std::abs(v) <= 2147483647.0;
}
[[nodiscard]] inline bool is_uint53_value(double v) noexcept {
    return v == std::floor(v) && v >= 0.0 && v <= 9007199254740992.0;
}
void check_mc_dies(int dies);
void check_chiplets(int chiplets);

/// Parse-time name registries and the `splits` grammar, shared by
/// parse_request and parse_request_fast: a typo'd model or method name
/// fails the request (bad_param) before anything is evaluated or cached.
void validate_gross_die_method(const std::string& name, const char* context);
void validate_yield_model(const std::string& name);
void validate_substrate(const std::string& name);
void validate_splits(const std::string& s);

/// The response member holding the endpoint's primary scalar — the
/// value a sweep extracts per grid point.  nullptr for endpoints that
/// have no scalar (table3, sweep, stats), which are invalid sweep
/// targets.
[[nodiscard]] const char* primary_metric(op_code op);

}  // namespace silicon::serve
