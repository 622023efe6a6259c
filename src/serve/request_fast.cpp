#include "serve/request_fast.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

// Each parameter block of the request schema is declared once below, as
// an ordered table of fields, and three pieces of generic code walk the
// tables:
//   - `read_block` parses a block's fields in declared order, each
//     field's check right after it and the block's check after all of
//     them.  The order is request.cpp's `parse_request` order, so the
//     first bad field throws first and an unknown field throws last;
//   - `write_key` writes the same fields in bytewise-sorted name order,
//     "op" at its sorted place, an order computed once per block;
//   - `find_numeric` resolves a sweep's dotted parameter path to its
//     member, once per grid for `numeric_param`, which then binds every
//     lane by offset.
// tests/serve/test_hotpath.cpp compares the parser and the key writer
// with `parse_request` and json::canonical(request_to_json(r)) on a
// corpus generated over every field of every op.

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

    [[nodiscard]] const char* context() const { return context_; }

    /// Member `key`, marked as read (nullptr when absent).
    [[nodiscard]] const aview* raw(std::string_view key) {
        if (consumed_count_ >= consumed_.size()) {
            // Bounds the keys an endpoint's code reads, which no input
            // can raise: reaching it is a bug in this file.
            throw std::logic_error("fast_reader: too many fields read");
        }
        consumed_[consumed_count_++] = key;
        return o_.find(key);
    }

    [[noreturn]] void fail_type(std::string_view key,
                                const char* wanted) const {
        throw request_error("bad_param", std::string{context_} + ": field '" +
                                             std::string{key} +
                                             "' must be " + wanted);
    }

    void forbid_unknown() const {
        const auto* read_end = consumed_.begin() + consumed_count_;
        for (std::uint32_t i = 0; i < o_.count; ++i) {
            const std::string_view key = o_.members[i].key;
            if (std::find(consumed_.begin(), read_end, key) == read_end) {
                throw request_error("unknown_field",
                                    std::string{context_} +
                                        ": unknown field '" +
                                        std::string{key} + "'");
            }
        }
    }

  private:
    const aview& o_;
    const char* context_;
    // Sized for the widest reader: partition_explore consumes
    // op + id + deadline_ms + trace_id + 27 base fields +
    // splits/area/count/scale.
    std::array<std::string_view, 40> consumed_{};
    std::size_t consumed_count_ = 0;
};

const aview& require_object(const aview& v, const char* context) {
    if (!v.is_object()) {
        throw request_error("bad_param",
                            std::string{context} + " must be a JSON object");
    }
    return v;
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
// The field tables
// ---------------------------------------------------------------------------

enum class field_kind : std::uint8_t {
    // The numbers first: a kind up to uint53 is a number of the key.
    number,       ///< double
    integer,      ///< int, integral within the int range
    uint53,       ///< std::uint64_t, integral within [0, 2^53]
    text,         ///< std::string
    yield_model,  ///< yield_spec_params::kind, written as its name
    block,        ///< a nested JSON object of its own block
    spliced,      ///< a block whose fields sit in this same JSON object
};

constexpr std::array<std::string_view, 3> yield_model_names = {
    "reference", "scaled", "fixed"};

struct block_table;

/// Runs on the block holding a field (or on the block itself) and throws
/// request_error when the values read so far are invalid.
using block_check = void (*)(const void* block);

struct field_entry {
    std::string_view name;
    field_kind kind;
    std::size_t offset;                   ///< of the member in its block
    const block_table* nested = nullptr;  ///< block and spliced
    block_check check = nullptr;          ///< right after the field is read
};

/// One member of a block's canonical key: `text` (`{"name":` or
/// `,"name":`), then the value of `field` at `offset` (spliced blocks
/// flattened).  "op" is all text: `,"op":"<op>"`, no field.
struct key_member {
    std::string text;
    const field_entry* field;
    std::size_t offset;
};

struct block_table {
    const char* context;  ///< a nested object's name in error messages
    std::vector<field_entry> fields;  ///< declared order: the parse order
    block_check check;                ///< after all fields are read
    /// A payload block's reset: r.payload at this block's type and
    /// defaults, returned as the block's address.
    void* (*reset)(request&);
    std::vector<key_member> key;  ///< bytewise-sorted name order
};

template <class M>
M& member_at(char* p) {
    return *reinterpret_cast<M*>(p);
}

template <class M>
const M& member_at(const char* p) {
    return *reinterpret_cast<const M*>(p);
}

/// The number a numeric member holds, as its key writes it.
template <class M>
double number_of(const char* member) {
    return static_cast<double>(member_at<M>(member));
}

/// The number a member of a numeric `kind` holds.
double number_at(field_kind kind, const char* member) {
    switch (kind) {
        case field_kind::integer: return number_of<int>(member);
        case field_kind::uint53: return number_of<std::uint64_t>(member);
        default: return number_of<double>(member);
    }
}

using number_fn = double (*)(const char* member);

number_fn number_reader(field_kind kind) {
    switch (kind) {
        case field_kind::integer: return &number_of<int>;
        case field_kind::uint53: return &number_of<std::uint64_t>;
        default: return &number_of<double>;
    }
}

template <class T, class M>
std::size_t offset_of(M T::*m) {
    static const T probe{};
    return static_cast<std::size_t>(
        reinterpret_cast<const char*>(&(probe.*m)) -
        reinterpret_cast<const char*>(&probe));
}

/// A field of this block's JSON object, its kind from its type.
template <class T, class M>
field_entry field(std::string_view name, M T::*m,
                  block_check check = nullptr) {
    field_kind kind = field_kind::number;
    if constexpr (std::is_same_v<M, int>) {
        kind = field_kind::integer;
    } else if constexpr (std::is_same_v<M, std::uint64_t>) {
        kind = field_kind::uint53;
    } else if constexpr (std::is_same_v<M, std::string>) {
        kind = field_kind::text;
    } else if constexpr (std::is_same_v<M, yield_spec_params::kind>) {
        kind = field_kind::yield_model;
    } else {
        static_assert(std::is_same_v<M, double>);
    }
    return {name, kind, offset_of(m), nullptr, check};
}

/// A field holding a nested JSON object of block `b`.
template <class T, class M>
field_entry field(std::string_view name, M T::*m, const block_table& b) {
    return {name, field_kind::block, offset_of(m), &b, nullptr};
}

/// Block `b`'s fields, at `offset`, read from this same JSON object.
field_entry spliced(std::size_t offset, const block_table& b) {
    return {"", field_kind::spliced, offset, &b, nullptr};
}

block_table object_block(const char* context,
                         std::vector<field_entry> fields) {
    return {context, std::move(fields), nullptr, nullptr, {}};
}

template <class T>
block_table payload_block(std::vector<field_entry> fields,
                          block_check check = nullptr) {
    return {nullptr, std::move(fields), check,
            [](request& r) -> void* { return &ensure_payload<T>(r); }, {}};
}

template <class T, class M>
T owner_of(M T::*);  // declared only: the class of a member pointer

/// A check of member `M` alone, by `check` on its value.
template <auto M, auto check>
void member_check(const void* block) {
    using T = decltype(owner_of(M));
    check(static_cast<const T*>(block)->*M);
}

void check_range(int v, int lo, int hi, const char* message) {
    if (v < lo || v > hi) {
        throw request_error("bad_param", message);
    }
}

void check_scale(const std::string& scale, const char* message) {
    if (scale != "linear" && scale != "log") {
        throw request_error("bad_param", message);
    }
}

// The checks of request.cpp's parse_request that are not shared with it.
void check_process_method(const std::string& method) {
    validate_gross_die_method(method, "process.gross_die_method");
}
void check_method(const std::string& method) {
    validate_gross_die_method(method, "method");
}
void check_row(int row) {
    check_range(row, 0, 17, "table3: row must be 0 (all) or 1-17");
}
void check_explore_count(int count) {
    check_range(count, 1, 65536,
                "partition_explore: count must be in [1, 65536]");
}
void check_explore_scale(const std::string& scale) {
    check_scale(scale, "partition_explore: scale must be 'linear' or 'log'");
}
void check_explore_areas(const void* block) {
    const auto& q = *static_cast<const partition_explore_request*>(block);
    if (!std::isfinite(q.area_from_mm2) || !(q.area_from_mm2 > 0.0) ||
        !std::isfinite(q.area_to_mm2) || !(q.area_to_mm2 > 0.0)) {
        throw request_error("bad_param",
                            "partition_explore: area_from_mm2/area_to_mm2 "
                            "must be finite and positive");
    }
}

/// Appends block `b`'s fields at `at` as key members named by `text`,
/// spliced blocks flattened.
void flatten(const block_table& b, std::size_t at,
             std::vector<key_member>& out) {
    for (const field_entry& f : b.fields) {
        if (f.kind == field_kind::spliced) {
            flatten(*f.nested, at + f.offset, out);
        } else {
            out.push_back({std::string{f.name}, &f, at + f.offset});
        }
    }
}

/// Sorts block `b`'s key members by name, "op" among them for a payload
/// block (`op` not empty), and renders each one's text.
void sort_key(block_table& b, std::string_view op) {
    flatten(b, 0, b.key);
    if (!op.empty()) {
        b.key.push_back({"op", nullptr, 0});
    }
    std::sort(b.key.begin(), b.key.end(),
              [](const key_member& x, const key_member& y) {
                  return x.text < y.text;
              });
    for (key_member& m : b.key) {
        m.text = (&m == &b.key.front() ? "{\"" : ",\"") + m.text + "\":";
        if (m.field == nullptr) {
            json::write_string_into(m.text, op);
        }
    }
}

/// Every block of the request schema, declared in parse order; built
/// once, on first use.
struct schema {
    block_table yield_spec;
    block_table process;
    block_table product;
    block_table economics;
    /// The chiplet configuration of chiplet and partition_explore: every
    /// chiplet_request member but `chiplets`.
    block_table chiplet_base;
    /// One per op_code; sweep's stays empty (its fields parse by hand).
    std::array<block_table, op_count> payloads;

    schema();
    block_table& payload(op_code op) {
        return payloads[static_cast<std::size_t>(op)];
    }
};

// FIELD(m) is the field named like member `m` of the block type `T` in
// scope; CHECKED(m, check) runs `check` on its value right after it.
#define FIELD(m) field(#m, &T::m)
#define CHECKED(m, check) field(#m, &T::m, &member_check<&T::m, check>)

schema::schema() {
    {
        using T = yield_spec_params;
        yield_spec = object_block("process.yield", {FIELD(model), FIELD(y0),
                                                    FIELD(a0_cm2), FIELD(d),
                                                    FIELD(p), FIELD(fixed)});
    }
    {
        using T = process_params;
        process = object_block(
            "process", {FIELD(c0_usd), FIELD(x), FIELD(generation_step_um),
                        FIELD(wafer_radius_cm), FIELD(edge_exclusion_cm),
                        CHECKED(gross_die_method, check_process_method),
                        field("yield", &T::yield, yield_spec)});
    }
    {
        using T = product_params;
        product = object_block(
            "product", {FIELD(name), FIELD(transistors), FIELD(design_density),
                        FIELD(feature_size_um), FIELD(die_aspect_ratio)});
    }
    {
        using T = economics_params;
        economics = object_block("economics",
                                 {FIELD(overhead_usd), FIELD(volume_wafers)});
    }
    {
        using T = chiplet_request;
        chiplet_base = object_block(
            nullptr,
            {FIELD(logic_area_mm2), FIELD(memory_area_mm2), FIELD(io_area_mm2),
             FIELD(d2d_area_mm2), FIELD(lambda_um), FIELD(c0_usd), FIELD(x),
             FIELD(generation_step_um), FIELD(wafer_radius_cm),
             FIELD(edge_exclusion_cm), FIELD(defects_per_cm2),
             FIELD(memory_defect_factor), FIELD(io_defect_factor),
             FIELD(clustering_alpha), FIELD(test_coverage),
             FIELD(tester_rate_per_hour), FIELD(test_seconds_fixed),
             FIELD(test_seconds_per_cm2),
             CHECKED(substrate, validate_substrate),
             FIELD(substrate_cost_per_cm2), FIELD(rdl_cost_per_cm2),
             FIELD(rdl_defects_per_cm2), FIELD(interposer_cost_per_cm2),
             FIELD(interposer_defects_per_cm2), FIELD(package_area_factor),
             FIELD(bond_yield), FIELD(bonding_cost_per_chiplet)});
    }
    {
        using T = cost_tr_request;
        payload(op_code::cost_tr) = payload_block<T>(
            {field("process", &T::process, process),
             field("product", &T::product, product),
             field("economics", &T::economics, economics)});
    }
    {
        using T = gross_die_request;
        payload(op_code::gross_die) = payload_block<T>(
            {FIELD(wafer_radius_cm), FIELD(edge_exclusion_cm),
             FIELD(die_width_mm), FIELD(die_height_mm),
             CHECKED(method, check_method), FIELD(scribe_mm)});
    }
    {
        using T = yield_request;
        payload(op_code::yield) = payload_block<T>(
            {CHECKED(model, validate_yield_model), FIELD(expected_faults),
             FIELD(die_area_cm2), FIELD(defects_per_cm2),
             FIELD(critical_steps), FIELD(alpha), FIELD(d), FIELD(p),
             FIELD(lambda_um), FIELD(y0), FIELD(a0_cm2)});
    }
    {
        using T = scenario1_request;
        payload(op_code::scenario1) = payload_block<T>(
            {FIELD(lambda_um), FIELD(c0_usd), FIELD(x), FIELD(wafer_radius_cm),
             FIELD(design_density)});
    }
    {
        using T = scenario2_request;
        payload(op_code::scenario2) = payload_block<T>(
            {FIELD(lambda_um), FIELD(c0_usd), FIELD(x), FIELD(wafer_radius_cm),
             FIELD(design_density), FIELD(y0)});
    }
    {
        using T = table3_request;
        payload(op_code::table3) = payload_block<T>({CHECKED(row, check_row)});
    }
    {
        using T = mc_yield_request;
        payload(op_code::mc_yield) = payload_block<T>(
            {FIELD(line_width_um), FIELD(line_spacing_um),
             FIELD(line_length_um), FIELD(line_count), FIELD(defect_r0_um),
             FIELD(defect_p), FIELD(defect_q), FIELD(dies),
             FIELD(defects_per_um2), FIELD(extra_material_fraction),
             FIELD(seed)},
            &member_check<&T::dies, check_mc_dies>);
    }
    payload(op_code::stats) = payload_block<stats_request>({});
    {
        using T = chiplet_request;
        payload(op_code::chiplet) = payload_block<T>(
            {CHECKED(chiplets, check_chiplets), spliced(0, chiplet_base)});
    }
    {
        using T = partition_explore_request;
        payload(op_code::partition_explore) = payload_block<T>(
            {spliced(offset_of(&T::base), chiplet_base),
             CHECKED(splits, validate_splits), FIELD(area_from_mm2),
             field("area_to_mm2", &T::area_to_mm2, &check_explore_areas),
             CHECKED(count, check_explore_count),
             CHECKED(scale, check_explore_scale)});
    }

    for (block_table* b : {&yield_spec, &process, &product, &economics}) {
        sort_key(*b, {});
    }
    for (int i = 0; i < op_count; ++i) {
        const auto op = static_cast<op_code>(i);
        if (op != op_code::sweep) {
            sort_key(payload(op), to_string(op));
        }
    }
}

#undef CHECKED
#undef FIELD

const schema& tables() {
    static const schema s;
    return s;
}

/// The table of `op`'s payload; nullptr for a sweep.
const block_table* payload_table(op_code op) {
    return op == op_code::sweep
               ? nullptr
               : &tables().payloads[static_cast<std::size_t>(op)];
}

const char* payload_address(const request& r) {
    return std::visit(
        [](const auto& p) { return reinterpret_cast<const char*>(&p); },
        r.payload);
}

char* payload_address(request& r) {
    return const_cast<char*>(payload_address(std::as_const(r)));
}

// ---------------------------------------------------------------------------
// The parser, the key writer and the parameter finder
// ---------------------------------------------------------------------------

/// Reads scalar member `key` of `kind` into `*p`, which keeps its
/// default when the member is absent.  True when present.
bool read_value(fast_reader& r, std::string_view key, field_kind kind,
                void* p) {
    const aview* v = r.raw(key);
    if (v == nullptr) {
        return false;
    }
    switch (kind) {
        case field_kind::number:
            if (!v->is_number()) {
                r.fail_type(key, "a number");
            }
            *static_cast<double*>(p) = v->number;
            break;
        case field_kind::integer:
            if (!v->is_number() || !is_int_value(v->number)) {
                r.fail_type(key, "an integer");
            }
            *static_cast<int*>(p) = static_cast<int>(v->number);
            break;
        case field_kind::uint53:
            if (!v->is_number() || !is_uint53_value(v->number)) {
                r.fail_type(key, "a non-negative integer (<= 2^53)");
            }
            *static_cast<std::uint64_t*>(p) =
                static_cast<std::uint64_t>(v->number);
            break;
        default: {  // text and yield_model
            if (!v->is_string()) {
                r.fail_type(key, "a string");
            }
            if (kind == field_kind::text) {
                static_cast<std::string*>(p)->assign(v->string);
                break;
            }
            const auto* it = std::find(yield_model_names.begin(),
                                       yield_model_names.end(), v->string);
            if (it == yield_model_names.end()) {
                throw request_error(
                    "bad_param", std::string{r.context()} + "." +
                                     std::string{key} +
                                     ": unknown model '" +
                                     std::string{v->string} +
                                     "' (reference | scaled | fixed)");
            }
            *static_cast<yield_spec_params::kind*>(p) =
                static_cast<yield_spec_params::kind>(
                    it - yield_model_names.begin());
        }
    }
    return true;
}

void read_block(const block_table& b, fast_reader& r, char* base);

/// A nested object of block `b` into `base`; absent, `base` keeps the
/// defaults its payload's reset gave it.
void read_object(const block_table& b, const aview* v, char* base) {
    if (v == nullptr) {
        return;
    }
    fast_reader r{require_object(*v, b.context), b.context};
    read_block(b, r, base);
    r.forbid_unknown();
}

void read_block(const block_table& b, fast_reader& r, char* base) {
    for (const field_entry& f : b.fields) {
        char* p = base + f.offset;
        if (f.kind == field_kind::block) {
            read_object(*f.nested, r.raw(f.name), p);
        } else if (f.kind == field_kind::spliced) {
            read_block(*f.nested, r, p);
        } else {
            read_value(r, f.name, f.kind, p);
        }
        if (f.check != nullptr) {
            f.check(base);
        }
    }
    if (b.check != nullptr) {
        b.check(base);
    }
}

/// The numeric member a lane key template cuts out of the key, and, once
/// the key is written, where its number would go.
struct key_cut {
    const char* member = nullptr;
    std::size_t at = std::string::npos;
};

void write_key(const block_table& b, const char* base, std::string& out,
               key_cut* cut) {
    for (const key_member& m : b.key) {
        out += m.text;
        if (m.field == nullptr) {
            continue;  // "op", written whole
        }
        const char* p = base + m.offset;
        switch (m.field->kind) {
            case field_kind::text:
                json::write_string_into(out, member_at<std::string>(p));
                break;
            case field_kind::yield_model:
                json::write_string_into(
                    out, yield_model_names[static_cast<std::size_t>(
                             member_at<yield_spec_params::kind>(p))]);
                break;
            case field_kind::block:
                write_key(*m.field->nested, p, out, cut);
                break;
            default:  // a number (spliced blocks are flattened away)
                if (cut != nullptr && cut->member == p) {
                    cut->at = out.size();
                } else {
                    json::format_number_into(number_at(m.field->kind, p), out);
                }
                break;
        }
    }
    out += '}';
}

/// A numeric member found by its dotted path, and the block holding it.
struct leaf {
    const field_entry* field = nullptr;
    char* member = nullptr;
    const block_table* owner = nullptr;
    char* owner_base = nullptr;
};

/// Field `name` of block `b` at `base`, spliced blocks searched too.
leaf find_field(const block_table& b, char* base, std::string_view name) {
    for (const field_entry& f : b.fields) {
        if (f.kind == field_kind::spliced) {
            if (const leaf l = find_field(*f.nested, base + f.offset, name);
                l.field != nullptr) {
                return l;
            }
        } else if (name == f.name) {
            return {&f, base + f.offset, &b, base};
        }
    }
    return {};
}

/// The numeric member `path` addresses in `r` ("process.yield.y0"); no
/// field when the path names no number of the key.
leaf find_numeric(request& r, std::string_view path) {
    const block_table* b = payload_table(r.op);
    char* base = payload_address(r);
    while (b != nullptr) {
        const std::size_t dot = path.find('.');
        const leaf l = find_field(*b, base, path.substr(0, dot));
        if (l.field != nullptr && dot == std::string_view::npos &&
            l.field->kind <= field_kind::uint53) {
            return l;
        }
        if (l.field == nullptr || dot == std::string_view::npos ||
            l.field->kind != field_kind::block) {
            break;
        }
        b = l.field->nested;
        base = l.member;
        path.remove_prefix(dot + 1);
    }
    return {};
}

leaf find_numeric_or_throw(const request& r, std::string_view path) {
    // The finder never writes through a const request.
    const leaf l = find_numeric(const_cast<request&>(r), path);
    if (l.field == nullptr) {
        throw std::logic_error("not a numeric parameter: " +
                               std::string{path});
    }
    return l;
}

// ---------------------------------------------------------------------------
// The envelope and the sweep
// ---------------------------------------------------------------------------

/// `target_key` is the already-canonical target serialization (spliced
/// verbatim — canonical is idempotent under re-sorting).
void sweep_key_into(const sweep_request& q, std::string_view target_key,
                    std::string& out) {
    out += "{\"count\":";
    json::format_number_into(static_cast<double>(q.count), out);
    out += ",\"from\":";
    json::format_number_into(q.from, out);
    out += ",\"op\":\"sweep\",\"param\":";
    json::write_string_into(out, q.param);
    out += ",\"scale\":";
    json::write_string_into(out, q.scale);
    out += ",\"target\":";
    out += target_key;
    out += ",\"to\":";
    json::format_number_into(q.to, out);
    out += '}';
}

void read_sweep(fast_reader& r, fast_parse_state& st);

/// Parses a request document into `out` and writes its canonical key
/// into `key_out` (cleared first).  `sweep_state` is the top level's
/// parse state (which holds a sweep's target); a sweep target passes
/// nullptr.
void read_request(const aview& doc, request& out, std::string& key_out,
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
    out.deadline_ms = 0;
    out.has_deadline =
        read_value(r, "deadline_ms", field_kind::uint53, &out.deadline_ms);
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

    if (*op == op_code::sweep) {
        if (sweep_state == nullptr) {
            // A sweep as a sweep target: its parent always rejects it,
            // but only after it parsed, so an error inside it is the one
            // parse_request raises.  Parse it recursively, in heap
            // scratch of its own (error path only).
            nested = std::make_unique<fast_parse_state>();
            sweep_state = nested.get();
        }
        read_sweep(r, *sweep_state);
    } else {
        const block_table& b = *payload_table(*op);
        read_block(b, r, static_cast<char*>(b.reset(out)));
    }
    r.forbid_unknown();

    key_out.clear();
    if (*op == op_code::sweep) {
        sweep_key_into(std::get<sweep_request>(sweep_state->req.payload),
                       sweep_state->target_key, key_out);
    } else {
        canonical_key_into(out, key_out);
    }
}

void read_sweep(fast_reader& r, fast_parse_state& st) {
    sweep_request& out = ensure_payload<sweep_request>(st.req);

    const aview* target = r.raw("target");
    if (target == nullptr) {
        throw request_error("bad_param", "sweep: 'target' is required");
    }
    require_object(*target, "sweep.target");
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

    read_request(*target, st.target_req, st.target_key,
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

    read_value(r, "count", field_kind::integer, &out.count);
    check_range(out.count, 1, 65536, "sweep: count must be in [1, 65536]");
    read_value(r, "scale", field_kind::text, &out.scale);
    check_scale(out.scale, "sweep: scale must be 'linear' or 'log'");
    if (out.scale == "log" && (!(out.from > 0.0) || !(out.to > 0.0))) {
        throw request_error(
            "bad_param", "sweep: log scale requires positive 'from'/'to'");
    }
}

}  // namespace

void parse_request_fast(const json::aview& doc, fast_parse_state& st) {
    st.id_view = nullptr;
    st.trace_view = nullptr;
    read_request(doc, st.req, st.req.canonical_key, &st);
}

void canonical_key_into(const request& r, std::string& out) {
    if (r.op == op_code::sweep) {
        // Sweeps from parse_request (`target` set); parse_request_fast
        // splices the target key it canonicalized while parsing.
        const auto& q = std::get<sweep_request>(r.payload);
        std::string target_key;
        canonical_key_into(*q.target, target_key);
        sweep_key_into(q, target_key, out);
        return;
    }
    write_key(*payload_table(r.op), payload_address(r), out, nullptr);
}

// ---------------------------------------------------------------------------
// Numeric parameters (the numbers of the canonical key, by dotted path)
// ---------------------------------------------------------------------------

double* numeric_param_ptr(request& r, std::string_view path) {
    const leaf l = find_numeric(r, path);
    return l.field != nullptr && l.field->kind == field_kind::number
               ? &member_at<double>(l.member)
               : nullptr;
}

bool numeric_param_exists(const request& r, std::string_view path) {
    // The finder never writes through a const request.
    return find_numeric(const_cast<request&>(r), path).field != nullptr;
}

double numeric_param_value(const request& r, std::string_view path) {
    const leaf l = find_numeric_or_throw(r, path);
    return number_at(l.field->kind, l.member);
}

void set_numeric_param(request& r, std::string_view path, double v) {
    numeric_param{r, path}.set(r, v);
}

numeric_param::numeric_param(const request& r, std::string_view path) {
    const leaf l = find_numeric_or_throw(r, path);
    const char* payload = payload_address(r);
    offset_ = static_cast<std::size_t>(l.member - payload);
    owner_offset_ = static_cast<std::size_t>(l.owner_base - payload);
    kind_ = l.field->kind == field_kind::integer ? kind::integer
            : l.field->kind == field_kind::uint53 ? kind::uint53
                                                  : kind::number;
    field_check_ = l.field->check;
    block_check_ = l.owner->check;
}

void numeric_param::set(request& lane, double v) const {
    char* payload = payload_address(lane);
    char* member = payload + offset_;
    switch (kind_) {
        case kind::integer:
            if (!is_int_value(v)) {
                throw request_error("bad_param",
                                    "sweep: lane is not an integer");
            }
            member_at<int>(member) = static_cast<int>(v);
            break;
        case kind::uint53:
            if (!is_uint53_value(v)) {
                throw request_error("bad_param", "sweep: lane is not a seed");
            }
            member_at<std::uint64_t>(member) = static_cast<std::uint64_t>(v);
            break;
        case kind::number:
            member_at<double>(member) = v;
            break;
    }
    // The checks parsing runs on the field and its block, so a lane is
    // rejected exactly when its point request would be.
    if (field_check_ != nullptr) {
        field_check_(payload + owner_offset_);
    }
    if (block_check_ != nullptr) {
        block_check_(payload + owner_offset_);
    }
}

double* numeric_param::ptr(request& lane) const {
    return kind_ == kind::number
               ? &member_at<double>(payload_address(lane) + offset_)
               : nullptr;
}

lane_key_template::lane_key_template(const request& base,
                                     std::string_view param) {
    // Write the base's key once, cut at the parameter's member: the hole
    // is where its number goes.
    const leaf l = find_numeric(const_cast<request&>(base), param);
    const char* payload = payload_address(base);
    key_cut cut{l.member};
    if (l.field != nullptr) {
        write_key(*payload_table(base.op), payload, text_, &cut);
    }
    if (cut.at == std::string::npos) {
        throw std::logic_error(
            "lane_key_template: the parameter is not a number of the key");
    }
    hole_ = cut.at;
    offset_ = static_cast<std::size_t>(l.member - payload);
    number_ = number_reader(l.field->kind);
}

void lane_key_template::key_into(const request& lane, std::string& out) const {
    out.append(text_.data(), hole_);
    json::format_number_into(number_(payload_address(lane) + offset_), out);
    out.append(text_.data() + hole_, text_.size() - hole_);
}

}  // namespace silicon::serve
