// request_fast.hpp — allocation-free request parsing for the serve engine.
//
// `parse_request` (request.hpp) builds heap-owned `json::value` trees and
// strings per line; that cost would dominate a warm cache hit.  This
// module is the parser the engine serves every line with: it parses an
// arena-backed `json::aview` document into a *reused* `request` (string
// members keep their capacity, the payload variant keeps its alternative
// when the op repeats) and writes the canonical cache key directly into
// a reused buffer — no DOM, no sort, no temporaries.
//
// Each parameter block (process, product, economics, every op's payload,
// the chiplet configuration) is declared once in request_fast.cpp as an
// ordered table of fields: name, member, kind, and an optional check run
// right after the field is read.  The parser reads a table in declared
// order, the key writer in bytewise-sorted name order (computed once per
// block), and the sweep-parameter functions below resolve dotted paths
// through it.
//
// Equivalence contract (pinned by tests/serve/test_hotpath.cpp): for every
// input document, `parse_request_fast` either
//   - succeeds producing the byte-identical `canonical_key` that
//     `parse_request(json::parse(line))` would produce, or
//   - throws a `request_error` with the same code and message.
// There is no third outcome: every shape, nested sweep targets included,
// is parsed here.  `parse_request` stays as the independent reference the
// tests and benchmarks compare against.
//
// `numeric_param_exists` / `numeric_param_ptr` / `set_numeric_param` /
// `numeric_param_value` address a request's numeric parameters by dotted
// path ("process.yield.y0"): the `param` values a sweep accepts, and what
// each sweep lane writes instead of cloning and re-parsing a JSON
// document.  `numeric_param` resolves such a path once per grid, so
// binding a lane walks no table.  `lane_key_template` keys a sweep's
// lanes: the base request's canonical key, cut once per grid at the
// swept parameter.

#pragma once

#include "serve/json_arena.hpp"
#include "serve/request.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace silicon::serve {

/// Reusable parse storage; keep one per thread (the engine embeds it in
/// its thread-local line state).
struct fast_parse_state {
    /// Parsed result: op, payload, has_id and canonical_key are filled.
    /// `id` is NOT copied into `req.id` (that would allocate) — the raw
    /// view is left in `id_view` for the caller to serialize directly.
    request req;
    const json::aview* id_view = nullptr;
    /// Like `id_view`: `req.trace_id` is NOT assigned on the fast path
    /// (that could allocate) — the envelope echo serializes this view.
    /// Non-null iff `req.has_trace`.
    const json::aview* trace_view = nullptr;

    /// Sweep scratch: the parsed target and its canonical key.  A fast-
    /// parsed sweep leaves `sweep_request::target` null (attaching it
    /// would allocate); the engine evaluates a sweep miss from
    /// `target_req`.
    request target_req;
    std::string target_key;
};

/// Parse and validate one arena-view document into `st` (in place,
/// allocation-free once warm).  Throws request_error exactly like
/// parse_request; leaves `st` in an unspecified (but reusable) state on
/// throw.
void parse_request_fast(const json::aview& doc, fast_parse_state& st);

/// Appends the canonical cache key of a fully-parsed non-sweep request.
/// (Sweeps need the target key; parse_request_fast splices it inline.)
void canonical_key_into(const request& r, std::string& out);

/// True when dotted `path` addresses a numeric parameter of `r`'s
/// canonical serialization (integer-typed parameters included) — for a
/// sweep target op, the set of `param` values a sweep accepts.
[[nodiscard]] bool numeric_param_exists(const request& r,
                                        std::string_view path);

/// Pointer to the double member of `r` addressed by `path`; nullptr when
/// the path is invalid or addresses an integer-typed parameter.
[[nodiscard]] double* numeric_param_ptr(request& r, std::string_view path);

/// Sets the numeric parameter `path` of `r` to `v` — one sweep lane.
/// `path` must be one numeric_param_exists accepts (std::logic_error
/// otherwise).  Throws request_error exactly when parse_request would
/// reject `v` there (an integer out of range or not integral, dies
/// outside [1, 1e8], chiplets outside [1, 16]).
void set_numeric_param(request& r, std::string_view path, double v);

/// A numeric parameter of one op's requests, resolved once from its
/// dotted path: the member's offset in the payload, its kind, and the
/// field and block checks parsing runs on it.  A grid binds each lane
/// through it, so no lane walks the field tables.
class numeric_param {
public:
    /// Resolves `path` in `r`'s op; std::logic_error when
    /// numeric_param_exists(r, path) is false.
    numeric_param(const request& r, std::string_view path);

    /// set_numeric_param(lane, path, v) for a request of the same op:
    /// the same member written, the same request_error thrown.
    void set(request& lane, double v) const;

    /// numeric_param_ptr(lane, path) for a request of the same op: the
    /// double member, nullptr when the parameter is integer-typed.
    [[nodiscard]] double* ptr(request& lane) const;

    /// True when the parameter is a double member (ptr is not null).
    [[nodiscard]] bool is_double() const noexcept {
        return kind_ == kind::number;
    }

private:
    enum class kind : std::uint8_t { number, integer, uint53 };
    using check_fn = void (*)(const void* block);

    std::size_t offset_ = 0;        ///< of the member in the payload
    std::size_t owner_offset_ = 0;  ///< of the block holding the member
    kind kind_ = kind::number;
    check_fn field_check_ = nullptr;  ///< on the owner, after the write
    check_fn block_check_ = nullptr;  ///< the owner block's own check
};

/// The number `r`'s canonical key prints for the numeric parameter
/// `path` (one numeric_param_exists accepts): the double member, or the
/// integer one converted to double.
[[nodiscard]] double numeric_param_value(const request& r,
                                         std::string_view path);

/// The canonical keys of a sweep's lanes, which differ from the base
/// request only in the swept parameter: the base's key, written once per
/// grid by the key writer with a hole where that parameter's number
/// goes.  A lane's key is then the constant text with its own value
/// spliced in, byte-identical to canonical_key_into(lane).
class lane_key_template {
public:
    /// Cuts `base`'s key at `param` (a path numeric_param_exists
    /// accepts); std::logic_error otherwise.
    lane_key_template(const request& base, std::string_view param);

    /// Appends the canonical key of `lane`: `base` with only the
    /// template's parameter changed (set_numeric_param or direct).
    void key_into(const request& lane, std::string& out) const;

private:
    std::string text_;
    std::size_t hole_ = 0;    ///< where the number goes in text_
    std::size_t offset_ = 0;  ///< of the parameter in the lane's payload
    double (*number_)(const char* member) = nullptr;
};

}  // namespace silicon::serve
