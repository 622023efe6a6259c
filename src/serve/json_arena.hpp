// json_arena.hpp — arena-backed JSON parsing for the serve hot path.
//
// `json::parse` builds a `json::value` tree out of heap-owned strings and
// vectors, which is exactly the per-request allocation churn the batched
// pipeline wants to avoid.  This header provides a read-only *view* DOM
// (`aview`) whose nodes, arrays, member tables and decoded strings all live
// in an `exec::arena`, plus a reusable `arena_parser` whose scratch stacks
// persist across lines.  After a few warm-up lines a parse performs zero
// heap allocations.
//
// Contract: `arena_parser::parse` accepts exactly the same inputs as
// `json::parse` (same grammar, same duplicate-key and depth rules) and
// yields identical values — the same doubles bit-for-bit (shared
// from_chars/strtod path) and the same decoded strings — so the engine
// can canonicalize from an `aview` and hit the same cache entries
// `parse_request(json::parse(line))` keys.  Equivalence is pinned by
// tests/serve/test_hotpath.cpp.
//
// Lifetime: returned views point into the arena and, for escape-free
// strings, into the input text; both must outlive the view.  `aview` is
// trivially destructible by design (the arena never runs destructors).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/arena.hpp"
#include "serve/json.hpp"

namespace silicon::serve::json {

struct amember;

/// A node of the arena-backed JSON view.
struct aview {
    enum class kind_t : unsigned char {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    kind_t kind = kind_t::null;
    bool boolean = false;
    double number = 0.0;
    std::string_view string{};       // kind string: decoded bytes
    const aview* elems = nullptr;    // kind array: `count` contiguous nodes
    const amember* members = nullptr;  // kind object: `count` members
    std::uint32_t count = 0;

    [[nodiscard]] bool is_null() const noexcept {
        return kind == kind_t::null;
    }
    [[nodiscard]] bool is_bool() const noexcept {
        return kind == kind_t::boolean;
    }
    [[nodiscard]] bool is_number() const noexcept {
        return kind == kind_t::number;
    }
    [[nodiscard]] bool is_string() const noexcept {
        return kind == kind_t::string;
    }
    [[nodiscard]] bool is_array() const noexcept {
        return kind == kind_t::array;
    }
    [[nodiscard]] bool is_object() const noexcept {
        return kind == kind_t::object;
    }

    /// Object member lookup (linear scan, document order); nullptr when
    /// absent or when this node is not an object.
    [[nodiscard]] const aview* find(std::string_view key) const noexcept;
};

/// One object member: key in document order, value by… value (nodes are
/// small and trivially copyable).
struct amember {
    std::string_view key;
    aview val;
};

/// Reusable parser; keep one per thread and call `parse` per line.  The
/// internal scratch stacks retain capacity across calls.
class arena_parser {
  public:
    /// Parses one complete JSON document into `a`.  Throws
    /// `json::parse_error` exactly where `json::parse` would.
    const aview& parse(std::string_view text, exec::arena& a);

  private:
    friend class arena_parser_impl;
    std::vector<aview> value_stack_;
    std::vector<amember> member_stack_;
};

/// Compact serialization of a view, object members in document order —
/// byte-identical to `json::dump(json::parse(text))` for the document the
/// view was parsed from.  Appends to `out` (no clear), allocating only if
/// `out` must grow.
void dump_into(const aview& v, std::string& out);

}  // namespace silicon::serve::json
